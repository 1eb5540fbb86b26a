package v10

import (
	"fmt"
	"io"

	"v10/internal/baseline"
	"v10/internal/trace"
)

// ClusterResult summarizes a multi-core simulation.
type ClusterResult struct {
	PerCore     []*Result
	Normalized  []float64 // per-workload normalized progress (vs dedicated core)
	TotalSTP    float64   // Σ Normalized: workloads' worth of progress delivered
	CoresUsed   int
	AggUtil     float64 // mean aggregate compute utilization across cores
	WorstTenant float64 // minimum normalized progress across all workloads
}

// SimulateCluster runs every core of the placement under the scheme and
// aggregates cluster-level metrics: total normalized progress, mean
// utilization, and the worst tenant. Each core is an independent NPU with
// its own HBM (the paper's §3.5 deployment); core c runs Collocate with seed
// opt.Seed+c, and progress is normalized by each workload's rate on a
// dedicated core.
func SimulateCluster(ws []*Workload, p Placement, scheme Scheme, opt Options) (*ClusterResult, error) {
	if err := p.Validate(len(ws)); err != nil {
		return nil, err
	}
	if opt.Requests <= 0 {
		opt.Requests = 20
	}
	res := &ClusterResult{Normalized: make([]float64, len(ws)), CoresUsed: p.Cores()}
	seed := opt.Seed
	for c, group := range p {
		core := make([]*Workload, len(group))
		for k, idx := range group {
			core[k] = ws[idx]
		}
		rates, err := baseline.SingleTenantRates(core, opt.config(), opt.Requests)
		if err != nil {
			return nil, fmt.Errorf("v10: core %d: %w", c, err)
		}
		opt.Seed = seed + uint64(c)
		run, err := Collocate(core, scheme, opt)
		if err != nil {
			return nil, fmt.Errorf("v10: core %d: %w", c, err)
		}
		res.PerCore = append(res.PerCore, run)
		res.AggUtil += run.AggregateUtil()
		for k, norm := range run.NormalizedProgress(rates) {
			res.Normalized[group[k]] = norm
			res.TotalSTP += norm
		}
	}
	if len(p) > 0 {
		res.AggUtil /= float64(len(p))
	}
	for i, norm := range res.Normalized {
		if i == 0 || norm < res.WorstTenant {
			res.WorstTenant = norm
		}
	}
	return res, nil
}

// TraceFile is a recorded, replayable operator trace — this repository's
// equivalent of the instruction traces the paper captures on real TPUs.
type TraceFile = trace.File

// RecordTrace captures n requests from a workload into a replayable trace.
func RecordTrace(w *Workload, n int) *TraceFile { return trace.Record(w, n) }

// WriteTrace serializes a trace as JSON.
func WriteTrace(w io.Writer, f *TraceFile) error { return f.WriteJSON(w) }

// ReadTrace parses and validates a JSON trace; use TraceFile.Workload to
// replay it.
func ReadTrace(r io.Reader) (*TraceFile, error) { return trace.ReadJSON(r) }
