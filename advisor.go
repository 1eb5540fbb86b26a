package v10

import (
	"fmt"
	"sort"

	"v10/internal/collocate"
)

// Advisor is the clustering-based collocation advisor (§3.4): it clusters
// workloads by resource signature (PCA + K-Means) and predicts whether a
// pair will benefit from sharing a core, using offline-profiled
// inter-cluster collocation performance.
type Advisor struct {
	cfg      Config
	model    *collocate.Model
	requests int
}

// AdvisorOptions tune training.
type AdvisorOptions struct {
	Config Config
	// Clusters is K in K-Means (paper: 5).
	Clusters int
	// Threshold is the benefit cutoff on V10-Full/PMT throughput (paper: 1.3).
	Threshold float64
	// ProfileRequests per simulation during offline pairwise profiling.
	ProfileRequests int
	// PairSamples bounds pairs profiled per cluster pair (0 = all).
	PairSamples int
	Seed        uint64
	// Parallel bounds the worker goroutines used for the O(n²) pairwise
	// profiling simulations (0 = GOMAXPROCS, 1 = serial). The trained model
	// is bit-identical at any worker count.
	Parallel int
}

// TrainAdvisor profiles the training workloads and builds the cluster
// database. Training cost is dominated by the pairwise collocation
// simulations; results are memoized within the call, and the simulations fan
// out across opt.Parallel workers (GOMAXPROCS by default) with bit-identical
// results to a serial run.
func TrainAdvisor(training []*Workload, opt AdvisorOptions) (*Advisor, error) {
	cfg := opt.Config
	if cfg.SADim == 0 {
		cfg = DefaultConfig()
	}
	requests := opt.ProfileRequests
	if requests <= 0 {
		requests = 3
	}
	feats := make([]collocate.Features, len(training))
	for i, w := range training {
		feats[i] = collocate.ExtractFeatures(w, cfg, requests)
	}
	perf := collocate.SimPairPerf(cfg, requests)
	model, err := collocate.Train(training, feats, perf, collocate.TrainConfig{
		K:           opt.Clusters,
		Threshold:   opt.Threshold,
		PairSamples: opt.PairSamples,
		Seed:        opt.Seed,
		Parallel:    opt.Parallel,
	})
	if err != nil {
		return nil, fmt.Errorf("v10: training advisor: %w", err)
	}
	return &Advisor{cfg: cfg, model: model, requests: requests}, nil
}

// Clusters returns the number of clusters in the trained model.
func (a *Advisor) Clusters() int { return a.model.K() }

// Cluster assigns a workload to its cluster.
func (a *Advisor) Cluster(w *Workload) int {
	return a.model.PredictCluster(collocate.ExtractFeatures(w, a.cfg, a.requests))
}

// PredictGain estimates the pair's collocation performance: the predicted
// V10-Full aggregated throughput relative to PMT time sharing.
func (a *Advisor) PredictGain(x, y *Workload) float64 {
	fx := collocate.ExtractFeatures(x, a.cfg, a.requests)
	fy := collocate.ExtractFeatures(y, a.cfg, a.requests)
	return a.model.PredictPerf(fx, fy)
}

// ShouldCollocate reports whether the pair clears the benefit threshold and
// should be dispatched to the same NPU core.
func (a *Advisor) ShouldCollocate(x, y *Workload) bool {
	fx := collocate.ExtractFeatures(x, a.cfg, a.requests)
	fy := collocate.ExtractFeatures(y, a.cfg, a.requests)
	return a.model.ShouldCollocate(fx, fy)
}

// Apply returns opt set up to serve with this advisor: its trained model
// (which PlaceAdvisor places with and which gates spill compatibility) and
// its profiling depth. Apply the advisor before TunedKnobs.Apply, whose
// collocation-threshold knob only takes effect on a run with a model.
func (a *Advisor) Apply(opt FleetOptions) FleetOptions {
	opt.Model = a.model
	opt.ProfileRequests = a.requests
	return opt
}

// Placement assigns workload indices to NPU cores (§3.5): Placement[c]
// lists the workloads collocated on core c.
type Placement [][]int

// Validate checks that every workload in [0, n) appears exactly once and no
// core is empty.
func (p Placement) Validate(n int) error {
	seen := make([]bool, n)
	for c, group := range p {
		if len(group) == 0 {
			return fmt.Errorf("v10: core %d has no workloads", c)
		}
		for _, w := range group {
			if w < 0 || w >= n {
				return fmt.Errorf("v10: workload index %d out of range", w)
			}
			if seen[w] {
				return fmt.Errorf("v10: workload %d placed twice", w)
			}
			seen[w] = true
		}
	}
	for w, ok := range seen {
		if !ok {
			return fmt.Errorf("v10: workload %d not placed", w)
		}
	}
	return nil
}

// Cores returns the number of cores the placement uses.
func (p Placement) Cores() int { return len(p) }

// NaivePlacement pairs workloads blindly in argument order, two per core —
// the baseline the clustering mechanism improves on.
func NaivePlacement(n int) Placement {
	var p Placement
	for i := 0; i < n; i += 2 {
		if i+1 < n {
			p = append(p, []int{i, i + 1})
		} else {
			p = append(p, []int{i})
		}
	}
	return p
}

// PlanPlacement builds a full cluster placement from the advisor: the
// highest-predicted-gain compatible pairs share cores, greedily, and the
// leftovers run on dedicated cores after them.
func (a *Advisor) PlanPlacement(ws []*Workload) Placement {
	return pairPlacement(a.model, a.features(ws))
}

// PlanPairs is PlanPlacement's pair list and the indices of the workloads
// left to run alone — the §3.5 "put it all together" dispatch step.
func (a *Advisor) PlanPairs(ws []*Workload) (pairs [][2]int, alone []int) {
	for _, g := range a.PlanPlacement(ws) {
		if len(g) == 2 {
			pairs = append(pairs, [2]int{g[0], g[1]})
		} else {
			alone = append(alone, g[0])
		}
	}
	return pairs, alone
}

// PlanGroups generalizes PlanPlacement to up to maxPerCore tenants per core
// (the paper's §5.9 deployments host "two or more" workloads per core).
// Groups are seeded from PlanPlacement's pairs and grow greedily: a workload
// joins the group whose minimum pairwise predicted performance with it stays
// above the model's threshold, preferring the best fit.
func (a *Advisor) PlanGroups(ws []*Workload, maxPerCore int) Placement {
	n := len(ws)
	if maxPerCore <= 1 {
		p := make(Placement, n)
		for i := range p {
			p[i] = []int{i}
		}
		return p
	}
	feats := a.features(ws)
	assigned := make([]bool, n)
	var p Placement
	for _, seed := range pairPlacement(a.model, feats) {
		var g []int
		for _, w := range seed {
			if !assigned[w] {
				g = append(g, w)
				assigned[w] = true
			}
		}
		if len(g) == 0 {
			continue // fully absorbed into an earlier group
		}
		for len(g) < maxPerCore {
			best, bestFit := -1, 0.0
			for cand := 0; cand < n; cand++ {
				if assigned[cand] {
					continue
				}
				if fit := a.model.GroupFit(feats, g, cand); fit > bestFit {
					best, bestFit = cand, fit
				}
			}
			if best < 0 {
				break
			}
			g = append(g, best)
			assigned[best] = true
		}
		p = append(p, g)
	}
	return p
}

func (a *Advisor) features(ws []*Workload) []collocate.Features {
	feats := make([]collocate.Features, len(ws))
	for i, w := range ws {
		feats[i] = collocate.ExtractFeatures(w, a.cfg, a.requests)
	}
	return feats
}

// pairPlacement is the max-gain pairing: compatible pairs in descending
// predicted gain (ties in index order) share a core unless either member is
// already placed; the rest follow one per core in index order.
func pairPlacement(model *collocate.Model, feats []collocate.Features) Placement {
	type cand struct {
		i, j int
		gain float64
	}
	n := len(feats)
	var cands []cand
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if model.ShouldCollocate(feats[i], feats[j]) {
				cands = append(cands, cand{i, j, model.PredictPerf(feats[i], feats[j])})
			}
		}
	}
	sort.SliceStable(cands, func(x, y int) bool { return cands[x].gain > cands[y].gain })
	used := make([]bool, n)
	var p Placement
	for _, c := range cands {
		if used[c.i] || used[c.j] {
			continue
		}
		used[c.i], used[c.j] = true, true
		p = append(p, []int{c.i, c.j})
	}
	for i := 0; i < n; i++ {
		if !used[i] {
			p = append(p, []int{i})
		}
	}
	return p
}
