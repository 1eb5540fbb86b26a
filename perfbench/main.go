// Command perfbench is the simulator's end-to-end benchmark. One run times
// one workload — the paper's V10-vs-PMT pair evaluation, an advisor-placed
// serving fleet, or one policy-search generation — for a fixed number of
// seconds, checks the simulated outputs, and prints every metric with its
// unit. The last line of standard output is the result as one JSON object.
//
//	perfbench --workload paper-pairs --seed 1 --seconds 20 --trace 0
//
// --trace 1 alternates untraced and traced passes and reports per-layer
// metrics instead of end-to-end ones; the traced passes' spans are written
// as a Perfetto-loadable JSON file. NOTES.md explains the workloads and the
// layer → metric → workload map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricDef struct {
	name, unit string
	// from names the workload that defines a sim_* metric ("" for host
	// metrics, which every workload measures itself).
	from string
}

// endToEnd are the metrics an untraced run reports, in print order.
var endToEnd = []metricDef{
	{"wall_s", "s", ""},
	{"setup_s", "s", ""},
	{"alloc_mb", "MB", ""},
	{"sim_util_x_pmt", "x", "paper-pairs"},
	{"sim_stp_x_pmt", "x", "paper-pairs"},
	{"sim_avg_lat_x_pmt", "x", "paper-pairs"},
	{"sim_p95_lat_x_pmt", "x", "paper-pairs"},
	{"sim_goodput_hz", "req/s", "fleet-advisor"},
	{"sim_p99_ms", "ms", "fleet-advisor"},
	{"sim_shed_rate", "ratio", "fleet-advisor"},
	{"sim_jain", "index", "fleet-advisor"},
	{"sim_best_goodput_x", "x", "tune-generation"},
}

// perLayer are the metrics a traced run reports, in print order.
var perLayer = []metricDef{
	{"trace.graphs", "count", ""}, {"trace.gen_s", "s", ""},
	{"sched.runs", "count", ""}, {"sched.run_s", "s", ""}, {"sched.gcycles", "Gcycles", ""},
	{"sched.gcycles_per_s", "Gcycles/s", ""}, {"sched.events", "count", ""},
	{"sched.preemptions", "count", ""}, {"sched.switch_mcycles", "Mcycles", ""},
	{"baseline.runs", "count", ""}, {"baseline.run_s", "s", ""}, {"baseline.gcycles_per_s", "Gcycles/s", ""},
	{"collocate.features_s", "s", ""}, {"collocate.train_s", "s", ""},
	{"collocate.pair_queries", "count", ""}, {"collocate.pair_sims", "count", ""},
	{"collocate.pair_hit_ratio", "ratio", ""}, {"collocate.pair_sim_s", "s", ""},
	{"workload.schedule_s", "s", ""}, {"workload.arrivals", "count", ""},
	{"fleet.runs", "count", ""}, {"fleet.run_s", "s", ""}, {"fleet.core_sim_s", "s", ""},
	{"fleet.pipeline_s", "s", ""}, {"fleet.profile_s", "s", ""}, {"fleet.offered", "count", ""},
	{"fleet.completed", "count", ""}, {"fleet.shed", "count", ""}, {"fleet.spilled", "count", ""},
	{"fleet.core_events", "count", ""},
	{"tune.candidates", "count", ""}, {"tune.evals", "count", ""}, {"tune.cache_hit_ratio", "ratio", ""},
	{"tune.cell_fleet_s", "s", ""}, {"tune.cell_faults_s", "s", ""}, {"tune.cell_workload_s", "s", ""},
	{"tune.cell_elastic_s", "s", ""}, {"tune.verify_s", "s", ""},
	{"go.gc_cycles", "count", ""}, {"go.gc_pause_s", "s", ""},
	{"trace_overhead_x", "x", ""},
}

// workers is the width of every parallel call. On a small shared host a pass
// fanned over every vCPU is as slow as whichever one a neighbour slows: its
// median moved 26% across 15-second windows where a one-worker pass moved 9%
// (2 vCPUs; NOTES.md).
const workers = 1

// minPasses is the fewest timed passes a run makes, however short --seconds:
// two, so the digest comparison always has a pair (one untraced and one
// traced pass under --trace 1).
const minPasses = 2

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, measures, and prints; it returns the exit code: 0 on
// success, 1 when a correctness check fails, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to time: "+workloadNames())
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; every input is generated from it")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long to repeat timed passes")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "Perfetto span file of a traced run (default .bench_build/perfbench/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	o.trace = traceFlag == 1
	if o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
	}
	if fs.NArg() > 0 || !(o.seconds > 0) {
		fmt.Fprintln(stderr, "perfbench: want --workload NAME [--seed N] [--seconds S>0] [--trace 0|1]")
		return 2
	}
	wl, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", o.workload, workloadNames())
		return 2
	}
	res, err := measure(wl, o, stdout)
	if res == nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: correctness check failed:", err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// passStat is one timed pass.
type passStat struct {
	setup, wall float64 // seconds
	allocMB     float64
	gcs         float64
	gcPause     float64
	traced      bool
	from, to    int64 // recorder clock, traced passes only
	out         outcome
}

// measure runs the timed passes of wl, then one untraced pass of every other
// workload for its sim_* metrics, and checks everything. It returns a nil
// result only when a pass could not run at all; a failed check comes back as
// a result with Correct false and the error.
func measure(wl workloadDef, o options, w io.Writer) (*result, error) {
	fmt.Fprintf(w, "perfbench: workload %s, seed %d, %g s, trace %v, %d worker, GOMAXPROCS %d\n",
		wl.name, o.seed, o.seconds, o.trace, workers, runtime.GOMAXPROCS(0))

	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	res := &result{Metrics: map[string]metricValue{}}
	var checkErrs []error
	fail := func(err error) {
		res.Failed++
		checkErrs = append(checkErrs, err)
	}

	var passes []passStat
	start := time.Now()
	for p := 0; p < minPasses || time.Since(start).Seconds() < o.seconds; p++ {
		ps := passStat{traced: o.trace && p%2 == 1}
		e := env{seed: o.seed}
		if ps.traced {
			e.rec = rec
			rec.startPass(p)
		}
		t := time.Now()
		work, err := wl.prepare(e)
		ps.setup = time.Since(t).Seconds()
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if ps.traced {
			ps.from = rec.now()
		}
		t = time.Now()
		out, err := work()
		ps.wall = time.Since(t).Seconds()
		if ps.traced {
			ps.to = rec.now()
		}
		runtime.ReadMemStats(&m1)
		ps.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
		ps.gcs = float64(m1.NumGC - m0.NumGC)
		ps.gcPause = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9
		ps.out = out
		res.Attempted += max(out.attempted, 1)
		if err != nil {
			if out.sim == nil {
				return nil, fmt.Errorf("%s pass %d: %w", wl.name, p, err)
			}
			fail(fmt.Errorf("pass %d: %w", p, err))
		}
		if len(passes) > 0 && out.digest != passes[0].out.digest {
			fail(fmt.Errorf("pass %d digest %016x differs from pass 0's %016x", p, out.digest, passes[0].out.digest))
		}
		tag := ""
		if ps.traced {
			tag = " (traced)"
		}
		fmt.Fprintf(w, "pass %2d%s: setup %.6f s, wall %.6f s, alloc %.1f MB, digest %016x\n",
			p, tag, ps.setup, ps.wall, ps.allocMB, out.digest)
		passes = append(passes, ps)
	}

	if o.trace {
		layers, err := traceMetrics(wl, o, rec, passes, w)
		if err != nil {
			return nil, err
		}
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{layers[d.name], d.unit}
		}
	} else {
		sim := map[string]float64{}
		for k, v := range passes[0].out.sim {
			sim[k] = v
		}
		for _, other := range workloads {
			if other.name == wl.name {
				continue
			}
			work, err := other.prepare(env{seed: o.seed})
			if err != nil {
				return nil, fmt.Errorf("%s set-up: %w", other.name, err)
			}
			out, err := work()
			res.Attempted += max(out.attempted, 1)
			if err != nil {
				if out.sim == nil {
					return nil, fmt.Errorf("%s: %w", other.name, err)
				}
				fail(err)
			}
			fmt.Fprintf(w, "%s outcome pass: digest %016x\n", other.name, out.digest)
			for k, v := range out.sim {
				sim[k] = v
			}
		}
		host := map[string]func(passStat) float64{
			"wall_s":   func(p passStat) float64 { return p.wall },
			"setup_s":  func(p passStat) float64 { return p.setup },
			"alloc_mb": func(p passStat) float64 { return p.allocMB },
		}
		fmt.Fprintf(w, "end-to-end metrics, %d passes:\n", len(passes))
		for _, d := range endToEnd {
			var v float64
			var ok bool
			switch {
			case host[d.name] != nil:
				xs := collect(passes, host[d.name])
				v, ok = median(xs), true
				q := quartiles(xs)
				fmt.Fprintf(w, "  %-20s %12.6f %-6s median; q1 %.6f, q3 %.6f, max %.6f, n %d\n",
					d.name, v, d.unit, q[0], q[2], maxOf(xs), len(xs))
			default:
				v, ok = sim[d.name]
				fmt.Fprintf(w, "  %-20s %12.6f %-6s %s\n", d.name, v, d.unit, reference(d, v))
			}
			if !ok || math.IsNaN(v) {
				fail(fmt.Errorf("metric %s missing", d.name))
				continue
			}
			res.Metrics[d.name] = metricValue{v, d.unit}
		}
	}
	res.Correct = len(checkErrs) == 0
	return res, errors.Join(checkErrs...)
}

// reference labels a sim_* metric with the paper's value and the relative
// error, or marks it unvalidated where the repo holds no reference.
func reference(d metricDef, v float64) string {
	if ref, ok := paperRef[d.name]; ok {
		return fmt.Sprintf("%s; paper %.2f x, rel. error %+.1f%%", d.from, ref, 100*(v-ref)/ref)
	}
	return d.from + "; unvalidated (no reference value in the repo)"
}

// traceMetrics derives the per-layer metrics of a traced run: medians over
// the traced passes, the probe's metrics, Go runtime counters from the
// untraced passes, and the tracing overhead. It prints each layer's self
// time and writes the spans.
func traceMetrics(wl workloadDef, o options, rec *recorder, passes []passStat, w io.Writer) (map[string]float64, error) {
	vals := map[string][]float64{}
	selfs := map[string][]float64{}
	var uncovered, tracedWall, plainWall, gcs, pauses []float64
	for p, ps := range passes {
		if !ps.traced {
			plainWall = append(plainWall, ps.wall)
			gcs = append(gcs, ps.gcs)
			pauses = append(pauses, ps.gcPause)
			continue
		}
		tracedWall = append(tracedWall, ps.wall)
		for k, v := range rec.layerMetrics(p, ps.from, ps.to) {
			vals[k] = append(vals[k], v)
		}
		self, unc := rec.selfTimes(p, ps.from, ps.to)
		for k, v := range self {
			selfs[k] = append(selfs[k], v)
		}
		uncovered = append(uncovered, unc)
	}
	m := map[string]float64{}
	for k, xs := range vals {
		m[k] = median(xs)
	}
	m["go.gc_cycles"] = median(gcs)
	m["go.gc_pause_s"] = median(pauses)
	m["trace_overhead_x"] = median(tracedWall) / median(plainWall)

	fmt.Fprintf(w, "layer self time per traced pass (median of %d; wall %.6f s):\n", len(tracedWall), median(tracedWall))
	names := make([]string, 0, len(selfs))
	for k := range selfs {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-22s %.6f s\n", k, median(selfs[k]))
	}
	fmt.Fprintf(w, "  %-22s %.6f s\n", "(no layer span)", median(uncovered))

	if wl.probe != nil {
		probePass := len(passes)
		layers := func(fn func() error) (map[string]float64, error) {
			rec.startPass(probePass)
			from := rec.now()
			err := fn()
			m := rec.layerMetrics(probePass, from, rec.now())
			probePass++
			return m, err
		}
		pm, err := wl.probe(env{seed: o.seed, rec: rec}, layers)
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", wl.name, err)
		}
		for k, v := range pm {
			m[k] = v
		}
	}

	fmt.Fprintln(w, "per-layer metrics:")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-26s %14.6f %s\n", d.name, m[d.name], d.unit)
	}
	if err := rec.writePerfetto(o.traceOut); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(w, "spans: %d written to %s\n", len(rec.spans), o.traceOut)
	return m, nil
}

func collect(passes []passStat, f func(passStat) float64) []float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = f(p)
	}
	return xs
}

func median(xs []float64) float64 { return quartiles(xs)[1] }

// quartiles returns the first, second and third quartiles of xs (linear
// interpolation between order statistics; zeros when xs is empty).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		switch len(s) {
		case 0:
			return 0
		case 1:
			return s[0]
		}
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
