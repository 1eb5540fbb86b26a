package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"v10/internal/collocate"
	simmetrics "v10/internal/metrics"
	"v10/internal/obs"
	"v10/internal/trace"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Times are nanoseconds since the recorder started.
type span struct {
	name       string
	start, end int64
	parent     int // index of the enclosing span, -1 at a pass's top level
	pass       int
}

// recorder keeps the traced run's spans and counters in memory. A nil
// *recorder is the untraced run: every method is a no-op behind a nil check,
// so the timed passes of an untraced run call into the layers unwrapped.
type recorder struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	counts map[int]map[string]float64 // per pass
	pass   int
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), counts: map[int]map[string]float64{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span under parent and returns its id (-1 when untraced).
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: t, end: -1, parent: parent, pass: r.pass})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id].end = t
	r.mu.Unlock()
}

// closed records an already finished span, for intervals the benchmark only
// learns about afterwards (a fleet core's simulation).
func (r *recorder) closed(name string, parent int, start, end int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, start: start, end: end, parent: parent, pass: r.pass})
	r.mu.Unlock()
}

// add bumps the current pass's counter name by v.
func (r *recorder) add(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	c := r.counts[r.pass]
	if c == nil {
		c = map[string]float64{}
		r.counts[r.pass] = c
	}
	c[name] += v
	r.mu.Unlock()
}

// startPass opens pass p: later spans and counters belong to it.
func (r *recorder) startPass(p int) {
	r.mu.Lock()
	r.pass = p
	r.mu.Unlock()
}

// wrapWorkload returns a copy of w whose request generator records one
// trace.gen span per generated graph, parented to *parent at call time. It
// delegates to w.RequestInto, so the caller's buffer reuse is kept. The
// fleet runs cores on several goroutines against the same tenants, so the
// benchmark cannot tell which core asked for a graph: those spans hang off
// the enclosing phase span that *parent names.
func (r *recorder) wrapWorkload(w *trace.Workload, parent *atomic.Int64) *trace.Workload {
	if r == nil {
		return w
	}
	wrapped := trace.NewWorkloadReusable(w.Name, w.Model, w.Batch, func(i int, g *trace.Graph) *trace.Graph {
		id := r.begin("trace.gen", int(parent.Load()))
		out, owned := w.RequestInto(i, g)
		if !owned {
			c := *out
			c.Ops = append([]trace.Op(nil), out.Ops...)
			out = &c
		}
		r.end(id)
		return out
	})
	wrapped.Priority = w.Priority
	return wrapped
}

// wrapPairPerf wraps a collocation oracle: every query is a collocate.pair
// span under parent, and the first query of a workload pair counts as a
// simulation (SimPairPerf memoizes repeats by workload identity).
func (r *recorder) wrapPairPerf(perf collocate.PairPerf, parent *atomic.Int64) collocate.PairPerf {
	if r == nil {
		return perf
	}
	var mu sync.Mutex
	seen := map[[2]*trace.Workload]bool{}
	return func(a, b *trace.Workload) (float64, error) {
		key := [2]*trace.Workload{a, b}
		if b.Name < a.Name {
			key = [2]*trace.Workload{b, a}
		}
		mu.Lock()
		miss := !seen[key]
		seen[key] = true
		mu.Unlock()
		name := "collocate.pair_hit"
		if miss {
			name = "collocate.pair_sim"
		}
		id := r.begin(name, int(parent.Load()))
		v, err := perf(a, b)
		r.end(id)
		return v, err
	}
}

// eventCounter is an obs.Tracer that counts a run's events and remembers the
// host time of the last request completion, which ends a core's simulation.
// Reading the clock on completions only keeps the tracer cheap on the
// millions of operator events. One instance serves one simulation engine,
// which is confined to one goroutine, so it needs no lock.
type eventCounter struct {
	r      *recorder
	events int64
	last   int64
}

func (c *eventCounter) Emit(e obs.Event) {
	c.events++
	if e.Type == obs.EvRequestDone {
		c.last = c.r.now()
	}
}

// selfTimes returns, per layer span name, the summed self time in seconds of
// the spans of pass p — each span's duration minus the part of it its child
// spans cover — and the part of the pass interval [from, to] that no
// top-level span covers.
func (r *recorder) selfTimes(p int, from, to int64) (map[string]float64, float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][][2]int64{}
	var top [][2]int64
	for _, s := range r.spans {
		if s.pass != p {
			continue
		}
		iv := [2]int64{s.start, s.end}
		if s.parent < 0 {
			top = append(top, iv)
		} else {
			children[s.parent] = append(children[s.parent], iv)
		}
	}
	self := map[string]float64{}
	for i, s := range r.spans {
		if s.pass != p {
			continue
		}
		d := s.end - s.start - covered(children[i], s.start, s.end)
		self[s.name] += float64(d) / 1e9
	}
	return self, float64(to-from-covered(top, from, to)) / 1e9
}

// covered returns the length of [from, to] that the union of ivs covers.
func covered(ivs [][2]int64, from, to int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, iv := range ivs {
		s, e := max(iv[0], from), min(iv[1], to)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// pipeline is the fleet layer's own time in pass p: each fleet.run span's
// duration minus the wall its core simulations cover. Graph generation for
// profiling stays in it.
func (r *recorder) pipeline(p int) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	cores := map[int][][2]int64{}
	for _, s := range r.spans {
		if s.pass == p && s.name == "fleet.core_sim" {
			cores[s.parent] = append(cores[s.parent], [2]int64{s.start, s.end})
		}
	}
	var ns int64
	for i, s := range r.spans {
		if s.pass == p && s.name == "fleet.run" {
			ns += s.end - s.start - covered(cores[i], s.start, s.end)
		}
	}
	return float64(ns) / 1e9
}

// spanTotal sums the durations, in seconds, of pass p's spans named name.
func (r *recorder) spanTotal(p int, name string) (float64, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ns int64
	n := 0
	for _, s := range r.spans {
		if s.pass == p && s.name == name {
			ns += s.end - s.start
			n++
		}
	}
	return float64(ns) / 1e9, n
}

// writePerfetto writes every span as a Chrome trace-event "complete" event,
// loadable in Perfetto: one process per pass, span ids and parents in args.
func (r *recorder) writePerfetto(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		evs = append(evs, event{
			Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: s.pass, Tid: depth(r.spans, i),
			Args: map[string]int{"id": i, "parent": s.parent, "pass": s.pass},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// depth is a span's nesting level, used as the Perfetto track so concurrent
// siblings at one level may overlap but parents and children never share one.
func depth(spans []span, i int) int {
	d := 0
	for p := spans[i].parent; p >= 0; p = spans[p].parent {
		d++
	}
	return d
}

// addSchedRun counts one V10 core simulation into the sched layer.
func addSchedRun(rec *recorder, res *simmetrics.RunResult, ec *eventCounter) {
	if rec == nil {
		return
	}
	var preempts, switchCycles int64
	for _, w := range res.Workloads {
		preempts += int64(w.Preemptions)
		switchCycles += w.SwitchCycles
	}
	rec.add("sched.runs", 1)
	rec.add("sched.gcycles", float64(res.TotalCycles)/1e9)
	rec.add("sched.events", float64(ec.events))
	rec.add("sched.preemptions", float64(preempts))
	rec.add("sched.switch_mcycles", float64(switchCycles)/1e6)
}

// layerMetrics derives pass p's per-layer metrics from its spans and
// counters; [from, to] is the pass's timed interval.
func (r *recorder) layerMetrics(p int, from, to int64) map[string]float64 {
	r.mu.Lock()
	c := r.counts[p]
	r.mu.Unlock()
	st := func(name string) float64 { s, _ := r.spanTotal(p, name); return s }
	n := func(name string) float64 { _, k := r.spanTotal(p, name); return float64(k) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	schedS := st("sched.run") + st("fleet.core_sim")
	queries := n("collocate.pair_sim") + n("collocate.pair_hit")
	m := map[string]float64{
		"trace.graphs": n("trace.gen"),
		"trace.gen_s":  st("trace.gen"),

		"sched.runs":             c["sched.runs"],
		"sched.run_s":            schedS,
		"sched.gcycles":          c["sched.gcycles"],
		"sched.gcycles_per_s":    ratio(c["sched.gcycles"], schedS),
		"sched.events":           c["sched.events"],
		"sched.preemptions":      c["sched.preemptions"],
		"sched.switch_mcycles":   c["sched.switch_mcycles"],
		"baseline.runs":          c["baseline.runs"],
		"baseline.run_s":         st("baseline.single") + st("baseline.pmt"),
		"baseline.gcycles_per_s": ratio(c["baseline.pmt_gcycles"], st("baseline.pmt")),

		"collocate.features_s":     st("collocate.features"),
		"collocate.train_s":        st("collocate.train"),
		"collocate.pair_queries":   queries,
		"collocate.pair_sims":      n("collocate.pair_sim"),
		"collocate.pair_hit_ratio": ratio(n("collocate.pair_hit"), queries),
		"collocate.pair_sim_s":     st("collocate.pair_sim"),

		"workload.schedule_s": st("workload.schedule"),
		"workload.arrivals":   c["workload.arrivals"],

		"fleet.runs":        n("fleet.run"),
		"fleet.run_s":       st("fleet.run"),
		"fleet.core_sim_s":  st("fleet.core_sim"),
		"fleet.pipeline_s":  r.pipeline(p),
		"fleet.profile_s":   st("fleet.profile"),
		"fleet.offered":     c["fleet.offered"],
		"fleet.completed":   c["fleet.completed"],
		"fleet.shed":        c["fleet.shed"],
		"fleet.spilled":     c["fleet.spilled"],
		"fleet.core_events": c["fleet.core_events"],

		"tune.candidates":      c["tune.candidates"],
		"tune.evals":           c["tune.evals"],
		"tune.cache_hit_ratio": ratio(c["tune.candidates"]-c["tune.evals"], c["tune.candidates"]),
		"tune.verify_s":        st("tune.verify"),
	}
	for _, cell := range []string{"fleet", "faults", "workload", "elastic"} {
		m["tune.cell_"+cell+"_s"] = st("tune.cell_" + cell)
	}
	return m
}

// layerFunc runs fn as one traced probe pass and returns its per-layer
// metrics.
type layerFunc func(fn func() error) (map[string]float64, error)

// probeReps is how many times a probe repeats its measurement; it reports
// the median.
const probeReps = 5

// probeMedian runs fn reps times through layers and returns, for each of the
// named metrics, the median over the repetitions.
func probeMedian(reps int, names []string, layers layerFunc, fn func() error) (map[string]float64, error) {
	vals := map[string][]float64{}
	for i := 0; i < reps; i++ {
		m, err := layers(fn)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			vals[name] = append(vals[name], m[name])
		}
	}
	out := map[string]float64{}
	for name, xs := range vals {
		out[name] = median(xs)
	}
	return out, nil
}
