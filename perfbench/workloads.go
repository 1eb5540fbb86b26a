package main

import (
	"context"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sync/atomic"

	"v10/internal/baseline"
	"v10/internal/collocate"
	"v10/internal/experiments"
	"v10/internal/fleet"
	"v10/internal/mathx"
	simmetrics "v10/internal/metrics"
	"v10/internal/models"
	"v10/internal/npu"
	"v10/internal/obs"
	"v10/internal/parallel"
	"v10/internal/sched"
	"v10/internal/trace"
	"v10/internal/tune"
	"v10/internal/workload"
)

// env is what one pass of a workload is built from.
type env struct {
	seed uint64
	rec  *recorder // nil on untraced passes
}

// outcome is what one pass simulated: the sim_* metrics it defines, a digest
// of its simulated outputs, and how many simulated operations it attempted
// (requests or evaluations).
type outcome struct {
	sim       map[string]float64
	digest    uint64
	attempted int
}

// workloadDef is one benchmark workload. prepare builds a pass's inputs from
// the seed (timed as set-up) and returns the timed work; the work returns an
// error when a correctness check fails.
type workloadDef struct {
	name    string
	prepare func(e env) (func() (outcome, error), error)
	// probe, when set, measures per-layer metrics the timed pass cannot
	// expose from outside the program; it runs once per traced run, after
	// the timed passes.
	probe func(e env, layers layerFunc) (map[string]float64, error)
}

var workloads = []workloadDef{
	{name: "paper-pairs", prepare: preparePairs},
	{name: "fleet-advisor", prepare: prepareFleet, probe: probeFleet},
	{name: "tune-generation", prepare: prepareTune, probe: probeTune},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// newDigest and the put helpers fold simulated outputs into a 64-bit FNV-1a
// digest; two passes on the same inputs must agree bit for bit.
func newDigest() hash.Hash64 { return fnv.New64a() }

func putInt(h hash.Hash64, v int64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	h.Write(b[:])
}

func putFloat(h hash.Hash64, v float64) { putInt(h, int64(math.Float64bits(v))) }

// modelSeed derives a model instance's jitter seed from the workload seed,
// the same way the experiments context does.
func modelSeed(seed uint64, abbrev string, batch int) uint64 {
	s := seed + uint64(batch)*977
	for _, ch := range abbrev {
		s = s*131 + uint64(ch)
	}
	return s
}

func modelWorkload(abbrev string, batch int, seed uint64, cfg npu.CoreConfig) (*trace.Workload, error) {
	spec, ok := models.ByName(abbrev)
	if !ok {
		return nil, fmt.Errorf("unknown model %q", abbrev)
	}
	if batch == 0 {
		batch = spec.RefBatch
	}
	return spec.Workload(batch, modelSeed(seed, abbrev, batch), cfg), nil
}

// deploySeed seeds what a workload treats as the system under test rather
// than its input: the fleet's tenant instances and advisor training, and the
// tune corpus (v10tune's default corpus). Holding them fixed makes every
// --seed do the same training and corpus work; --seed draws the inputs —
// request jitter on paper-pairs, the traffic on fleet-advisor, the search's
// candidates on tune-generation.
const deploySeed = 1

// ---- paper-pairs ----------------------------------------------------------

// pairRequests is the closed-loop request count per workload of every run.
const pairRequests = 48

// Paper headline values (abstract): V10-Full over PMT.
var paperRef = map[string]float64{
	"sim_util_x_pmt":    1.64,
	"sim_stp_x_pmt":     1.57,
	"sim_avg_lat_x_pmt": 1.56,
	"sim_p95_lat_x_pmt": 1.74,
}

type pairResult struct {
	util, stp float64
	avg, p95  [2]float64
	requests  int
	digest    uint64
}

func preparePairs(e env) (func() (outcome, error), error) {
	cfg := npu.DefaultConfig()
	byName := map[string]*trace.Workload{}
	pairs := make([][2]*trace.Workload, len(experiments.EvalPairs))
	for i, p := range experiments.EvalPairs {
		for j, abbrev := range p {
			if byName[abbrev] == nil {
				w, err := modelWorkload(abbrev, 0, e.seed, cfg)
				if err != nil {
					return nil, err
				}
				byName[abbrev] = w
			}
			pairs[i][j] = byName[abbrev]
		}
	}
	return func() (outcome, error) {
		res, err := parallel.Map(context.Background(), len(pairs), workers, func(i int) (pairResult, error) {
			return runPair(pairs[i], cfg, e)
		})
		if err != nil {
			return outcome{}, err
		}
		var utils, stps, avgs, p95s []float64
		h := newDigest()
		out := outcome{}
		for _, r := range res {
			utils = append(utils, r.util)
			stps = append(stps, r.stp)
			avgs = append(avgs, r.avg[:]...)
			p95s = append(p95s, r.p95[:]...)
			putInt(h, int64(r.digest))
			out.attempted += r.requests
		}
		out.sim = map[string]float64{
			"sim_util_x_pmt":    mathx.GeoMean(utils),
			"sim_stp_x_pmt":     mathx.GeoMean(stps),
			"sim_avg_lat_x_pmt": mathx.GeoMean(avgs),
			"sim_p95_lat_x_pmt": mathx.GeoMean(p95s),
		}
		out.digest = h.Sum64()
		return out, checkPairs(out.sim)
	}, nil
}

// checkPairs requires every headline ratio to be finite and positive.
func checkPairs(sim map[string]float64) error {
	for name := range paperRef {
		v, ok := sim[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("paper-pairs: %s = %v, want finite and > 0", name, v)
		}
	}
	return nil
}

// runPair runs one evaluation pair the way the paper compares it: single-
// tenant rates, PMT, V10-Base and V10-Full, each to pairRequests requests.
func runPair(p [2]*trace.Workload, cfg npu.CoreConfig, e env) (pairResult, error) {
	rec := e.rec
	label := p[0].Name + "+" + p[1].Name
	// wrap gives each layer call its own trace wrappers, parented to the call.
	wrap := func(name string) ([]*trace.Workload, int) {
		id := rec.begin(name, -1)
		var hold atomic.Int64
		hold.Store(int64(id))
		return []*trace.Workload{rec.wrapWorkload(p[0], &hold), rec.wrapWorkload(p[1], &hold)}, id
	}

	ws, id := wrap("baseline.single")
	rates, err := baseline.SingleTenantRates(ws, cfg, pairRequests)
	rec.end(id)
	if err != nil {
		return pairResult{}, fmt.Errorf("%s singles: %w", label, err)
	}
	rec.add("baseline.runs", 2)

	ws, id = wrap("baseline.pmt")
	pmt, err := baseline.RunPMT(ws, baseline.PMTOptions{Config: cfg, RequestsPerWorkload: pairRequests, Seed: e.seed})
	rec.end(id)
	if err != nil {
		return pairResult{}, fmt.Errorf("%s PMT: %w", label, err)
	}
	rec.add("baseline.runs", 1)
	rec.add("baseline.pmt_gcycles", float64(pmt.TotalCycles)/1e9)

	runs := []*simmetrics.RunResult{pmt}
	for _, opts := range []sched.Options{sched.BaseOptions(), sched.FullOptions()} {
		opts.Config = cfg
		opts.RequestsPerWorkload = pairRequests
		var ec *eventCounter
		if rec != nil {
			ec = &eventCounter{r: rec}
			opts.Tracer = ec
		}
		ws, id = wrap("sched.run")
		res, err := sched.Run(ws, opts)
		rec.end(id)
		if err != nil {
			return pairResult{}, fmt.Errorf("%s %s: %w", label, opts.Policy, err)
		}
		addSchedRun(rec, res, ec)
		runs = append(runs, res)
	}
	full := runs[2]

	r := pairResult{
		util: full.AggregateUtil() / pmt.AggregateUtil(),
		stp:  full.STP(rates) / pmt.STP(rates),
	}
	h := newDigest()
	for _, rate := range rates {
		putFloat(h, rate)
	}
	for _, run := range runs {
		putInt(h, run.TotalCycles)
		for w, st := range run.Workloads {
			if st.Requests < pairRequests {
				return pairResult{}, fmt.Errorf("%s %s: workload %d completed %d of %d requests",
					label, run.Scheme, w, st.Requests, pairRequests)
			}
			r.requests += st.Requests
			putInt(h, int64(st.Requests))
			putInt(h, int64(st.Preemptions))
			putInt(h, st.SwitchCycles)
			for _, l := range st.LatencyCycles {
				putFloat(h, l)
			}
		}
	}
	for w := 0; w < 2; w++ {
		r.avg[w] = pmt.Workloads[w].AvgLatency() / full.Workloads[w].AvgLatency()
		r.p95[w] = pmt.Workloads[w].TailLatency(95) / full.Workloads[w].TailLatency(95)
	}
	r.digest = h.Sum64()
	return r, nil
}

// ---- fleet-advisor --------------------------------------------------------

// serveMix is the v10serve default model mix; fleet-advisor instantiates it
// twice at batch 8.
var serveMix = []string{"BERT", "NCF", "TFMR", "DLRM", "RsNt", "MNST", "SMask", "ENet"}

const (
	fleetTenants  = 16
	fleetCores    = 8
	fleetBatch    = 8
	fleetRateHz   = 120
	fleetDuration = 2_000_000_000
	// Advisor training as v10serve runs it.
	advisorK           = 4
	advisorPairSamples = 8
	advisorProfileReqs = 3
)

// buildTenants instantiates n tenants cycling through mix at batch, each with
// its own jitter seed and a unique #i-suffixed name (SimPairPerf rejects
// distinct workloads sharing a name).
func buildTenants(mix []string, n, batch int, seed uint64, cfg npu.CoreConfig) ([]*trace.Workload, error) {
	out := make([]*trace.Workload, n)
	for i := range out {
		w, err := modelWorkload(mix[i%len(mix)], batch, seed+uint64(i)*0x9e37, cfg)
		if err != nil {
			return nil, err
		}
		t := *w
		t.Name = fmt.Sprintf("%s#%d", w.Name, i)
		out[i] = &t
	}
	return out, nil
}

// poissonArrivals draws every tenant's open-loop Poisson schedule.
func poissonArrivals(e env, tenants int, rateHz float64, horizon int64, cfg npu.CoreConfig) ([][]int64, error) {
	specs := make([]workload.Spec, tenants)
	for i := range specs {
		specs[i] = workload.Spec{Process: workload.Poisson, RateHz: rateHz}
	}
	id := e.rec.begin("workload.schedule", -1)
	arr, err := workload.Engine{Config: cfg, HorizonCycles: horizon, Seed: e.seed}.Schedules(specs)
	e.rec.end(id)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, a := range arr {
		n += len(a)
	}
	e.rec.add("workload.arrivals", float64(n))
	return arr, nil
}

func prepareFleet(e env) (func() (outcome, error), error) {
	cfg := npu.DefaultConfig()
	tenants, err := buildTenants(serveMix, fleetTenants, fleetBatch, deploySeed, cfg)
	if err != nil {
		return nil, err
	}
	arrivals, err := poissonArrivals(e, fleetTenants, fleetRateHz, fleetDuration, cfg)
	if err != nil {
		return nil, err
	}
	return func() (outcome, error) {
		res, err := advisorFleet(e, tenants, cfg, fleet.Options{
			Cores:          fleetCores,
			Arrivals:       arrivals,
			DurationCycles: fleetDuration,
		})
		if err != nil {
			return outcome{}, err
		}
		out := outcome{attempted: res.Offered, digest: fleetDigest(res)}
		good := make([]float64, len(res.Tenants))
		for i, ts := range res.Tenants {
			good[i] = float64(ts.Good) / float64(max(ts.Offered, 1))
		}
		var lat []float64
		for _, c := range res.Cores {
			if c.Run != nil {
				for _, w := range c.Run.Workloads {
					lat = append(lat, w.LatencyCycles...)
				}
			}
		}
		out.sim = map[string]float64{
			"sim_goodput_hz": res.GoodputHz,
			"sim_p99_ms":     mathx.Percentile(lat, 99) / (cfg.CyclesPerMicrosecond() * 1e3),
			"sim_shed_rate":  res.ShedRate,
			"sim_jain":       jain(good),
		}
		return out, checkFleet(res)
	}, nil
}

// advisorFleet trains the collocation advisor on the tenants, as v10serve
// does, then serves them on V10-Full cores under advisor placement. base
// supplies the fleet shape and traffic.
func advisorFleet(e env, tenants []*trace.Workload, cfg npu.CoreConfig, base fleet.Options) (*fleet.Result, error) {
	rec := e.rec
	var phase atomic.Int64
	ws := make([]*trace.Workload, len(tenants))
	for i, w := range tenants {
		ws[i] = rec.wrapWorkload(w, &phase)
	}

	id := rec.begin("collocate.features", -1)
	phase.Store(int64(id))
	feats := make([]collocate.Features, len(ws))
	for i, w := range ws {
		feats[i] = collocate.ExtractFeatures(w, cfg, advisorProfileReqs)
	}
	rec.end(id)

	id = rec.begin("collocate.train", -1)
	phase.Store(int64(id))
	perf := rec.wrapPairPerf(collocate.SimPairPerf(cfg, advisorProfileReqs), &phase)
	model, err := collocate.Train(ws, feats, perf, collocate.TrainConfig{
		K: advisorK, PairSamples: advisorPairSamples, Seed: deploySeed, Parallel: workers,
	})
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("training advisor: %w", err)
	}

	o := base
	o.Config = cfg
	o.Scheme = "V10-Full"
	o.Policy = fleet.PolicyAdvisor
	o.Model = model
	o.ProfileRequests = advisorProfileReqs
	o.Seed = e.seed
	o.Parallel = workers
	id = rec.begin("fleet.run", -1)
	phase.Store(int64(id))
	var counters []*eventCounter
	var starts []int64
	if rec != nil {
		counters = make([]*eventCounter, o.Cores)
		starts = make([]int64, o.Cores)
		o.CoreTracer = func(c int, _ []int) obs.Tracer {
			starts[c] = rec.now()
			counters[c] = &eventCounter{r: rec}
			return counters[c]
		}
	}
	res, err := fleet.Run(ws, o)
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("fleet run: %w", err)
	}
	if rec != nil {
		for c, ec := range counters {
			if ec == nil {
				continue
			}
			rec.closed("fleet.core_sim", id, starts[c], max(ec.last, starts[c]))
			rec.add("fleet.core_events", float64(ec.events))
			if run := res.Cores[c].Run; run != nil {
				addSchedRun(rec, run, ec)
			}
		}
		spilled := 0
		for _, ts := range res.Tenants {
			spilled += ts.Spilled
		}
		rec.add("fleet.offered", float64(res.Offered))
		rec.add("fleet.completed", float64(res.Completed))
		rec.add("fleet.shed", float64(res.Shed))
		rec.add("fleet.spilled", float64(spilled))
	}
	return res, nil
}

// checkFleet enforces request conservation and goodput sanity, fleet-wide
// and per tenant.
func checkFleet(res *fleet.Result) error {
	type tally struct {
		name                                     string
		offered, admitted, shed, completed, good int
	}
	rows := []tally{{"fleet", res.Offered, res.Admitted, res.Shed, res.Completed, res.Good}}
	for _, ts := range res.Tenants {
		rows = append(rows, tally{ts.Name, ts.Offered, ts.Admitted, ts.Shed, ts.Completed, ts.Good})
	}
	var errs []error
	for _, r := range rows {
		if r.offered != r.admitted+r.shed {
			errs = append(errs, fmt.Errorf("%s: offered %d != admitted %d + shed %d", r.name, r.offered, r.admitted, r.shed))
		}
		if r.good > r.completed || r.completed > r.admitted {
			errs = append(errs, fmt.Errorf("%s: want good %d <= completed %d <= admitted %d", r.name, r.good, r.completed, r.admitted))
		}
	}
	if !(res.GoodputHz > 0) {
		errs = append(errs, fmt.Errorf("fleet: goodput %v, want > 0", res.GoodputHz))
	}
	return errors.Join(errs...)
}

func fleetDigest(res *fleet.Result) uint64 {
	h := newDigest()
	for _, v := range []int{res.Offered, res.Admitted, res.Shed, res.Completed, res.Good} {
		putInt(h, int64(v))
	}
	putInt(h, res.TotalCycles)
	for _, home := range res.Placement {
		putInt(h, int64(len(home)))
		for _, t := range home {
			putInt(h, int64(t))
		}
	}
	for _, ts := range res.Tenants {
		for _, v := range []int{ts.Offered, ts.Admitted, ts.Spilled, ts.Shed, ts.Completed, ts.Good} {
			putInt(h, int64(v))
		}
		putFloat(h, ts.AvgLatencyCycles)
		putFloat(h, ts.P99LatencyCycles)
	}
	return h.Sum64()
}

// jain is Jain's fairness index over xs.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// probeFleet times the per-run tenant profiling fleet.Run does before
// placement (one EstimateServeCycles + ExtractFeatures pass over the tenants),
// which takes too small a share of a fleet-advisor pass to split out of it.
func probeFleet(e env, layers layerFunc) (map[string]float64, error) {
	cfg := npu.DefaultConfig()
	tenants, err := buildTenants(serveMix, fleetTenants, fleetBatch, deploySeed, cfg)
	if err != nil {
		return nil, err
	}
	return probeMedian(probeReps, []string{"fleet.profile_s"}, layers, func() error {
		profileTenants(e.rec, tenants, cfg)
		return nil
	})
}

// profileTenants repeats, from outside, the profiling pass fleet.Run makes
// over its tenants.
func profileTenants(rec *recorder, tenants []*trace.Workload, cfg npu.CoreConfig) {
	id := rec.begin("fleet.profile", -1)
	for _, w := range tenants {
		fleet.EstimateServeCycles(w, cfg, advisorProfileReqs)
		collocate.ExtractFeatures(w, cfg, advisorProfileReqs)
	}
	rec.end(id)
}

// ---- tune-generation ------------------------------------------------------

const (
	tuneGenerations = 1
	tunePopulation  = 16
	// tuneCandidates is how many knob vectors one search presents for
	// evaluation: the initial population plus a population per generation.
	tuneCandidates = tunePopulation * (tuneGenerations + 1)
)

func prepareTune(e env) (func() (outcome, error), error) {
	rec := e.rec
	id := rec.begin("tune.corpus", -1)
	corpus, err := tune.DefaultCorpus(deploySeed, workers)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	return func() (outcome, error) {
		id := rec.begin("tune.search", -1)
		res, err := tune.Search(tune.Options{
			Seed: e.seed, Parallel: workers, Generations: tuneGenerations,
			Population: tunePopulation, Corpus: corpus,
		})
		rec.end(id)
		if err != nil {
			return outcome{}, err
		}
		id = rec.begin("tune.verify", -1)
		verr := tune.Verify(res, corpus, workers)
		rec.end(id)
		rec.add("tune.candidates", tuneCandidates)
		rec.add("tune.evals", float64(res.Evaluations))
		out := outcome{
			sim:       map[string]float64{"sim_best_goodput_x": res.Best.Objectives.Goodput},
			digest:    tuneDigest(res),
			attempted: res.Evaluations,
		}
		return out, checkTune(res, verr)
	}, nil
}

func checkTune(res *tune.Result, verr error) error {
	if verr != nil {
		return fmt.Errorf("tune-generation: %w", verr)
	}
	if res.Evaluations > tuneCandidates {
		return fmt.Errorf("tune-generation: %d evaluations exceed %d candidates", res.Evaluations, tuneCandidates)
	}
	if g := res.Best.Objectives.Goodput; !(g > 0) || math.IsInf(g, 0) {
		return fmt.Errorf("tune-generation: best goodput ratio %v, want finite and > 0", g)
	}
	return nil
}

func tuneDigest(res *tune.Result) uint64 {
	h := newDigest()
	putInt(h, int64(res.Evaluations))
	h.Write([]byte(fmt.Sprintf("%+v", res.Best.Knobs)))
	for _, p := range append([]tune.Point{res.Baseline, res.Best}, res.Front...) {
		putFloat(h, p.Objectives.Goodput)
		putFloat(h, p.Objectives.P99)
		putFloat(h, p.Objectives.Fairness)
	}
	return h.Sum64()
}

// Shape of the corpus's headline fleet cell. The corpus builds its fleet
// runs inside the tune package, out of the benchmark's reach, so probeTune
// replays this shape with the benchmark's own tenants to split the fleet
// layer as the tuner exercises it: a short 4-core advisor run, repeated
// ~135 times per generation.
const (
	cellCores    = 4
	cellRateHz   = 220
	cellDuration = 24_000_000
	cellSLO      = 4
)

// tuneProbeOwns lists the per-layer metrics the tune-generation probe
// supplies: everything below the tune layer.
var tuneProbeOwns = []string{
	"trace.graphs", "trace.gen_s",
	"sched.runs", "sched.run_s", "sched.gcycles", "sched.gcycles_per_s", "sched.events",
	"sched.preemptions", "sched.switch_mcycles",
	"collocate.features_s", "collocate.train_s", "collocate.pair_queries", "collocate.pair_sims",
	"collocate.pair_hit_ratio", "collocate.pair_sim_s",
	"workload.schedule_s", "workload.arrivals",
	"fleet.runs", "fleet.run_s", "fleet.core_sim_s", "fleet.pipeline_s", "fleet.offered",
	"fleet.completed", "fleet.shed", "fleet.spilled", "fleet.core_events", "fleet.profile_s",
}

// probeTune times one Scenario.Run per corpus cell at default knobs, then
// replays the fleet cell's shape (advisor training, arrivals, fleet run) with
// traced tenants and core tracers.
func probeTune(e env, layers layerFunc) (map[string]float64, error) {
	corpus, err := tune.DefaultCorpus(deploySeed, workers)
	if err != nil {
		return nil, err
	}
	var cellNames []string
	for _, sc := range corpus {
		cellNames = append(cellNames, "tune.cell_"+sc.Name+"_s")
	}
	m, err := probeMedian(probeReps, cellNames, layers, func() error {
		for _, sc := range corpus {
			id := e.rec.begin("tune.cell_"+sc.Name, -1)
			_, err := sc.Run(tune.DefaultKnobs(), workers)
			e.rec.end(id)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	cfg := npu.DefaultConfig()
	tenants, err := buildTenants(serveMix, len(serveMix), fleetBatch, deploySeed, cfg)
	if err != nil {
		return nil, err
	}
	cell, err := probeMedian(probeReps, tuneProbeOwns, layers, func() error {
		arrivals, err := poissonArrivals(e, len(tenants), cellRateHz, cellDuration, cfg)
		if err != nil {
			return err
		}
		_, err = advisorFleet(e, tenants, cfg, fleet.Options{
			Cores: cellCores, Arrivals: arrivals, DurationCycles: cellDuration, SLOFactor: cellSLO,
		})
		profileTenants(e.rec, tenants, cfg)
		return err
	})
	for k, v := range cell {
		m[k] = v
	}
	return m, err
}
