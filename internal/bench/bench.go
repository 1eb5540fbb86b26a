// Package bench defines the committed performance-benchmark suite behind
// `v10bench -perf` and the BENCH_sim.json / BENCH_fleet.json regression
// trajectory. The scenarios are fixed — same models, seeds, and options every
// run — so cycles-simulated-per-second is comparable across commits, and the
// CI gate fails any change that regresses a committed snapshot by more than
// Tolerance.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"v10/internal/fleet"
	"v10/internal/models"
	"v10/internal/npu"
	"v10/internal/sched"
	"v10/internal/trace"
)

// Tolerance is the allowed fractional throughput regression versus a
// committed snapshot before Check fails (the CI gate).
const Tolerance = 0.15

// Result is one scenario's measured throughput.
type Result struct {
	Name   string `json:"name"`
	Cycles int64  `json:"cycles_simulated"`
	WallNS int64  `json:"wall_ns"`
	// CyclesPerSec is the headline metric: simulated cycles per wall second.
	CyclesPerSec float64 `json:"cycles_per_sec"`
	// RequestsPerSec is completed requests per wall second (fleet suite).
	RequestsPerSec float64 `json:"requests_per_sec,omitempty"`
	// BaselineCyclesPerSec is the pre-overhaul throughput recorded when the
	// scenario was introduced; SpeedupX = CyclesPerSec / baseline. Carried
	// forward verbatim in snapshots so the trajectory stays visible.
	BaselineCyclesPerSec float64 `json:"baseline_cycles_per_sec,omitempty"`
	SpeedupX             float64 `json:"speedup_x,omitempty"`
}

// Snapshot is a committed BENCH_*.json file.
type Snapshot struct {
	Suite               string   `json:"suite"`
	GoMaxProcs          int      `json:"gomaxprocs"`
	Scenarios           []Result `json:"scenarios"`
	GeomeanCyclesPerSec float64  `json:"geomean_cycles_per_sec"`
	GeomeanSpeedupX     float64  `json:"geomean_speedup_x,omitempty"`
	// CalibPerSec is the host's throughput on a fixed CPU-bound calibration
	// loop, measured alongside the suite. Check uses the committed-vs-current
	// calibration ratio to normalize absolute throughputs, so the regression
	// gate compares simulator efficiency rather than machine speed and stays
	// meaningful on CI runners unlike the box that wrote the snapshot.
	CalibPerSec float64 `json:"calib_per_sec,omitempty"`
}

// scenario is one fixed benchmark case: Run simulates it once and reports the
// work done.
type scenario struct {
	name string
	run  func() (cycles int64, requests int, err error)
}

func workload(tb string, batch int, seed uint64, cfg npu.CoreConfig) *trace.Workload {
	s, ok := models.ByName(tb)
	if !ok {
		panic("bench: unknown model " + tb)
	}
	return s.Workload(batch, seed, cfg)
}

func pair(cfg npu.CoreConfig) []*trace.Workload {
	return []*trace.Workload{
		workload("BERT", 32, 1, cfg),
		workload("DLRM", 32, 2, cfg),
	}
}

func simRun(ws []*trace.Workload, opts sched.Options) (int64, int, error) {
	res, err := sched.Run(ws, opts)
	if err != nil {
		return 0, 0, err
	}
	reqs := 0
	for _, w := range res.Workloads {
		reqs += w.Requests
	}
	return res.TotalCycles, reqs, nil
}

// simScenarios is the single-core scheduler suite. Each case stresses a
// different hot path: steady-state priority scheduling, round-robin, wide
// collocation, contention-free fluid progress, preemption churn, and
// open-loop idle gaps (where the fluid-skip fast-forward matters).
func simScenarios() []scenario {
	cfg := npu.DefaultConfig()
	return []scenario{
		{"pair-full", func() (int64, int, error) {
			opts := sched.FullOptions()
			opts.RequestsPerWorkload = 12
			return simRun(pair(cfg), opts)
		}},
		{"pair-base", func() (int64, int, error) {
			opts := sched.BaseOptions()
			opts.RequestsPerWorkload = 12
			return simRun(pair(cfg), opts)
		}},
		{"quad-full", func() (int64, int, error) {
			opts := sched.FullOptions()
			opts.RequestsPerWorkload = 6
			ws := []*trace.Workload{
				workload("BERT", 16, 1, cfg),
				workload("DLRM", 16, 2, cfg),
				workload("NCF", 16, 3, cfg),
				workload("Transformer", 16, 4, cfg),
			}
			return simRun(ws, opts)
		}},
		{"pair-nohbm", func() (int64, int, error) {
			opts := sched.FullOptions()
			opts.RequestsPerWorkload = 12
			opts.DisableFluidHBM = true
			return simRun(pair(cfg), opts)
		}},
		{"preempt-heavy", func() (int64, int, error) {
			opts := sched.FullOptions()
			opts.RequestsPerWorkload = 6
			opts.Config = cfg
			opts.Config.TimeSlice = 512
			return simRun(pair(opts.Config), opts)
		}},
		{"open-loop", func() (int64, int, error) {
			opts := sched.FullOptions()
			opts.RequestsPerWorkload = 8
			opts.ArrivalRateHz = 20
			return simRun(pair(cfg), opts)
		}},
	}
}

// fleetScenarios is the multi-core serving suite (requests/sec headline).
func fleetScenarios() []scenario {
	cfg := npu.DefaultConfig()
	names := []string{"BERT", "DLRM", "NCF", "Transformer", "ResNet", "RetinaNet", "MNIST", "EfficientNet"}
	tenantSet := func(n, batch int) []*trace.Workload {
		ws := make([]*trace.Workload, n)
		for i := 0; i < n; i++ {
			ws[i] = workload(names[i%len(names)], batch, uint64(i+1), cfg)
		}
		return ws
	}
	fleetRun := func(o fleet.Options, tenants []*trace.Workload) (int64, int, error) {
		res, err := fleet.Run(tenants, o)
		if err != nil {
			return 0, 0, err
		}
		// Sum per-core simulated cycles: that is the work the engine did.
		var cycles int64
		for _, cr := range res.Cores {
			if cr.Run != nil {
				cycles += cr.Run.TotalCycles
			}
		}
		return cycles, res.Completed, nil
	}
	return []scenario{
		{"fleet-8c16t", func() (int64, int, error) {
			o := fleet.Options{Cores: 8, Seed: 1, RateHz: 45, DurationCycles: 30e6}
			return fleetRun(o, tenantSet(16, 16))
		}},
		{"fleet-serial-4c8t", func() (int64, int, error) {
			o := fleet.Options{Cores: 4, Seed: 2, RateHz: 45, DurationCycles: 30e6, Parallel: 1}
			return fleetRun(o, tenantSet(8, 16))
		}},
	}
}

// runSuite measures every scenario reps times and keeps each one's best
// (highest-throughput) repetition, the standard way to suppress scheduler
// noise on shared CI machines.
func runSuite(scs []scenario, reps int) ([]Result, error) {
	if reps < 1 {
		reps = 1
	}
	out := make([]Result, 0, len(scs))
	for _, sc := range scs {
		best := Result{Name: sc.name}
		for r := 0; r < reps; r++ {
			start := time.Now()
			cycles, reqs, err := sc.run()
			wall := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("bench %s: %w", sc.name, err)
			}
			cps := float64(cycles) / wall.Seconds()
			if cps > best.CyclesPerSec {
				best.Cycles = cycles
				best.WallNS = wall.Nanoseconds()
				best.CyclesPerSec = cps
				best.RequestsPerSec = float64(reqs) / wall.Seconds()
			}
		}
		out = append(out, best)
	}
	return out, nil
}

// RunSim runs the single-core suite.
func RunSim(reps int) (*Snapshot, error) {
	rs, err := runSuite(simScenarios(), reps)
	if err != nil {
		return nil, err
	}
	return newSnapshot("sim", rs), nil
}

// RunFleet runs the multi-core serving suite.
func RunFleet(reps int) (*Snapshot, error) {
	rs, err := runSuite(fleetScenarios(), reps)
	if err != nil {
		return nil, err
	}
	return newSnapshot("fleet", rs), nil
}

func newSnapshot(suite string, rs []Result) *Snapshot {
	return &Snapshot{
		Suite:               suite,
		GoMaxProcs:          runtime.GOMAXPROCS(0),
		Scenarios:           rs,
		GeomeanCyclesPerSec: geomean(rs, func(r Result) float64 { return r.CyclesPerSec }),
		CalibPerSec:         Calibrate(),
	}
}

// calibIters is sized so one calibration pass takes a few milliseconds on a
// current core — long enough to measure, short enough to repeat.
const calibIters = 2_000_000

// calibMemWords sizes the calibration walk's buffer (16 MB of int64) well past
// L2 so the pass is bound by the cache/memory subsystem, like the simulator's
// own event-heap and graph-buffer traffic. A compute-only reference stays fast
// when a noisy neighbor saturates shared cache or memory bandwidth — observed
// as the suite dropping ~45% while a pure ALU loop lost 5% — and would let the
// gate flag phantom regressions; the memory-bound pass dips with the suite.
const calibMemWords = 2 << 20

var calibOnce struct {
	done bool
	val  float64
}

// Calibrate measures the host's throughput (iterations/sec, best of 5) on a
// fixed reference load: integer hashing mixed with the transcendental float
// math that dominates the simulator's compute profile, plus a dependent
// pseudo-random walk over a buffer far larger than cache to expose memory
// pressure. This gives Check a machine-speed reference that slows the way the
// suite does — both across hosts and across contention phases on one host.
// The result is cached for the process lifetime.
func Calibrate() float64 {
	if calibOnce.done {
		return calibOnce.val
	}
	mem := make([]int64, calibMemWords)
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		f := 1.0
		for i := 0; i < calibIters; i++ {
			x ^= x >> 27
			x *= 0x2545f4914f6cdd1d
			if i&7 == 0 {
				f += math.Sqrt(math.Log(2 + f*1e-9))
			}
		}
		// Dependent walk: each index derives from the loaded value, so the
		// loads serialize and run at memory latency, not issue width.
		idx := uint64(0)
		for i := 0; i < calibIters; i++ {
			v := mem[idx&(calibMemWords-1)]
			mem[idx&(calibMemWords-1)] = v + 1
			idx = uint64(v)*0x9e3779b97f4a7c15 + idx + 0x2545f4914f6cdd1d
		}
		wall := time.Since(start).Seconds()
		// Consume the results so the loops cannot be optimized away.
		if x == 0 || f < 0 || idx == 1 {
			panic("bench: calibration underflow")
		}
		if v := calibIters / wall; v > best {
			best = v
		}
	}
	calibOnce.done = true
	calibOnce.val = best
	return best
}

func geomean(rs []Result, f func(Result) float64) float64 {
	if len(rs) == 0 {
		return 0
	}
	sum := 0.0
	n := 0
	for _, r := range rs {
		v := f(r)
		if v <= 0 {
			continue
		}
		sum += math.Log(v)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// AttachBaseline copies the per-scenario baseline throughputs from a prior
// snapshot (by name) into s and recomputes the speedups. Used when writing a
// new snapshot so the pre-overhaul numbers stay committed alongside.
func (s *Snapshot) AttachBaseline(base *Snapshot) {
	if base == nil {
		return
	}
	byName := make(map[string]Result, len(base.Scenarios))
	for _, r := range base.Scenarios {
		byName[r.Name] = r
	}
	for i := range s.Scenarios {
		b, ok := byName[s.Scenarios[i].Name]
		if !ok {
			continue
		}
		// The prior snapshot's own baseline, if any, wins: the trajectory is
		// always measured against the original pre-overhaul numbers.
		bl := b.CyclesPerSec
		if b.BaselineCyclesPerSec > 0 {
			bl = b.BaselineCyclesPerSec
		}
		s.Scenarios[i].BaselineCyclesPerSec = bl
		if bl > 0 {
			s.Scenarios[i].SpeedupX = s.Scenarios[i].CyclesPerSec / bl
		}
	}
	s.GeomeanSpeedupX = geomean(s.Scenarios, func(r Result) float64 { return r.SpeedupX })
}

// Load reads a committed snapshot file.
func Load(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &s, nil
}

// Write serializes the snapshot to path.
func (s *Snapshot) Write(path string) error {
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// Check compares a fresh run against a committed snapshot and returns one
// error per committed scenario that is missing from the run, simulated a
// different number of cycles (the throughputs would not compare equal work),
// or regressed by more than Tolerance. A scenario only the run has passes:
// adding a scenario must not break the gate before its snapshot lands.
//
// When both snapshots carry a calibration measurement, the current throughputs
// are first scaled by committed/current calibration so the floor compares
// simulator efficiency, not raw machine speed: a CI runner half as fast as the
// snapshot's host also calibrates at half speed and the ratio cancels.
func Check(current, committed *Snapshot) []error {
	var errs []error
	scale := 1.0
	if committed.CalibPerSec > 0 && current.CalibPerSec > 0 {
		scale = committed.CalibPerSec / current.CalibPerSec
	}
	cur := make(map[string]Result, len(current.Scenarios))
	for _, r := range current.Scenarios {
		cur[r.Name] = r
	}
	for _, want := range committed.Scenarios {
		got, ok := cur[want.Name]
		if !ok {
			errs = append(errs, fmt.Errorf("bench %s: committed scenario %s is missing from the run",
				committed.Suite, want.Name))
			continue
		}
		if got.Cycles != want.Cycles {
			errs = append(errs, fmt.Errorf("bench %s: %s simulated %d cycles, committed %d: not the same work",
				committed.Suite, want.Name, got.Cycles, want.Cycles))
			continue
		}
		floor := want.CyclesPerSec * (1 - Tolerance)
		if got.CyclesPerSec*scale < floor {
			errs = append(errs, fmt.Errorf(
				"bench %s: %s regressed: %.3g cycles/sec (×%.2f calib) < %.3g (committed %.3g, tolerance %.0f%%)",
				committed.Suite, want.Name, got.CyclesPerSec, scale, floor, want.CyclesPerSec, Tolerance*100))
		}
	}
	return errs
}

// Format renders a snapshot as an aligned text table for the CLI.
func (s *Snapshot) Format() string {
	out := fmt.Sprintf("%-18s %14s %12s %14s %9s\n", "scenario", "cycles", "wall", "cycles/sec", "speedup")
	for _, r := range s.Scenarios {
		sp := ""
		if r.SpeedupX > 0 {
			sp = fmt.Sprintf("%8.2fx", r.SpeedupX)
		}
		out += fmt.Sprintf("%-18s %14d %12s %14.4g %9s\n",
			r.Name, r.Cycles, time.Duration(r.WallNS).Round(time.Microsecond), r.CyclesPerSec, sp)
	}
	out += fmt.Sprintf("geomean cycles/sec: %.4g", s.GeomeanCyclesPerSec)
	if s.GeomeanSpeedupX > 0 {
		out += fmt.Sprintf("   geomean speedup: %.2fx", s.GeomeanSpeedupX)
	}
	return out + "\n"
}
