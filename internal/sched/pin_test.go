package sched

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"testing"

	"v10/internal/mathx"
	"v10/internal/metrics"
	"v10/internal/obs"
	"v10/internal/trace"
	"v10/internal/vnpu"
)

// hashTracer folds every emitted event into a SHA-256.
type hashTracer struct{ h hash.Hash }

func (t hashTracer) Emit(e obs.Event) { fmt.Fprintf(t.h, "%+v\n", e) }

// resultDigest hashes every field of a run result (the busy tracker by
// value, each workload's stats including the latency samples).
func resultDigest(res *metrics.RunResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d %d %d %d %v %+v %+v\n", res.Scheme, res.TotalCycles, res.HaltedAt,
		res.NumSA, res.NumVU, res.HBMCapacity, *res.Busy, res.Slices)
	for _, w := range res.Workloads {
		fmt.Fprintf(h, "%+v\n", *w)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// poissonSchedule draws n nondecreasing arrival cycles with exponential gaps
// of the given mean, floored to whole cycles, so short gaps coalesce into
// same-cycle arrivals.
func poissonSchedule(seed uint64, n int, mean float64) []int64 {
	rng := mathx.NewRNG(seed)
	out := make([]int64, n)
	t := 0.0
	for i := range out {
		t -= mean * logUniform(rng)
		out[i] = int64(t)
	}
	return out
}

// TestOpenLoopArrivalCyclesPinned pins the traced event stream and the
// result of open-loop runs driven by explicit arrival schedules to the
// SHA-256 digests they produced when every arrival was pushed into the event
// heap up front. The cases cover the same-cycle ties the heap's (At, seq)
// order decides: two workloads arriving on one cycle, several arrivals of
// one workload on one cycle, an arrival tied with an operator completion
// scheduled before the arrival's predecessor fired, an arrival tied with the
// fail-stop halt, a
// vNPU-sliced core, a saturated four-tenant core and a cycle-capped run
// that ends with arrivals still pending.
//
// A change to the engine or the runner that moves a digest has changed the
// simulated schedule, not just its cost.
func TestOpenLoopArrivalCyclesPinned(t *testing.T) {
	type pinCase struct {
		name         string
		build        func() ([]*trace.Workload, Options)
		capped       bool
		events, stat string
	}
	cases := []pinCase{
		{name: "cross-tenant-ties", build: func() ([]*trace.Workload, Options) {
			opts := FullOptions()
			opts.ArrivalCycles = [][]int64{
				{0, 4000, 4000, 9000, 9000, 9000, 30_000},
				{0, 4000, 9000, 9000, 12_000, 30_000, 30_000},
			}
			return []*trace.Workload{synthetic("A", 2000, 300, 3), synthetic("B", 400, 1500, 3)}, opts
		},
			events: "5dbaa1680f77657beb0070c228d6ced707f21df5d9390248489990bc2299af76",
			stat:   "88f4ea7e481686cdf71f3f5259a612fd04b6fab41bc0c9b4e4ef3fcd22a39b60"},
		{name: "arrival-ties-completion", build: func() ([]*trace.Workload, Options) {
			// B's arrival at 1000 ties with A's operator completion, which was
			// scheduled at cycle 0, before B's arrival at 300 fired. Both
			// then ready an operator on cycle 1000, in (At, seq) order.
			vu := trace.NewWorkload("B", "B", 1, func(int) *trace.Graph {
				return &trace.Graph{Ops: []trace.Op{{ID: 0, Kind: trace.KindVU, Compute: 200}}}
			})
			opts := FairOptions()
			opts.ArrivalCycles = [][]int64{{0, 0}, {300, 1000}}
			return []*trace.Workload{syntheticHBM("A", 1000, 1, 0), vu}, opts
		},
			events: "f4a4d3bce616b71a94192579400a14070b94334af5c6ee365f39f43d003cc9d6",
			stat:   "f3223edc24514b3f7792bf45777ec47c411aaecd0588383835e5fbea19c81f46"},
		{name: "halt-tie", build: func() ([]*trace.Workload, Options) {
			opts := FairOptions()
			opts.HaltAtCycle = 20_000
			opts.ArrivalCycles = [][]int64{
				{0, 6000, 20_000, 20_000, 40_000},
				{20_000, 20_000, 25_000},
			}
			return []*trace.Workload{synthetic("A", 1500, 700, 2), synthetic("B", 900, 900, 2)}, opts
		},
			events: "efe4616485cfd34f87c667e1b09fd988bdcc17dc3dbfbb740765d88826f8eb56",
			stat:   "96c5b62625b634fc85bddc51f8756b8cfad946a820d664e8d2c11b8d7d2ce74c"},
		{name: "sliced", build: func() ([]*trace.Workload, Options) {
			const window = 4096
			p := partition(t, window,
				vnpu.Template{Compute: 0.5, VMem: 0.5, HBM: 0.25},
				vnpu.Template{Compute: 0.5, VMem: 0.5, HBM: 0.5})
			opts := FullOptions()
			opts.Slices = p.Slices
			opts.SliceOf = []int{0, 1, 1}
			opts.ArrivalCycles = [][]int64{
				{0, 3000, 3000, 15_000},
				{0, 3000, 8000, 8000},
				{3000, 3000, 3000},
			}
			return []*trace.Workload{
				syntheticHBM("A", 2000, 5, 0.5*cfg.HBMBytesPerCycle()*window),
				synthetic("B", 1000, 500, 3),
				syntheticHBM("C", 800, 4, 0.3*cfg.HBMBytesPerCycle()*window),
			}, opts
		},
			events: "af441431b7eb064d9dfe4074041d2002466ee1f16193978aaac72b5a2b452745",
			stat:   "3131b909efc46db06b675d9f0f0f750057d499e8a3bd2ebd9a44cd0b9ca287c5"},
		{name: "saturated", build: func() ([]*trace.Workload, Options) {
			opts := FullOptions()
			opts.ArrivalCycles = [][]int64{
				poissonSchedule(11, 40, 30_000),
				poissonSchedule(12, 40, 30_000),
				poissonSchedule(13, 40, 2_000),
				poissonSchedule(14, 40, 60_000),
			}
			return []*trace.Workload{
				wl(t, "NCF", 8, 1),
				wl(t, "MNST", 8, 2).WithPriority(2),
				syntheticHBM("H", 3000, 6, 2*cfg.HBMBytesPerCycle()*3000),
				synthetic("S", 5000, 800, 4),
			}, opts
		},
			events: "3b7bfe77bd7d54fb0a457543285ff8e47a3a4deb33b3ff7d6c16ca953e8efdc6",
			stat:   "58c481395507d7d12ef225ee17b627edf3cf0c8dd4b1ea56df8744d6908b335b"},
		{name: "capped", build: func() ([]*trace.Workload, Options) {
			opts := FullOptions()
			opts.MaxCycles = 150_000
			opts.ArrivalCycles = [][]int64{
				poissonSchedule(21, 60, 3_000),
				poissonSchedule(22, 60, 5_000),
			}
			return []*trace.Workload{
				syntheticHBM("H", 2500, 4, 1.5*cfg.HBMBytesPerCycle()*2500),
				synthetic("S", 1200, 1200, 3),
			}, opts
		}, capped: true,
			events: "3056e3f74fc0367393c778c4d268661f2681880a1da62a72daa9851b684185d2",
			stat:   "673e14eee04de62c3434aa0c63163457a8ee90a9733c00682bf020d093a983f6"},
	}
	for _, c := range cases {
		h := sha256.New()
		ws, opts := c.build()
		opts.Tracer = hashTracer{h}
		res, err := Run(ws, opts)
		if c.capped != errors.Is(err, ErrMaxCycles) || (!c.capped && err != nil) {
			t.Fatalf("%s: err = %v, capped = %v", c.name, err, c.capped)
		}
		if err != nil {
			fmt.Fprintln(h, err)
		}
		events := fmt.Sprintf("%x", h.Sum(nil))
		stat := resultDigest(res)
		if events != c.events || stat != c.stat {
			t.Errorf("%s: events %s result %s, want %s %s", c.name, events, stat, c.events, c.stat)
		}
		// The untraced run, the one fleet cores make, sequences identically.
		ws, opts = c.build()
		if res, _ := Run(ws, opts); resultDigest(res) != stat {
			t.Errorf("%s: untraced result %s, traced %s", c.name, resultDigest(res), stat)
		}
	}
}
