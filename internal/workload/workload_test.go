package workload

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"v10/internal/npu"
)

// horizon100ms is 0.1 s at the default 700 MHz clock — long enough for tight
// rate statistics at the test rates below.
const horizon100ms = 70_000_000

func testEngine() Engine {
	return Engine{HorizonCycles: horizon100ms, Seed: 42}
}

func checkSchedule(t *testing.T, sc []int64, start, end int64) {
	t.Helper()
	prev := int64(-1)
	for i, c := range sc {
		if c < start || c >= end {
			t.Fatalf("arrival %d = %d outside window [%d, %d)", i, c, start, end)
		}
		if c < prev {
			t.Fatalf("arrival %d = %d decreases (prev %d)", i, c, prev)
		}
		prev = c
	}
}

// aggregateCount sums arrivals over tenants many independent schedules so the
// relative sampling error shrinks as 1/sqrt(tenants).
func aggregateCount(t *testing.T, e Engine, spec Spec, tenants int) int {
	t.Helper()
	total := 0
	for tn := 0; tn < tenants; tn++ {
		sc, err := e.Schedule(tn, spec)
		if err != nil {
			t.Fatalf("Schedule(%d): %v", tn, err)
		}
		checkSchedule(t, sc, 0, e.HorizonCycles)
		total += len(sc)
	}
	return total
}

// TestRealizedRateMatchesNominal is the headline property: every process
// realizes its nominal long-run mean rate. The old int64-truncation idiom
// fails this at high rates (realized > nominal).
func TestRealizedRateMatchesNominal(t *testing.T) {
	const (
		rate    = 50_000.0 // 5000 expected arrivals per tenant over 0.1 s
		tenants = 24
	)
	e := testEngine()
	want := rate * 0.1 * float64(tenants)
	for _, tc := range []struct {
		name string
		spec Spec
		tol  float64
	}{
		{"poisson", Spec{Process: Poisson, RateHz: rate}, 0.02},
		{"uniform", Spec{Process: Uniform, RateHz: rate}, 0.001},
		{"diurnal", Spec{Process: Diurnal, RateHz: rate}, 0.03},
		{"diurnal-phased", Spec{Process: Diurnal, RateHz: rate, PhaseFrac: 0.5}, 0.03},
		// Explicit dwell: ~51 regime cycles per horizon, so the long-run mean
		// concentrates (the default horizon/64 dwell fits only ~6 cycles and
		// leaves the realized count dominated by regime-occupancy noise).
		{"mmpp", Spec{Process: MMPP, RateHz: rate, BurstDwellCycles: horizon100ms / 512}, 0.08},
		{"replay-normalized", Spec{Process: Replay, RateHz: rate,
			GapsSec: []float64{0.001, 0.0005, 0.004, 0.0008, 0.01}}, 0.02},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := float64(aggregateCount(t, e, tc.spec, tenants))
			if rel := (got - want) / want; rel < -tc.tol || rel > tc.tol {
				t.Errorf("realized %v arrivals, want %v ±%v%% (rel err %+.4f)",
					got, want, 100*tc.tol, rel)
			}
		})
	}
}

// TestPoissonHighRateNoInflation targets the bug shape directly: at a mean
// gap of ~2 cycles, gap truncation plus a gap<1 clamp would inflate the
// realized rate by tens of percent. Floor-on-absolute-time must not.
func TestPoissonHighRateNoInflation(t *testing.T) {
	e := Engine{HorizonCycles: 2_000_000, Seed: 7}
	rate := 350e6 // half the 700 MHz clock: mean gap 2 cycles
	got := float64(aggregateCount(t, e, Spec{Process: Poisson, RateHz: rate}, 4))
	want := rate / 700e6 * 2_000_000 * 4
	if rel := (got - want) / want; rel < -0.01 || rel > 0.01 {
		t.Errorf("realized %v arrivals at mean gap 2 cycles, want %v ±1%% (rel err %+.4f)", got, want, rel)
	}
}

// TestDeterminism: a tenant's schedule is a pure function of (seed, tenant,
// spec) — independent of the other tenants in the batch and of parallelism.
func TestDeterminism(t *testing.T) {
	e := testEngine()
	specs := []Spec{
		{Process: Poisson, RateHz: 3000},
		{Process: Diurnal, RateHz: 2500, PhaseFrac: 0.25},
		{Process: MMPP, RateHz: 1500},
		{Process: Replay, GapsSec: []float64{0.001, 0.002, 0.0004}},
		{Process: Uniform, RateHz: 800, StartCycle: 1000, EndCycle: 30_000_000},
	}
	batch, err := e.Schedules(specs)
	if err != nil {
		t.Fatal(err)
	}

	// Tenant 2 generated alone — as if the fleet had a different size.
	alone, err := e.Schedule(2, specs[2])
	if err != nil {
		t.Fatal(err)
	}
	if !equalInt64s(alone, batch[2]) {
		t.Fatalf("tenant 2 schedule differs when generated alone: %d vs %d arrivals", len(alone), len(batch[2]))
	}

	// All tenants regenerated concurrently under inflated parallelism.
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	par := make([][]int64, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc, err := e.Schedule(i, specs[i])
			if err == nil {
				par[i] = sc
			}
		}(i)
	}
	wg.Wait()
	for i := range specs {
		if !equalInt64s(par[i], batch[i]) {
			t.Fatalf("tenant %d schedule differs under parallel generation", i)
		}
	}

	// And the whole batch is bit-identical on a second run.
	again, err := e.Schedules(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if !equalInt64s(batch[i], again[i]) {
			t.Fatalf("tenant %d schedule not reproducible", i)
		}
	}
}

func TestTenantsDiffer(t *testing.T) {
	e := testEngine()
	spec := Spec{Process: Poisson, RateHz: 2000}
	a, _ := e.Schedule(0, spec)
	b, _ := e.Schedule(1, spec)
	if equalInt64s(a, b) {
		t.Fatal("tenants 0 and 1 produced identical schedules — per-tenant seeding is broken")
	}
}

func TestChurnWindow(t *testing.T) {
	e := testEngine()
	spec := Spec{Process: Poisson, RateHz: 20_000, StartCycle: 10_000_000, EndCycle: 40_000_000}
	sc, err := e.Schedule(0, spec)
	if err != nil {
		t.Fatal(err)
	}
	checkSchedule(t, sc, 10_000_000, 40_000_000)
	want := 20_000.0 * (30_000_000.0 / 700e6)
	if got := float64(len(sc)); got < 0.8*want || got > 1.2*want {
		t.Fatalf("churn window realized %v arrivals, want ≈%v", got, want)
	}
	// EndCycle beyond the horizon clips to the horizon.
	spec.EndCycle = 10 * horizon100ms
	sc, err = e.Schedule(0, spec)
	if err != nil {
		t.Fatal(err)
	}
	checkSchedule(t, sc, 10_000_000, horizon100ms)
}

// TestDiurnalPhaseShapesTraffic: anti-phased classes concentrate arrivals in
// opposite halves of the period — the property the collocation scenario
// depends on.
func TestDiurnalPhaseShapesTraffic(t *testing.T) {
	e := testEngine()
	// Compare the circular half-period centered on the peak against the half
	// centered on the trough: with amplitude 0.9 the peak half carries
	// (1 + 0.9·2/π)/(1 − 0.9·2/π) ≈ 3.7× the arrivals of the trough half.
	countPeakHalf := func(phase float64) (peak, trough int) {
		for tn := 0; tn < 8; tn++ {
			sc, err := e.Schedule(tn, Spec{Process: Diurnal, RateHz: 10_000, Amplitude: 0.9, PhaseFrac: phase})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range sc {
				// Circular distance from the peak, in period fractions.
				d := float64(c)/horizon100ms - phase
				if d < 0 {
					d++
				}
				if d <= 0.25 || d >= 0.75 {
					peak++
				} else {
					trough++
				}
			}
		}
		return
	}
	for _, phase := range []float64{0, 0.5} {
		p, tr := countPeakHalf(phase)
		if p < 2*tr {
			t.Errorf("phase %v: peak half %d vs trough half %d, want ≥2× concentration", phase, p, tr)
		}
	}
}

// TestMMPPIsBurstier: over windows of the burst-dwell scale, MMPP counts
// must have a much larger dispersion index than Poisson at the same mean.
func TestMMPPIsBurstier(t *testing.T) {
	e := testEngine()
	disp := func(spec Spec) float64 {
		const bins = 64
		var counts [bins]float64
		for tn := 0; tn < 8; tn++ {
			sc, err := e.Schedule(tn, spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range sc {
				counts[c*bins/horizon100ms]++
			}
		}
		var mean float64
		for _, c := range counts {
			mean += c
		}
		mean /= bins
		var v float64
		for _, c := range counts {
			v += (c - mean) * (c - mean)
		}
		return v / float64(bins) / mean
	}
	p := disp(Spec{Process: Poisson, RateHz: 20_000})
	m := disp(Spec{Process: MMPP, RateHz: 20_000})
	if m < 4*p {
		t.Errorf("MMPP dispersion %.2f vs Poisson %.2f — bursts not materializing", m, p)
	}
}

func TestValidation(t *testing.T) {
	e := testEngine()
	for _, tc := range []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown process", Spec{Process: "zipf", RateHz: 1}, "unknown arrival process"},
		{"zero rate", Spec{Process: Poisson}, "needs RateHz > 0"},
		{"negative rate", Spec{Process: Diurnal, RateHz: -3}, "needs RateHz > 0"},
		{"amplitude", Spec{Process: Diurnal, RateHz: 10, Amplitude: 1.5}, "amplitude"},
		{"phase", Spec{Process: Diurnal, RateHz: 10, PhaseFrac: 1}, "phase fraction"},
		{"burst factor", Spec{Process: MMPP, RateHz: 10, BurstFactor: 0.5}, "burst factor"},
		{"burst frac", Spec{Process: MMPP, RateHz: 10, BurstFrac: 1.2}, "burst fraction"},
		{"empty window", Spec{Process: Poisson, RateHz: 10, StartCycle: 5, EndCycle: 5}, "is empty"},
		{"negative start", Spec{Process: Poisson, RateHz: 10, StartCycle: -1}, "negative start"},
		{"replay no gaps", Spec{Process: Replay}, "non-empty gap stream"},
		{"replay zero gaps", Spec{Process: Replay, GapsSec: []float64{0, 0}}, "sum to zero"},
		{"replay bad gap", Spec{Process: Replay, GapsSec: []float64{0.1, -0.2}}, "trace gap"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := e.Schedule(0, tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Schedule err = %v, want containing %q", err, tc.want)
			}
		})
	}
	if _, err := (Engine{HorizonCycles: 0}).Schedule(0, Spec{Process: Poisson, RateHz: 1}); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := (Engine{HorizonCycles: horizon100ms}).Schedule(0, Spec{Process: Poisson, RateHz: 1e12}); err == nil {
		t.Fatal("runaway rate × horizon accepted — arrival cap not enforced")
	}
}

func TestParseProcess(t *testing.T) {
	for _, s := range []string{"poisson", "uniform", "diurnal", "mmpp", "trace"} {
		p, err := ParseProcess(s)
		if err != nil || string(p) != s {
			t.Fatalf("ParseProcess(%q) = %v, %v", s, p, err)
		}
	}
	if _, err := ParseProcess("zipf"); err == nil {
		t.Fatal("ParseProcess accepted zipf")
	}
}

func TestCustomClockConfig(t *testing.T) {
	cfg := npu.DefaultConfig()
	cfg.FrequencyHz = 350e6 // half clock → half the arrivals per cycle-horizon
	e := Engine{Config: cfg, HorizonCycles: horizon100ms, Seed: 1}
	sc, err := e.Schedule(0, Spec{Process: Uniform, RateHz: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(sc), 199; got != want { // 0.2 s horizon at 350 MHz, first at gap
		t.Fatalf("uniform arrivals = %d, want %d", got, want)
	}
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestScheduleSizedOnce: a Poisson schedule is sized for its mean count up
// front, so generating one costs a fixed handful of allocations instead of
// regrowing its slice about a dozen times.
func TestScheduleSizedOnce(t *testing.T) {
	e := Engine{HorizonCycles: 2_000_000_000, Seed: 1}
	spec := Spec{Process: Poisson, RateHz: 120}
	sc, err := e.Schedule(0, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc) < 200 {
		t.Fatalf("schedule has %d arrivals, want about 343", len(sc))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.Schedule(0, spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("Schedule allocates %.0f objects for %d arrivals, want ≤ 3", allocs, len(sc))
	}
}
