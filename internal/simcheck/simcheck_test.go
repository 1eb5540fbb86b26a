package simcheck

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"v10/internal/mathx"
)

func TestGenScenarioDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		a, b := GenScenario(seed), GenScenario(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: GenScenario not deterministic", seed)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid scenario: %v", seed, err)
		}
	}
}

// Regression: seed 126's first draw lands in the PREMA worst case — a 1.6e12
// cycle budget with a 5000-cycle PMT quantum, i.e. billions of events — and
// the trial used to run for hours while its observation log exhausted memory.
// The generator must reject such draws and resample deterministically.
func TestGenScenarioRejectsUnaffordableDraws(t *testing.T) {
	pathological := []uint64{126, 1480} // worst offenders from a 3000-seed probe
	for _, seed := range pathological {
		s := GenScenario(seed)
		if c := trialCost(s); c > maxTrialEvents {
			t.Errorf("seed %d: kept a scenario with estimated cost %.3g > cap %.3g",
				seed, c, float64(maxTrialEvents))
		}
		if s.Seed != seed {
			t.Errorf("seed %d: resampled scenario reports Seed %d; repro-by-seed breaks", seed, s.Seed)
		}
	}
	// Affordable seeds must be bit-identical to the pre-resampling generator:
	// attempt 0 draws from exactly NewRNG(seed).
	for seed := uint64(0); seed < 50; seed++ {
		first := genScenario(seed, mathx.NewRNG(seed))
		if trialCost(first) > maxTrialEvents {
			continue
		}
		if !reflect.DeepEqual(first, GenScenario(seed)) {
			t.Errorf("seed %d: affordable scenario changed under the resample loop", seed)
		}
	}
}

func TestScenarioRoundTrip(t *testing.T) {
	sc := GenScenario(7)
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := (&Violation[*Scenario]{Arm: Base.Name, Scenario: sc}).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	r, err := ReadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Base.Decode(r.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, got) {
		t.Fatalf("round trip changed the scenario:\nwrote %+v\nread  %+v", sc, got)
	}
}

// TestSerialOracleKnownValue pins the serial oracle to a hand-computed case:
// 2 ops, no tiling, no HBM throttle, so per-request = stall+compute exactly.
func TestSerialOracleKnownValue(t *testing.T) {
	sc := GenScenario(0) // borrow a valid config
	sc.Workloads = []WorkloadSpec{{Name: "W0", Priority: 1, Ops: []OpSpec{
		{Kind: "SA", Compute: 1000, Stall: 200},
		{Kind: "VU", Compute: 500, Stall: 0},
	}}}
	sc.Clones = false
	sc.Requests = 3
	sc.Schemes = append([]string(nil), AllSchemes...)
	sc.ArrivalRateHz = 0
	sc.DispatchLatency = 0
	sc.Config.VMemBytes = 32 << 20 // no tiling
	sc.Config.HBMBandwidth = 330e9
	sc.MaxCycles = 1_000_000
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	_, perReq := serialExpectation(sc, SchemeBase, 0)
	if perReq != 1700 {
		t.Fatalf("serialExpectation = %d, want 1700", perReq)
	}
	if p := CheckScenario(sc); len(p) > 0 {
		t.Fatalf("hand scenario violated:\n%s", join(p))
	}
	for _, scheme := range AllSchemes {
		out := RunScheme(sc, scheme, false)
		if out.Err != nil || out.Result == nil {
			t.Fatalf("%s: %v", scheme, out.Err)
		}
		if out.Result.TotalCycles != 3*1700 {
			t.Fatalf("%s: makespan %d, want 5100", scheme, out.Result.TotalCycles)
		}
	}
}

// TestTrialSweep is the package's standing randomized gate. The default seed
// count keeps `go test ./...` fast; set SIMCHECK_TRIALS to sweep wider (CI
// runs v10check -trials 500 on top of this).
func TestTrialSweep(t *testing.T) {
	n := uint64(40)
	if s := os.Getenv("SIMCHECK_TRIALS"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("SIMCHECK_TRIALS=%q: %v", s, err)
		}
		n = v
	}
	if testing.Short() {
		n = 10
	}
	for seed := uint64(0); seed < n; seed++ {
		if v := Base.Trial(seed); v != nil {
			t.Errorf("seed %d:\n%s", seed, join(v.Problems))
			if t.Failed() && seed > 0 { // report the first few, not hundreds
				return
			}
		}
	}
}

func join(problems []string) string {
	s := ""
	for _, p := range problems {
		s += "  - " + p + "\n"
	}
	return s
}
