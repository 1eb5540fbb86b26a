package simcheck

import (
	"encoding/json"
	"strings"
	"testing"

	"v10/internal/faults"
	"v10/internal/fleet"
)

func fleetRunForTest(cs *ChaosScenario) (*fleet.Result, error) {
	return fleet.Run(cs.buildWorkloads(), cs.options(&faults.Schedule{Faults: cs.Faults}))
}

// TestChaosTrials is the in-package slice of the chaos gate (CI runs the full
// 200-trial sweep through cmd/v10check -chaos): every seeded random fleet
// trial under fault injection must conserve requests, replay bit-identically,
// and keep its typed fault events consistent with its recovery metrics.
func TestChaosTrials(t *testing.T) {
	n := uint64(60)
	if testing.Short() {
		n = 20
	}
	for seed := uint64(0); seed < n; seed++ {
		if v := Chaos.Trial(seed); v != nil {
			j, _ := json.MarshalIndent(v, "", "  ")
			t.Fatalf("chaos seed %d:\n%s", seed, j)
		}
	}
}

func TestGenChaosScenarioDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		a, _ := json.Marshal(GenChaosScenario(seed))
		b, _ := json.Marshal(GenChaosScenario(seed))
		if string(a) != string(b) {
			t.Fatalf("seed %d: scenario generation is not deterministic", seed)
		}
	}
}

// TestChaosTrialsCoverFailures guards the generator against regressing into
// triviality: across a modest seed range the trials must include core
// failures, migration landings, and retry-exhaustion sheds.
func TestChaosTrialsCoverFailures(t *testing.T) {
	var fails, migs, sheds int
	for seed := uint64(0); seed < 40; seed++ {
		cs := GenChaosScenario(seed)
		for _, f := range cs.Faults {
			if f.Kind == faults.KindFail {
				fails++
			}
		}
	}
	if fails == 0 {
		t.Fatal("no fail-stop faults across 40 generated scenarios")
	}
	// The trial results themselves: reuse two seeds known (by construction,
	// any healthy generator) to produce recoveries.
	for seed := uint64(0); seed < 40 && (migs == 0 || sheds == 0); seed++ {
		cs := GenChaosScenario(seed)
		res, err := fleetRunForTest(cs)
		if err != nil || res == nil {
			continue
		}
		migs += res.Migrated
		sheds += res.MigrationShed
	}
	if migs == 0 {
		t.Error("no migration landings across 40 chaos trials")
	}
	if sheds == 0 {
		t.Error("no migration sheds across 40 chaos trials")
	}
}

func TestChaosViolationError(t *testing.T) {
	v := &Violation[*ChaosScenario]{
		Arm:      Chaos.Name,
		Scenario: &ChaosScenario{Seed: 7},
		Problems: []string{"first problem", "second"},
	}
	msg := v.Error()
	if !strings.Contains(msg, "chaos") || !strings.Contains(msg, "2 problem(s)") || !strings.Contains(msg, "first problem") {
		t.Fatalf("unhelpful violation message: %q", msg)
	}
	// Violations must survive a JSON round trip for -replay style repros.
	j, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var back Violation[*ChaosScenario]
	if err := json.Unmarshal(j, &back); err != nil {
		t.Fatal(err)
	}
	if back.Arm != "chaos" || back.Scenario.Seed != 7 || len(back.Problems) != 2 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

// FuzzFaultSchedule mutates fault-spec strings against a generated fleet
// scenario: any spec the parser and validator accept must run through the
// full chaos oracle suite clean — conservation, determinism, event/metric
// consistency. Parser rejections are fine; panics and lost requests are not.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(uint64(0), "fail@0:500000")
	f.Add(uint64(1), "fail@0:100000;fail@1:200000")
	f.Add(uint64(2), "stall@1:50000+20000")
	f.Add(uint64(3), "hbm@0:10000+40000x0.5;vmem@1:30000+30000x0.4")
	f.Add(uint64(4), "fail@1:1")
	f.Add(uint64(5), "stall@0:10000+5000,fail@0:400000")
	f.Add(uint64(6), "")
	f.Fuzz(func(t *testing.T, seed uint64, spec string) {
		schedule, err := faults.Parse(spec)
		if err != nil {
			return // rejected specs only need to not panic
		}
		cs := GenChaosScenario(seed)
		if err := schedule.Validate(cs.Cores); err != nil {
			return // e.g. core index beyond this scenario's fleet
		}
		cs.Faults = schedule.Faults
		if v := Chaos.Run(cs); v != nil {
			j, _ := json.MarshalIndent(v, "", "  ")
			t.Fatalf("seed %d spec %q:\n%s", seed, spec, j)
		}
	})
}
