package simcheck

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"v10/internal/obs"
)

// TestDeterminismOracleCatchesFlippedEvent corrupts one field of one event
// on its way into the rerun's digest: whichever field it is, the determinism
// oracle must notice the two streams differ.
func TestDeterminismOracleCatchesFlippedEvent(t *testing.T) {
	sc := mutationScenario()
	first := RunScheme(sc, SchemeFull, false)
	if first.Events != nil {
		t.Errorf("multi-workload run retained %d events; only serial runs keep a log", len(first.Events))
	}
	if p := checkDeterminism(first, RunScheme(sc, SchemeFull, false)); len(p) != 0 {
		t.Fatalf("clean rerun flagged:\n%s", join(p))
	}
	flips := map[string]func(*obs.Event){
		"Time":     func(e *obs.Event) { e.Time++ },
		"Dur":      func(e *obs.Event) { e.Dur++ },
		"Type":     func(e *obs.Event) { e.Type ^= 1 },
		"Workload": func(e *obs.Event) { e.Workload += "x" },
		"WIdx":     func(e *obs.Event) { e.WIdx++ },
		"FUKind":   func(e *obs.Event) { e.FUKind++ },
		"FUIndex":  func(e *obs.Event) { e.FUIndex++ },
		"Request":  func(e *obs.Event) { e.Request++ },
		"Op":       func(e *obs.Event) { e.Op++ },
		"Arg0":     func(e *obs.Event) { e.Arg0 += 0.5 },
		"Arg1":     func(e *obs.Event) { e.Arg1 += 0.5 },
	}
	for field, flip := range flips {
		target := first.Digest.N / 2
		seen := 0
		rerun := &Outcome{Scheme: SchemeFull}
		res, err := Execute(sc, SchemeFull, false, &mutateTracer{next: &rerun.Digest, fn: func(e obs.Event) (obs.Event, bool) {
			if seen == target {
				flip(&e)
			}
			seen++
			return e, true
		}})
		rerun.Result, rerun.Err = res, err
		p := checkDeterminism(first, rerun)
		if len(p) != 1 || !strings.Contains(p[0], "determinism oracle: rerun emitted") {
			t.Errorf("flipping %s of event %d: got %v, want the event-stream determinism problem", field, target, p)
		}
	}
}

// TestSerialRunKeepsEventLog pins the one case that still records a full
// log: the serial oracle replays a single closed-loop workload's events.
func TestSerialRunKeepsEventLog(t *testing.T) {
	sc := GenScenario(3)
	sc.Workloads, sc.Clones, sc.ArrivalRateHz = sc.Workloads[:1], false, 0
	out := RunScheme(sc, SchemeBase, false)
	if len(out.Events) == 0 || len(out.Events) != out.Digest.N {
		t.Fatalf("serial run kept %d events, digest folded %d", len(out.Events), out.Digest.N)
	}
}

// TestMinimizeDropsScheduledWorkload minimizes a multi-workload
// workload-engine scenario that fails by construction (a cycle budget far too
// small, which fires the livelock oracle): the minimizer must drop whole
// workloads together with their arrival schedules, without touching the
// scenario it started from.
func TestMinimizeDropsScheduledWorkload(t *testing.T) {
	var sc *Scenario
	for seed := uint64(0); sc == nil; seed++ {
		if s := GenWorkloadScenario(seed); len(s.Workloads) >= 3 {
			sc = s
		}
	}
	sc.MaxCycles = 10
	orig, _ := json.Marshal(sc)
	v := Workload.Run(sc)
	if v == nil {
		t.Fatal("scenario with a 10-cycle budget passed")
	}
	min := Workload.Minimize(v, 100).Scenario
	if len(min.Workloads) >= len(sc.Workloads) {
		t.Errorf("minimizer kept %d of %d workloads", len(min.Workloads), len(sc.Workloads))
	}
	if err := min.Validate(); err != nil {
		t.Errorf("minimized scenario invalid: %v", err)
	}
	if Workload.Run(min) == nil {
		t.Error("minimized scenario no longer fails")
	}
	if after, _ := json.Marshal(sc); string(after) != string(orig) {
		t.Error("minimizing corrupted the original scenario")
	}
}

func TestShrinkIsolationKeepsVictimAndRows(t *testing.T) {
	is := GenIsolationScenario(0)
	orig, _ := json.Marshal(is)
	cands := shrinkIsolation(is)
	if len(cands) != len(is.Workloads) { // one per aggressor, plus the halved horizon
		t.Fatalf("%d candidates for %d tenants", len(cands), len(is.Workloads))
	}
	for _, c := range cands {
		if c.Workloads[0].Name != "victim" || len(c.Arrivals) != len(c.Workloads) || c.Validate() != nil {
			t.Errorf("candidate lost the victim or misaligned its rows: %d tenants, %d rows", len(c.Workloads), len(c.Arrivals))
		}
		for _, row := range c.Arrivals {
			for _, at := range row {
				if at >= c.DurationCycles {
					t.Fatalf("arrival %d past the %d-cycle horizon", at, c.DurationCycles)
				}
			}
		}
	}
	if half := cands[len(cands)-1]; half.DurationCycles != is.DurationCycles/2 {
		t.Errorf("last candidate horizon %d, want %d", half.DurationCycles, is.DurationCycles/2)
	}
	if after, _ := json.Marshal(is); string(after) != string(orig) {
		t.Error("shrinking corrupted the original scenario")
	}
}

func TestShrinkFleetArms(t *testing.T) {
	es := GenElasticScenario(0)
	for _, c := range shrinkElastic(es) {
		if len(c.Traffic) != len(c.Workloads) || c.Validate() != nil {
			t.Errorf("elastic candidate: %d traffic specs for %d tenants", len(c.Traffic), len(c.Workloads))
		}
	}
	cs := GenChaosScenario(0)
	for seed := uint64(1); len(cs.Faults) == 0; seed++ {
		cs = GenChaosScenario(seed)
	}
	var dropped bool
	for _, c := range shrinkChaos(cs) {
		dropped = dropped || len(c.Faults) < len(cs.Faults)
		if c.Validate() != nil {
			t.Errorf("chaos candidate invalid: %v", c.Validate())
		}
	}
	if !dropped {
		t.Error("no chaos candidate drops a fault")
	}
}

// TestHarnessRecoversPanics: a crashing oracle fails its trial with the
// panic as the problem instead of taking the sweep down.
func TestHarnessRecoversPanics(t *testing.T) {
	h := *Chaos
	h.Check = func(*ChaosScenario) []string { panic("boom") }
	v := h.Trial(0)
	if v == nil || !reflect.DeepEqual(v.Problems, []string{"panic: boom"}) || v.Arm != "chaos" {
		t.Fatalf("got %+v, want a chaos violation with the panic", v)
	}
}
