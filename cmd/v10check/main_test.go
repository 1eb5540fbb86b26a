package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"v10/internal/faults"
	"v10/internal/simcheck"
)

func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String() + stderr.String()
}

func TestRejectsAmbiguousArms(t *testing.T) {
	for _, args := range [][]string{
		{"-chaos", "200", "-elastic", "200"},
		{"-workload", "1", "-isolation", "1"},
		{"-replay", "x.json", "-chaos", "5"},
		{"-replay", "x.json", "-chaos", "5", "-workload", "5", "-isolation", "5", "-elastic", "5"},
		{"-no-such-flag"},
	} {
		if code, out := runCLI(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2\n%s", args, code, out)
		}
	}
	if code, out := runCLI(t, "-h"); code != 0 || !strings.Contains(out, "-replay") {
		t.Errorf("-h: exit %d, want 0 with usage\n%s", code, out)
	}
}

func TestReplayRejectsBadRepros(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	invalid, _ := json.Marshal(&simcheck.Violation[*simcheck.Scenario]{Arm: "base", Scenario: &simcheck.Scenario{}})
	for name, path := range map[string]string{
		"missing file":   filepath.Join(dir, "missing.json"),
		"malformed":      write("malformed.json", "{"),
		"bare scenario":  write("bare.json", `{"seed": 1}`),
		"unknown arm":    write("arm.json", `{"arm": "bogus", "scenario": {}}`),
		"wrong arm":      write("wrong.json", `{"arm": "chaos", "scenario": {"schemes": ["PMT"]}}`),
		"invalid":        write("invalid.json", string(invalid)),
		"unknown fields": write("fields.json", `{"arm": "elastic", "scenario": {"no_such_knob": 1}}`),
	} {
		code, out := runCLI(t, "-replay", path, "-out", "")
		if code != 1 || !strings.Contains(out, "v10check:") {
			t.Errorf("%s: exit %d, want 1 with an error\n%s", name, code, out)
		}
	}
}

// size orders fleet scenarios for the minimizer check: tenants, faults,
// horizon.
func size(workloads, faults int, duration int64) [3]int64 {
	return [3]int64{int64(workloads), int64(faults), duration}
}

func smaller(a, b [3]int64) bool {
	return a != b && a[0] <= b[0] && a[1] <= b[1] && a[2] <= b[2]
}

// roundTrip drives one arm end to end: a sweep whose one trial is the
// hand-broken scenario, minimized within budget and written as a repro, then
// a -replay of that repro, which must fail with the identical problem list.
// It returns the written scenario.
func roundTrip[S any](t *testing.T, h *simcheck.Harness[S], broken S, budget int) S {
	t.Helper()
	dir := t.TempDir()
	repro, replayed := filepath.Join(dir, "repro.json"), filepath.Join(dir, "replayed.json")
	gen := *h
	gen.Gen = func(uint64) S { return broken }
	var stdout, stderr bytes.Buffer
	c := &cli{trials: 1, minimize: budget, par: 1, out: repro, stdout: &stdout, stderr: &stderr}
	if code := check(c, &gen); code != 1 {
		t.Fatalf("%s: sweep of a broken scenario exited %d, want 1\n%s", h.Name, code, stderr.String())
	}
	code, out := runCLI(t, "-replay", repro, "-out", replayed)
	if code != 1 {
		t.Fatalf("%s: replay exited %d, want 1\n%s", h.Name, code, out)
	}
	var first, second simcheck.Violation[S]
	for path, v := range map[string]*simcheck.Violation[S]{repro: &first, replayed: &second} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatal(err)
		}
	}
	if first.Arm != h.Name || len(first.Problems) == 0 || !reflect.DeepEqual(first, second) {
		t.Fatalf("%s: replay does not reproduce the repro:\nwrote    %v\nreplayed %v", h.Name, first.Problems, second.Problems)
	}
	return first.Scenario
}

func TestRoundTripScenarioArms(t *testing.T) {
	base := simcheck.GenScenario(5)
	base.MaxCycles = 10 // the livelock oracle fires
	got := roundTrip(t, simcheck.Base, base, 200)
	if len(got.Workloads) >= len(base.Workloads) && len(got.Schemes) >= len(base.Schemes) {
		t.Errorf("base: minimizer kept %d workloads and %d schemes", len(got.Workloads), len(got.Schemes))
	}

	var wl *simcheck.Scenario
	for seed := uint64(0); wl == nil; seed++ {
		if s := simcheck.GenWorkloadScenario(seed); len(s.Workloads) >= 2 {
			wl = s
		}
	}
	wl.MaxCycles = 10
	if got := roundTrip(t, simcheck.Workload, wl, 200); len(got.Workloads) >= len(wl.Workloads) {
		t.Errorf("workload: minimizer kept %d of %d workloads", len(got.Workloads), len(wl.Workloads))
	}
}

func TestReplayWritesTrace(t *testing.T) {
	dir := t.TempDir()
	sc := simcheck.GenScenario(5)
	sc.MaxCycles = 10
	repro, trace := filepath.Join(dir, "repro.json"), filepath.Join(dir, "trace.json")
	if err := (&simcheck.Violation[*simcheck.Scenario]{Arm: "base", Scenario: sc}).WriteFile(repro); err != nil {
		t.Fatal(err)
	}
	if code, out := runCLI(t, "-replay", repro, "-out", "", "-trace", trace); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	data, err := os.ReadFile(trace)
	if err != nil || !json.Valid(data) {
		t.Fatalf("trace not written as JSON: %v", err)
	}
}

func TestRoundTripChaos(t *testing.T) {
	var cs *simcheck.ChaosScenario
	for seed := uint64(0); cs == nil; seed++ {
		c := simcheck.GenChaosScenario(seed)
		for _, f := range c.Faults {
			if f.Kind == faults.KindFail && len(c.Faults) > 1 && len(c.Workloads) > 1 {
				cs = c
			}
		}
	}
	// Zero missed beats means the fleet default, but the event oracle takes
	// it literally and expects no heartbeat misses from the failed core.
	cs.MissedBeats = 0
	got := roundTrip(t, simcheck.Chaos, cs, 200)
	if !smaller(size(len(got.Workloads), len(got.Faults), got.DurationCycles),
		size(len(cs.Workloads), len(cs.Faults), cs.DurationCycles)) {
		t.Errorf("chaos: minimizer did not shrink the scenario")
	}
}

func TestRoundTripIsolation(t *testing.T) {
	is := simcheck.GenIsolationScenario(0)
	is.Bound, is.SlackCycles = 0.01, 0 // the containment oracle fires
	got := roundTrip(t, simcheck.Isolation, is, 6)
	if !smaller(size(len(got.Workloads), 0, got.DurationCycles), size(len(is.Workloads), 0, is.DurationCycles)) {
		t.Errorf("isolation: minimizer did not shrink the scenario")
	}
	if got.Workloads[0].Name != "victim" {
		t.Errorf("isolation: minimizer dropped the victim")
	}
}

func TestRoundTripElastic(t *testing.T) {
	es := simcheck.GenElasticScenario(0)
	es.QueueLimit = -1 // the fleet refuses to run
	got := roundTrip(t, simcheck.Elastic, es, 200)
	if !smaller(size(len(got.Workloads), 0, got.DurationCycles), size(len(es.Workloads), 0, es.DurationCycles)) {
		t.Errorf("elastic: minimizer did not shrink the scenario")
	}
}

func TestCleanSweepAndReplay(t *testing.T) {
	if code, out := runCLI(t, "-chaos", "1", "-out", ""); code != 0 || !strings.Contains(out, "1 chaos trials from seed 0, zero violations") {
		t.Fatalf("exit %d\n%s", code, out)
	}
	repro := filepath.Join(t.TempDir(), "clean.json")
	if err := (&simcheck.Violation[*simcheck.Scenario]{Arm: "base", Scenario: simcheck.GenScenario(0)}).WriteFile(repro); err != nil {
		t.Fatal(err)
	}
	if code, out := runCLI(t, "-replay", repro, "-out", ""); code != 0 || !strings.Contains(out, "base trial clean") {
		t.Fatalf("clean replay: exit %d\n%s", code, out)
	}
}
