package bench

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// simCycles and fleetCycles pin each suite scenario's exact simulated cycle
// count. The suites are deterministic, and the committed BENCH_*.json gates
// compare throughput only at these counts — any drift means the engine's
// arithmetic changed.
var (
	simCycles = map[string]int64{
		"pair-full":     397_582_373,
		"pair-base":     337_434_542,
		"quad-full":     246_450_849,
		"pair-nohbm":    383_825_090,
		"preempt-heavy": 195_611_698,
		"open-loop":     299_555_291,
	}
	fleetCycles = map[string]int64{
		"fleet-8c16t":       394_010_664,
		"fleet-serial-4c8t": 131_795_707,
	}
)

// TestRunSimSuite executes the committed single-core suite once and checks
// every scenario produced work at exactly its pinned cycle count.
func TestRunSimSuite(t *testing.T) {
	s, err := RunSim(1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Suite != "sim" {
		t.Fatalf("suite = %q, want sim", s.Suite)
	}
	wantCycles := simCycles
	if len(s.Scenarios) != len(wantCycles) {
		t.Fatalf("got %d scenarios, want %d", len(s.Scenarios), len(wantCycles))
	}
	for _, r := range s.Scenarios {
		want, ok := wantCycles[r.Name]
		if !ok {
			t.Errorf("unexpected scenario %q", r.Name)
			continue
		}
		if r.Cycles != want {
			t.Errorf("%s simulated %d cycles, want exactly %d (bit-identity broken)", r.Name, r.Cycles, want)
		}
		if r.CyclesPerSec <= 0 || r.WallNS <= 0 {
			t.Errorf("%s: empty measurement %+v", r.Name, r)
		}
	}
	if s.GeomeanCyclesPerSec <= 0 || s.CalibPerSec <= 0 {
		t.Fatalf("snapshot missing aggregates: %+v", s)
	}
}

func TestRunFleetSuite(t *testing.T) {
	s, err := RunFleet(1)
	if err != nil {
		t.Fatal(err)
	}
	wantCycles := fleetCycles
	for _, r := range s.Scenarios {
		if want := wantCycles[r.Name]; r.Cycles != want {
			t.Errorf("%s simulated %d cycles, want exactly %d", r.Name, r.Cycles, want)
		}
		if r.RequestsPerSec <= 0 {
			t.Errorf("%s completed no requests", r.Name)
		}
	}
}

func TestGeomean(t *testing.T) {
	rs := []Result{{CyclesPerSec: 2}, {CyclesPerSec: 8}}
	if g := geomean(rs, func(r Result) float64 { return r.CyclesPerSec }); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean(2, 8) = %g, want 4", g)
	}
	// Non-positive entries are skipped, not poisoned.
	rs = append(rs, Result{CyclesPerSec: 0})
	if g := geomean(rs, func(r Result) float64 { return r.CyclesPerSec }); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean with zero entry = %g, want 4", g)
	}
	if g := geomean(nil, func(r Result) float64 { return 1 }); g != 0 {
		t.Fatalf("geomean(nil) = %g, want 0", g)
	}
}

func TestAttachBaselinePreservesOriginalTrajectory(t *testing.T) {
	s := &Snapshot{Scenarios: []Result{{Name: "a", CyclesPerSec: 300}, {Name: "new", CyclesPerSec: 50}}}
	// The prior snapshot itself carries a baseline: the original pre-overhaul
	// number must win so the trajectory never re-bases.
	prior := &Snapshot{Scenarios: []Result{{Name: "a", CyclesPerSec: 200, BaselineCyclesPerSec: 100}}}
	s.AttachBaseline(prior)
	if got := s.Scenarios[0].BaselineCyclesPerSec; got != 100 {
		t.Fatalf("baseline re-based to %g, want the original 100", got)
	}
	if got := s.Scenarios[0].SpeedupX; math.Abs(got-3) > 1e-12 {
		t.Fatalf("speedup = %g, want 3 (vs original baseline)", got)
	}
	if s.Scenarios[1].SpeedupX != 0 {
		t.Fatalf("scenario without prior data got speedup %g", s.Scenarios[1].SpeedupX)
	}
	if math.Abs(s.GeomeanSpeedupX-3) > 1e-12 {
		t.Fatalf("geomean speedup = %g, want 3 (only scenarios with baselines count)", s.GeomeanSpeedupX)
	}
	s.AttachBaseline(nil) // must be a no-op
	if s.Scenarios[0].BaselineCyclesPerSec != 100 {
		t.Fatal("AttachBaseline(nil) clobbered the baseline")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := &Snapshot{Suite: "sim", GoMaxProcs: 4, CalibPerSec: 1e8,
		Scenarios: []Result{{Name: "a", Cycles: 10, WallNS: 5, CyclesPerSec: 2e9}}}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := s.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Suite != s.Suite || got.CalibPerSec != s.CalibPerSec ||
		len(got.Scenarios) != 1 || got.Scenarios[0] != s.Scenarios[0] {
		t.Fatalf("round trip changed the snapshot:\nwrote %+v\nread  %+v", s, got)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("Load of a missing file must error")
	}
}

func TestCheckRegressionGate(t *testing.T) {
	committed := &Snapshot{Suite: "sim", Scenarios: []Result{
		{Name: "a", Cycles: 10, CyclesPerSec: 100},
		{Name: "b", Cycles: 10, CyclesPerSec: 100},
		{Name: "drifted", Cycles: 10, CyclesPerSec: 100},
		{Name: "retired", Cycles: 10, CyclesPerSec: 100},
	}}
	current := &Snapshot{Scenarios: []Result{
		{Name: "a", Cycles: 10, CyclesPerSec: 86},        // within 15% tolerance
		{Name: "b", Cycles: 10, CyclesPerSec: 84},        // regressed
		{Name: "drifted", Cycles: 11, CyclesPerSec: 200}, // faster, but different work
		{Name: "added", Cycles: 1, CyclesPerSec: 1},      // not yet committed: ignored
	}}
	errs := Check(current, committed)
	want := []string{"b regressed", "drifted simulated 11 cycles, committed 10", "retired is missing"}
	if len(errs) != len(want) {
		t.Fatalf("Check returned %d errors (%v), want %d", len(errs), errs, len(want))
	}
	for i, w := range want {
		if !strings.Contains(errs[i].Error(), w) {
			t.Errorf("error %d = %v, want it to mention %q", i, errs[i], w)
		}
	}
}

// The committed snapshots must pass the cycle-count gate: each holds
// exactly the suite's scenarios at their pinned counts.
func TestCommittedSnapshotsMatchPins(t *testing.T) {
	for path, pins := range map[string]map[string]int64{
		"BENCH_sim.json":   simCycles,
		"BENCH_fleet.json": fleetCycles,
	} {
		s, err := Load(filepath.Join("..", "..", path))
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Scenarios) != len(pins) {
			t.Errorf("%s: %d scenarios, want %d", path, len(s.Scenarios), len(pins))
		}
		for _, r := range s.Scenarios {
			if want, ok := pins[r.Name]; !ok || r.Cycles != want {
				t.Errorf("%s: %s committed %d cycles, want %d", path, r.Name, r.Cycles, want)
			}
		}
	}
}

// The calibration ratio must cancel machine speed: a run on a host half as
// fast as the snapshot's — both suite and calibration throughput halved —
// passes, while a genuine simulator regression on the same slow host fails.
func TestCheckCalibrationNormalization(t *testing.T) {
	committed := &Snapshot{Suite: "sim", CalibPerSec: 2e8,
		Scenarios: []Result{{Name: "a", CyclesPerSec: 100}}}
	slowHostSameSim := &Snapshot{CalibPerSec: 1e8,
		Scenarios: []Result{{Name: "a", CyclesPerSec: 50}}}
	if errs := Check(slowHostSameSim, committed); len(errs) != 0 {
		t.Fatalf("half-speed host with unchanged simulator flagged: %v", errs)
	}
	slowHostSlowSim := &Snapshot{CalibPerSec: 1e8,
		Scenarios: []Result{{Name: "a", CyclesPerSec: 40}}}
	if errs := Check(slowHostSlowSim, committed); len(errs) != 1 {
		t.Fatalf("real regression hidden by calibration: %v", errs)
	}
	// Snapshots without calibration (pre-normalization files) compare raw.
	uncalibrated := &Snapshot{Suite: "sim", Scenarios: []Result{{Name: "a", CyclesPerSec: 100}}}
	if errs := Check(slowHostSameSim, uncalibrated); len(errs) != 1 {
		t.Fatalf("uncalibrated committed snapshot must compare raw throughput: %v", errs)
	}
}

func TestCalibrateCachedAndPositive(t *testing.T) {
	a := Calibrate()
	if a <= 0 {
		t.Fatalf("calibration %g, want > 0", a)
	}
	if b := Calibrate(); b != a {
		t.Fatalf("calibration not cached: %g then %g", a, b)
	}
}

func TestFormat(t *testing.T) {
	s := &Snapshot{GeomeanCyclesPerSec: 5e9, GeomeanSpeedupX: 2.5,
		Scenarios: []Result{{Name: "a", Cycles: 1000, WallNS: 2000, CyclesPerSec: 5e8, SpeedupX: 2.5}}}
	out := s.Format()
	for _, want := range []string{"a", "geomean cycles/sec: 5e+09", "geomean speedup: 2.50x", "2.50x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format output missing %q:\n%s", want, out)
		}
	}
}
