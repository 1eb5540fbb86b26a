package main

import (
	"fmt"
	"os"
	"runtime/pprof"

	"v10/internal/bench"
)

// perfFlags holds the -perf mode's flag values (parsed in main).
type perfFlags struct {
	enabled    bool
	reps       int
	out        string // directory for BENCH_*.json when writing
	write      bool
	checkSim   string // committed BENCH_sim.json to gate against
	checkFleet string // committed BENCH_fleet.json to gate against
	baseSim    string // prior snapshot supplying baseline numbers
	baseFleet  string
	cpuProfile string // when set, profile the suites (feeds default.pgo)
}

// runPerf executes the committed benchmark suites, optionally gates against
// committed snapshots, and optionally rewrites them. Returns the process exit
// code.
func runPerf(f perfFlags) int {
	if f.cpuProfile != "" {
		// Calibrate once (the result is memoized) before profiling starts,
		// so the profile holds only the suites.
		bench.Calibrate()
		pf, err := os.Create(f.cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	simSnap, err := bench.RunSim(f.reps)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fleetSnap, err := bench.RunFleet(f.reps)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	attach := func(snap *bench.Snapshot, path string) error {
		if path == "" {
			return nil
		}
		base, err := bench.Load(path)
		if err != nil {
			return err
		}
		snap.AttachBaseline(base)
		return nil
	}
	if err := attach(simSnap, f.baseSim); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := attach(fleetSnap, f.baseFleet); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	fmt.Println("== sim suite ==")
	fmt.Print(simSnap.Format())
	fmt.Println("== fleet suite ==")
	fmt.Print(fleetSnap.Format())

	failed := false
	gate := func(snap *bench.Snapshot, path string) {
		if path == "" {
			return
		}
		committed, err := bench.Load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
			return
		}
		// Gate against the committed file, and inherit its baselines so the
		// printed speedups track the original pre-overhaul trajectory.
		snap.AttachBaseline(committed)
		errs := bench.Check(snap, committed)
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "FAIL:", e)
			failed = true
		}
		if len(errs) == 0 {
			fmt.Printf("ok: %s within %.0f%% of %s\n", snap.Suite, bench.Tolerance*100, path)
		}
	}
	gate(simSnap, f.checkSim)
	gate(fleetSnap, f.checkFleet)

	if f.write {
		simPath := f.out + "/BENCH_sim.json"
		fleetPath := f.out + "/BENCH_fleet.json"
		if err := simSnap.Write(simPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := fleetSnap.Write(fleetPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("wrote %s and %s\n", simPath, fleetPath)
	}
	if failed {
		return 1
	}
	return 0
}
