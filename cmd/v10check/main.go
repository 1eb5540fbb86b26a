// Command v10check is the differential simulation-testing gate: it runs N
// seed-addressed random trials of one arm (by default every scheduling scheme
// under the runtime invariant checker and the differential oracles) and on
// the first violation minimizes it, writes a JSON repro plus an optional
// Chrome trace of the failing run, and exits 1. -replay re-runs a repro from
// any arm.
//
//	v10check                                  # 500 trials from seed 0
//	v10check -trials 2000 -seed 100           # wider sweep, custom base seed
//	v10check -out repro.json -trace fail.json # artifacts on first violation
//	v10check -replay repro.json               # re-run a saved repro (any arm)
//	v10check -chaos 200                       # fleet chaos trials under fault injection
//	v10check -workload 200                    # workload-engine arrival-schedule trials
//	v10check -isolation 200                   # vNPU noisy-neighbor isolation trials
//	v10check -elastic 200                     # autoscaling control-plane trials
//	v10check -v                               # per-trial progress
//
// At most one of -chaos, -workload, -isolation, -elastic and -replay may be set.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"v10/internal/obs"
	"v10/internal/parallel"
	"v10/internal/simcheck"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// cli is one parsed invocation.
type cli struct {
	trials, minimize, par int
	seed                  uint64
	out, trace, replay    string
	repro                 json.RawMessage // the -replay file's scenario
	verbose               bool
	stdout, stderr        io.Writer
}

// run parses args, selects one arm's harness and drives it, returning the
// exit status: 0 clean, 1 violation or error, 2 usage.
func run(args []string, stdout, stderr io.Writer) int {
	c := &cli{stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("v10check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&c.trials, "trials", 500, "number of random trials")
	fs.Uint64Var(&c.seed, "seed", 0, "base seed (trial i uses seed+i)")
	fs.StringVar(&c.out, "out", "repro.json", "minimized repro file written on violation")
	fs.StringVar(&c.trace, "trace", "", "Chrome trace of the first failing run (open in Perfetto)")
	fs.StringVar(&c.replay, "replay", "", "re-check a saved repro instead of random trials")
	armTrials := map[string]*int{
		simcheck.Chaos.Name:     fs.Int("chaos", 0, "run this many fleet chaos trials (fault injection) instead of scheme trials"),
		simcheck.Workload.Name:  fs.Int("workload", 0, "run this many workload-engine trials (explicit arrival schedules) instead of scheme trials"),
		simcheck.Isolation.Name: fs.Int("isolation", 0, "run this many vNPU noisy-neighbor isolation trials instead of scheme trials"),
		simcheck.Elastic.Name:   fs.Int("elastic", 0, "run this many autoscaling control-plane trials instead of scheme trials"),
	}
	fs.IntVar(&c.minimize, "minimize", 200, "max re-checks spent minimizing a failure (0 disables)")
	fs.IntVar(&c.par, "parallel", 0, "trial worker count (0 = GOMAXPROCS, 1 = serial)")
	fs.BoolVar(&c.verbose, "v", false, "log every trial")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	arm, modes := simcheck.Base.Name, 0
	if c.replay != "" {
		modes++
	}
	for name, n := range armTrials {
		if *n > 0 {
			arm, c.trials = name, *n
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(stderr, "v10check: at most one of -chaos, -workload, -isolation, -elastic and -replay may be set")
		return 2
	}
	if c.replay != "" {
		r, err := simcheck.ReadRepro(c.replay)
		if err != nil {
			return c.fail(err)
		}
		arm, c.repro = r.Arm, r.Scenario
	}

	drive := map[string]func(*cli) int{
		simcheck.Base.Name:      func(c *cli) int { return check(c, simcheck.Base) },
		simcheck.Workload.Name:  func(c *cli) int { return check(c, simcheck.Workload) },
		simcheck.Chaos.Name:     func(c *cli) int { return check(c, simcheck.Chaos) },
		simcheck.Isolation.Name: func(c *cli) int { return check(c, simcheck.Isolation) },
		simcheck.Elastic.Name:   func(c *cli) int { return check(c, simcheck.Elastic) },
	}[arm]
	if drive == nil {
		return c.fail(fmt.Errorf("%s: unknown arm %q", c.replay, arm))
	}
	return drive(c)
}

// check is the one path every arm takes: replay the repro or sweep the
// seeds, then minimize a sweep's failure, print every problem, and write the
// repro and (for the Scenario arms) the Chrome trace.
func check[S any](c *cli, h *simcheck.Harness[S]) int {
	var v *simcheck.Violation[S]
	if c.repro != nil {
		s, err := h.Decode(c.repro)
		if err != nil {
			return c.fail(err)
		}
		if v = h.Run(s); v == nil {
			fmt.Fprintf(c.stdout, "repro %s: %s trial clean\n", c.replay, h.Name)
			return 0
		}
	} else {
		var seed uint64
		if seed, v = sweep(c, h); v == nil {
			fmt.Fprintf(c.stdout, "v10check: %d %s trials from seed %d, zero violations\n", c.trials, h.Name, c.seed)
			return 0
		}
		fmt.Fprintf(c.stderr, "%s seed %d violated %d invariant(s)\n", h.Name, seed, len(v.Problems))
		if c.minimize > 0 {
			v = h.Minimize(v, c.minimize)
		}
	}

	for _, p := range v.Problems {
		fmt.Fprintf(c.stderr, "  - %s\n", p)
	}
	if c.out != "" {
		if err := v.WriteFile(c.out); err != nil {
			return c.fail(err)
		}
		fmt.Fprintf(c.stderr, "repro written to %s (replay with -replay %s)\n", c.out, c.out)
	}
	if sc, ok := any(v.Scenario).(*simcheck.Scenario); ok && c.trace != "" {
		if err := writeTrace(sc, c.trace); err != nil {
			return c.fail(err)
		}
		fmt.Fprintf(c.stderr, "timeline written to %s\n", c.trace)
	}
	return 1
}

// sweep runs trial seeds seed..seed+trials-1 through the harness on a worker
// pool, batch by batch, and returns the violation with the smallest seed (nil
// when clean). Batching keeps the first-failure semantics deterministic —
// every worker finishes its batch before violations are scanned in seed
// order — so a parallel sweep reports the same repro as a serial one.
func sweep[S any](c *cli, h *simcheck.Harness[S]) (uint64, *simcheck.Violation[S]) {
	batch := 8 * parallel.Workers(c.par)
	for lo := 0; lo < c.trials; lo += batch {
		hi := min(lo+batch, c.trials)
		vs, _ := parallel.Map(context.Background(), hi-lo, c.par, func(i int) (*simcheck.Violation[S], error) {
			s := c.seed + uint64(lo+i)
			if c.verbose {
				fmt.Fprintf(c.stdout, "%s trial %d/%d seed %d\n", h.Name, lo+i+1, c.trials, s)
			}
			return h.Trial(s), nil
		})
		for i, v := range vs {
			if v != nil {
				return c.seed + uint64(lo+i), v
			}
		}
	}
	return 0, nil
}

// writeTrace re-runs every scheme of a failing scenario with a Chrome trace
// writer as its tracer, one section per scheme.
func writeTrace(sc *simcheck.Scenario, path string) error {
	cw := obs.NewChromeWriter(sc.Config.CyclesPerMicrosecond())
	for _, scheme := range sc.Schemes {
		cw.BeginSection(scheme)
		simcheck.Execute(sc, scheme, false, cw) // run errors are already among the problems
	}
	return cw.WriteFile(path)
}

func (c *cli) fail(err error) int {
	fmt.Fprintln(c.stderr, "v10check:", err)
	return 1
}
