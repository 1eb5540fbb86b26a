package simcheck

import (
	"errors"
	"fmt"

	"v10/internal/baseline"
	"v10/internal/metrics"
	"v10/internal/obs"
	"v10/internal/sched"
)

// Outcome is one scheme's run: its result, a digest of its event stream, and
// every invariant the Checker flagged. Events holds the full stream only for
// single-workload closed-loop runs, the one case the serial oracle replays;
// everywhere else the digest keeps a run's memory independent of its length.
type Outcome struct {
	Scheme   string
	Result   *metrics.RunResult
	Events   []obs.Event
	Digest   EventDigest
	Problems []string
	Err      error
}

// RunScheme executes one scheme over the scenario with the invariant checker
// and the event digest riding the tracer hook. reversed flips the workload
// submission order (the permutation oracles' second run).
func RunScheme(sc *Scenario, scheme string, reversed bool) *Outcome {
	out := &Outcome{Scheme: scheme}
	ck := NewChecker(sc, scheme, reversed)
	tracer := obs.Multi(ck, &out.Digest)
	var log obs.Log
	if sc.serial() {
		tracer = obs.Multi(tracer, &log)
	}
	res, err := Execute(sc, scheme, reversed, tracer)
	out.Result, out.Err, out.Events = res, err, log.Events
	if err != nil && !errors.Is(err, sched.ErrMaxCycles) {
		out.Problems = append(out.Problems, fmt.Sprintf("run error: %v", err))
	}
	out.Problems = append(out.Problems, ck.Finalize(res, err)...)
	return out
}

// Execute runs one scheme over the scenario with an arbitrary tracer and no
// checking — the raw substrate under RunScheme, also used by the mutation
// tests to wedge fault-injecting tracers between runner and checker.
func Execute(sc *Scenario, scheme string, reversed bool, tracer obs.Tracer) (*metrics.RunResult, error) {
	wls := sc.buildWorkloads(reversed)
	if scheme == SchemePMT {
		policy := baseline.PMTRoundRobin
		if sc.PMTPrema {
			policy = baseline.PMTPrema
		}
		return baseline.RunPMT(wls, baseline.PMTOptions{
			Config:              sc.Config,
			Policy:              policy,
			Quantum:             sc.PMTQuantum,
			RequestsPerWorkload: sc.Requests,
			MaxCycles:           sc.MaxCycles,
			Seed:                sc.Seed,
			WeightByPriority:    sc.PMTWeighted,
			Tracer:              tracer,
		})
	}
	opts := sched.Options{
		Config:              sc.Config,
		RequestsPerWorkload: sc.Requests,
		MaxCycles:           sc.MaxCycles,
		PreemptMargin:       sc.PreemptMargin,
		VMemReloadFactor:    sc.VMemReloadFactor,
		DispatchLatency:     sc.DispatchLatency,
		ArrivalRateHz:       sc.ArrivalRateHz,
		ArrivalCycles:       sc.ArrivalCycles,
		Seed:                sc.Seed,
		Tracer:              tracer,
	}
	switch scheme {
	case SchemeBase:
		opts.Policy = sched.RoundRobin
	case SchemeFair:
		opts.Policy = sched.Priority
	case SchemeFull:
		opts.Policy = sched.Priority
		opts.Preemption = true
	default:
		return nil, fmt.Errorf("simcheck: unknown scheme %q", scheme)
	}
	return sched.Run(wls, opts)
}

// CheckScenario runs every scheme the scenario names through the invariant
// checker and the differential oracles, returning nil when all pass.
func CheckScenario(sc *Scenario) []string {
	var problems []string
	report := func(scheme string, msgs []string) {
		for _, m := range msgs {
			problems = append(problems, scheme+": "+m)
		}
	}

	outs := make([]*Outcome, len(sc.Schemes))
	for i, scheme := range sc.Schemes {
		out := RunScheme(sc, scheme, false)
		outs[i] = out
		report(scheme, out.Problems)
		if errors.Is(out.Err, sched.ErrMaxCycles) {
			report(scheme, []string{fmt.Sprintf(
				"livelock: exceeded the generous %d-cycle budget without serving every workload", sc.MaxCycles)})
		}
		report(scheme, checkSerial(sc, out))
		report(scheme, checkScheduleConformance(sc, out))
	}

	// Determinism: re-executing the first scheme must be bit-identical.
	report(sc.Schemes[0], checkDeterminism(outs[0], RunScheme(sc, sc.Schemes[0], false)))

	// Permutation oracles: compare each scheme against a reversed-order run.
	// Clone sets get the exact oracle; heterogeneous equal-priority sets the
	// bounded one, but only in the closed loop (open-loop arrival streams are
	// seeded by run-order index, so reversing reassigns arrival patterns and
	// per-name latencies legitimately change). Skewed priorities
	// intentionally change per-order service and are excluded entirely.
	// Explicit schedules are bound to workload *positions*, so a reversed run
	// pairs each workload with a different schedule and per-name outcomes
	// legitimately change — skip the order-permutation oracles entirely.
	if len(sc.Workloads) >= 2 && sc.equalPriorities() && sc.ArrivalCycles == nil {
		for i, scheme := range sc.Schemes {
			rev := RunScheme(sc, scheme, true)
			report(scheme+" (reversed)", rev.Problems)
			if sc.Clones {
				report(scheme, checkCloneSymmetry(outs[i], rev))
				if sc.ArrivalRateHz == 0 {
					// Open-loop clone completion times are dominated by each
					// clone's independent arrival draws, not by scheduling.
					report(scheme, checkCloneFairness(outs[i], cloneFairBound))
				}
			} else if sc.ArrivalRateHz == 0 {
				report(scheme, checkPermutationFair(sc, outs[i], rev, permLatencyBound, permMakespanBound))
			}
		}
	}

	return problems
}

// Fairness-oracle bounds, validated over large seed sweeps with headroom (see
// TestTrialSweep). Tightening them is the easiest way to make the harness
// more sensitive — at the cost of false positives on degenerate mixes.
const (
	cloneFairBound    = 3.0
	permLatencyBound  = 4.0
	permMakespanBound = 2.0
)
