package simcheck

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"reflect"

	"v10/internal/metrics"
	"v10/internal/obs"
	"v10/internal/trace"
)

// fluidCycles mirrors the fluid pool's completion arithmetic for a task
// running alone: rate 1 unless the operator's bandwidth demand exceeds
// capacity, then capacity/demand, with sim's exact epsilon-ceiling rounding.
// Computed independently here so the serial oracle does not trust the code
// under test.
func fluidCycles(op trace.Op, capacity float64) int64 {
	work := float64(op.Compute)
	if work <= 0 {
		work = 1e-9
	}
	rate := 1.0
	if op.Compute > 0 {
		demand := op.HBMBytes / float64(op.Compute)
		if demand > capacity {
			rate = capacity / demand
		}
	}
	q := work/rate - 1e-9
	if q <= 0 {
		return 0
	}
	ic := float64(int64(q))
	if q > ic {
		return int64(ic) + 1
	}
	return int64(ic)
}

// serialExpectation returns the tiled operator stream and the exact
// uncontended per-request cycle count for workload wi under the scheme.
func serialExpectation(sc *Scenario, scheme string, wi int) ([]trace.Op, int64) {
	ops := sc.tiledOps(sc.Workloads[wi], scheme)
	lat := sc.DispatchLatency
	if scheme == SchemePMT {
		lat = 0
	}
	capacity := sc.Config.HBMBytesPerCycle()
	var perReq int64
	for _, op := range ops {
		perReq += op.Stall + lat + fluidCycles(op, capacity)
	}
	return ops, perReq
}

// checkSerial is the single-workload differential oracle: with no tenant to
// contend with, every scheme must behave exactly like serial execution — no
// preemptions, makespan = requests x the independently computed per-request
// time, and every traced stall/run span matching the operator it executes.
func checkSerial(sc *Scenario, out *Outcome) []string {
	if !sc.serial() || out.Result == nil || out.Err != nil {
		return nil
	}
	var problems []string
	ops, perReq := serialExpectation(sc, out.Scheme, 0)
	res := out.Result
	if want := int64(sc.Requests) * perReq; res.TotalCycles != want {
		problems = append(problems, fmt.Sprintf(
			"serial oracle: makespan %d, expected %d requests x %d cycles = %d",
			res.TotalCycles, sc.Requests, perReq, want))
	}
	st := res.Workloads[0]
	if st.Preemptions != 0 {
		problems = append(problems, fmt.Sprintf("serial oracle: %d preemptions with a single workload", st.Preemptions))
	}
	for i, lat := range st.LatencyCycles {
		if lat != float64(perReq) {
			problems = append(problems, fmt.Sprintf("serial oracle: request %d latency %g, expected %d", i, lat, perReq))
			break
		}
	}
	capacity := sc.Config.HBMBytesPerCycle()
	runSeg, stallSeg := 0, 0
	for _, e := range out.Events {
		switch e.Type {
		case obs.EvRunSegment:
			op := ops[runSeg%len(ops)]
			if want := fluidCycles(op, capacity); e.Dur != want {
				problems = append(problems, fmt.Sprintf(
					"serial oracle: run segment %d spans %d cycles, op %d computes in %d", runSeg, e.Dur, runSeg%len(ops), want))
				return problems
			}
			runSeg++
		case obs.EvStall:
			op := ops[stallSeg%len(ops)]
			if e.Dur != op.Stall {
				problems = append(problems, fmt.Sprintf(
					"serial oracle: stall %d spans %d cycles, op %d stalls %d", stallSeg, e.Dur, stallSeg%len(ops), op.Stall))
				return problems
			}
			stallSeg++
		}
	}
	return problems
}

// statsEqual compares two workload measurements field-by-field, ignoring the
// display name (clone-symmetry runs swap names, nothing else).
func statsEqual(a, b *metrics.WorkloadStats) bool {
	x, y := *a, *b
	x.Name, y.Name = "", ""
	return reflect.DeepEqual(x, y)
}

// checkCloneSymmetry is the exact permutation oracle for clone scenarios:
// with identical workloads at identical priorities, submission order is the
// only difference — so running the set reversed must reproduce the forward
// run index-for-index (all tie-breaks are index-based and deterministic).
func checkCloneSymmetry(fwd, rev *Outcome) []string {
	var problems []string
	if (fwd.Err == nil) != (rev.Err == nil) {
		return append(problems, fmt.Sprintf("clone oracle: forward err %v, reversed err %v", fwd.Err, rev.Err))
	}
	if fwd.Result == nil || rev.Result == nil {
		return problems
	}
	if fwd.Result.TotalCycles != rev.Result.TotalCycles {
		problems = append(problems, fmt.Sprintf(
			"clone oracle: forward makespan %d, reversed %d", fwd.Result.TotalCycles, rev.Result.TotalCycles))
	}
	if len(fwd.Result.Workloads) == len(rev.Result.Workloads) {
		for i := range fwd.Result.Workloads {
			if !statsEqual(fwd.Result.Workloads[i], rev.Result.Workloads[i]) {
				problems = append(problems, fmt.Sprintf(
					"clone oracle: workload slot %d measured differently forward (%+v) vs reversed (%+v)",
					i, fwd.Result.Workloads[i], rev.Result.Workloads[i]))
				break
			}
		}
	}
	return problems
}

// fairnessFloor is the minimum per-workload ActiveCycles below which ratio
// comparisons drown in integer noise and are skipped.
const fairnessFloor = 5000

// checkCloneFairness bounds intra-run completion skew between clones under
// the V10 schemes: with operator-granular scheduling, identical workloads at
// equal priority must finish their request quota at comparable times. The
// metric is the sum of request latencies (closed loop: the cycle the last
// counted request completed) — raw ActiveCycles is unusable because an
// early-finishing clone over-serves until the slowest one is done. PMT is
// exempt: with a quantum far above a clone's service time, whole slices of
// over-service before the last clone's first slice are exactly the coarse-
// grained unfairness the paper ascribes to it.
func checkCloneFairness(out *Outcome, bound float64) []string {
	if out.Result == nil || out.Err != nil || out.Scheme == SchemePMT {
		return nil
	}
	lo, hi := -1.0, -1.0
	for _, st := range out.Result.Workloads {
		t := sumLatency(st)
		if lo < 0 || t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	// Worst legitimate case: requests dominated by one huge non-preemptible
	// operator complete in pure rotation, so the last of n clones finishes
	// ~n× after the first. Scale the bound accordingly.
	if n := float64(len(out.Result.Workloads)); bound < n+1 {
		bound = n + 1
	}
	if lo < fairnessFloor {
		return nil
	}
	if hi > bound*lo {
		return []string{fmt.Sprintf(
			"clone fairness: request-quota completion spread %g..%g exceeds %gx between identical equal-priority workloads",
			lo, hi, bound)}
	}
	return nil
}

// checkPermutationFair is the bounded permutation oracle for heterogeneous
// equal-priority sets: reversing submission order must not change any
// workload's completion time or the makespan by more than the bound. The
// per-workload metric is the sum of request latencies — in the closed loop
// latencies telescope, so the sum is exactly when the last counted request
// finished. (ActiveCycles is NOT comparable across orders: over-serving keeps
// fast workloads accumulating service until the slowest tenant finishes, so
// their totals legitimately depend on submission order.)
// Submission order can phase-shift any workload's completion by up to one
// full rotation of every tenant's request (a tiny workload scheduled last
// waits out everyone else's non-preemptible operators), so the comparison
// allows an additive one-rotation slack on top of the multiplicative bound.
func checkPermutationFair(sc *Scenario, fwd, rev *Outcome, latencyBound, makespanBound float64) []string {
	var problems []string
	if (fwd.Err == nil) != (rev.Err == nil) {
		return append(problems, fmt.Sprintf("permutation oracle: forward err %v, reversed err %v", fwd.Err, rev.Err))
	}
	if fwd.Result == nil || rev.Result == nil || fwd.Err != nil {
		return problems
	}
	var slack float64
	for wi := range sc.Workloads {
		_, perReq := serialExpectation(sc, fwd.Scheme, wi)
		slack += float64(perReq)
	}
	if fwd.Scheme == SchemePMT {
		// PMT rotates in whole-core quanta, not operators: going last costs
		// up to a full rotation of everyone's slice plus switch overhead.
		quantum := sc.PMTQuantum
		if quantum <= 0 {
			quantum = 1_400_000
		}
		slack += float64(len(sc.Workloads)) * float64(quantum+sc.Config.PMTContextSwitchCycles(1))
	}
	f, r := float64(fwd.Result.TotalCycles), float64(rev.Result.TotalCycles)
	if f > fairnessFloor && r > fairnessFloor {
		if f > makespanBound*r+slack || r > makespanBound*f+slack {
			problems = append(problems, fmt.Sprintf(
				"permutation oracle: makespan %g forward vs %g reversed (> %gx + one rotation apart)", f, r, makespanBound))
		}
	}
	byName := map[string]*metrics.WorkloadStats{}
	for _, st := range rev.Result.Workloads {
		byName[st.Name] = st
	}
	for _, st := range fwd.Result.Workloads {
		rst := byName[st.Name]
		if rst == nil {
			problems = append(problems, fmt.Sprintf("permutation oracle: workload %s missing from reversed run", st.Name))
			continue
		}
		a, b := sumLatency(st), sumLatency(rst)
		if a < fairnessFloor || b < fairnessFloor {
			continue
		}
		if a > latencyBound*b+slack || b > latencyBound*a+slack {
			problems = append(problems, fmt.Sprintf(
				"permutation oracle: %s finished its requests at cycle %g forward vs %g reversed (> %gx + one rotation apart)",
				st.Name, a, b, latencyBound))
		}
	}
	return problems
}

// sumLatency totals a workload's request latencies. Closed loop: the cycle
// its last counted request completed.
func sumLatency(st *metrics.WorkloadStats) float64 {
	var t float64
	for _, l := range st.LatencyCycles {
		t += l
	}
	return t
}

// EventDigest is a Tracer that folds every event, field by field in
// emission order, into a running SHA-256, so the determinism oracle compares
// two runs' full event streams in constant memory.
type EventDigest struct {
	N   int // events folded so far
	h   hash.Hash
	buf []byte
}

// Emit implements obs.Tracer.
func (d *EventDigest) Emit(e obs.Event) {
	if d.h == nil {
		d.h = sha256.New()
	}
	b := d.buf[:0]
	for _, x := range [...]int64{e.Time, e.Dur, int64(e.Type), int64(e.WIdx), int64(e.FUKind),
		int64(e.FUIndex), int64(e.Request), int64(e.Op), int64(len(e.Workload))} {
		b = binary.LittleEndian.AppendUint64(b, uint64(x))
	}
	b = append(b, e.Workload...)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Arg0))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Arg1))
	d.h.Write(b)
	d.buf = b
	d.N++
}

// Sum returns the digest of every event emitted so far.
func (d *EventDigest) Sum() (sum [sha256.Size]byte) {
	if d.h != nil {
		d.h.Sum(sum[:0])
	}
	return sum
}

// checkDeterminism reruns one scheme and requires a bit-identical result and
// event stream: the simulator's contract is full determinism per seed.
func checkDeterminism(a, b *Outcome) []string {
	var problems []string
	if (a.Err == nil) != (b.Err == nil) {
		return append(problems, fmt.Sprintf("determinism oracle: first run err %v, rerun err %v", a.Err, b.Err))
	}
	if !reflect.DeepEqual(a.Result, b.Result) {
		problems = append(problems, "determinism oracle: rerunning the same scheme produced a different result")
	}
	if a.Digest.N != b.Digest.N || a.Digest.Sum() != b.Digest.Sum() {
		problems = append(problems, fmt.Sprintf(
			"determinism oracle: rerun emitted %d events vs %d, or with different contents", b.Digest.N, a.Digest.N))
	}
	return problems
}
