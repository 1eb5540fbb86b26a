package baseline

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"testing"

	"v10/internal/metrics"
	"v10/internal/obs"
	"v10/internal/trace"
)

// hashTracer folds every emitted event into a SHA-256.
type hashTracer struct{ h hash.Hash }

func (t hashTracer) Emit(e obs.Event) { fmt.Fprintf(t.h, "%+v\n", e) }

// resultDigest hashes every field of a run result (the busy tracker by
// value, each workload's stats including the latency samples).
func resultDigest(res *metrics.RunResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d %d %d %d %v %+v %+v\n", res.Scheme, res.TotalCycles, res.HaltedAt,
		res.NumSA, res.NumVU, res.HBMCapacity, *res.Busy, res.Slices)
	for _, w := range res.Workloads {
		fmt.Fprintf(h, "%+v\n", *w)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// pinWorkloads is a five-tenant mix whose vector-memory partition (a fifth
// of the core) tiles the Transformer's largest operators.
func pinWorkloads(t *testing.T) []*trace.Workload {
	t.Helper()
	return []*trace.Workload{
		modelWL(t, "TFMR", 32, 1),
		modelWL(t, "BERT", 32, 2).WithPriority(2),
		modelWL(t, "RNRS", 32, 3),
		modelWL(t, "NCF", 8, 4).WithPriority(0.5),
		modelWL(t, "MNST", 8, 5).WithPriority(3),
	}
}

// TestPMTPinned pins the traced event stream and the result of four PMT
// runs (round robin, PREMA, priority-weighted slices with per-workload
// targets, and a cycle-capped run) to the SHA-256 digests they produced
// before the runner moved to pooled events: the event order, and every
// number derived from it, must stay bit-identical.
func TestPMTPinned(t *testing.T) {
	cases := []struct {
		name         string
		opts         PMTOptions
		capped       bool
		events, stat string
	}{
		{"rr", PMTOptions{RequestsPerWorkload: 3, Seed: 1}, false,
			"ee59ffd6ccaef72ce5220d57e8ddd4c78854fc2e3a33662ce919785d0735db57",
			"dbcf028707784411abf2ae81652005b72c89ec3da13a87a0532b09ca28690407"},
		{"prema", PMTOptions{Policy: PMTPrema, RequestsPerWorkload: 3, Seed: 2}, false,
			"9224f7cf0081be8c2ef5828c9195d3b70c837b36169b2d5dc8d03abe3eb9d372",
			"b857f7a2420b27194ac0da7430997255b85fb9f28c0baf98adceb484ff6a99bd"},
		{"weighted-targets", PMTOptions{WeightByPriority: true, RequestTargets: []int{3, 1, 2, 0, 4}, Seed: 3}, false,
			"c983591a1c9ab67b99f74872f87fffcff0150c95281a3a706f2bb6e2de865dab",
			"a1f30a840f10fecac58eac5ae9399d055204a4697fd9913927c541295ad179d2"},
		{"capped", PMTOptions{Policy: PMTPrema, RequestsPerWorkload: 50, MaxCycles: 9_000_000, Seed: 4}, true,
			"aa0a7c30fb46a892c24f22df4e6af22fe391296e235af9935da91bdb39e66aeb",
			"c9753e407e4e783614eb49f2174185322b62574d24663e208af9c50ca47a5bbf"},
	}
	for _, c := range cases {
		h := sha256.New()
		c.opts.Tracer = hashTracer{h}
		res, err := RunPMT(pinWorkloads(t), c.opts)
		if c.capped != errors.Is(err, ErrMaxCycles) || (!c.capped && err != nil) {
			t.Fatalf("%s: err = %v, capped = %v", c.name, err, c.capped)
		}
		if err != nil {
			fmt.Fprintln(h, err)
		}
		events := fmt.Sprintf("%x", h.Sum(nil))
		stat := resultDigest(res)
		if events != c.events || stat != c.stat {
			t.Errorf("%s: events %s result %s, want %s %s", c.name, events, stat, c.events, c.stat)
		}
	}
}
