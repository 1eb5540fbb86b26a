package baseline

import (
	"testing"

	"v10/internal/metrics"
	"v10/internal/trace"
)

// appendAllocs counts the allocations of appending n values one at a time to
// a nil slice, as the runner grows each workload's latency samples.
func appendAllocs(n int) int {
	var s []float64
	allocs := 0
	for i := 0; i < n; i++ {
		if len(s) == cap(s) {
			allocs++
		}
		s = append(s, 0)
	}
	return allocs
}

// TestPMTAllocsFlatInRequests: on memoized workloads (tiled for their fifth
// of vector memory), doubling the requests per workload adds no
// allocations beyond the growth of the latency slices. Stall, slice,
// context-switch and operator-completion events are pooled, and operator
// streams reuse their buffers.
func TestPMTAllocsFlatInRequests(t *testing.T) {
	// Five Transformers share the core evenly, so each serves about the
	// same number of requests and stays inside its graph memo.
	var ws []*trace.Workload
	for i := 0; i < 5; i++ {
		ws = append(ws, modelWL(t, "TFMR", 32, uint64(i+1)))
	}
	run := func(requests int) (allocs float64, latencyAllocs int) {
		opts := PMTOptions{Policy: PMTPrema, RequestsPerWorkload: requests, Seed: 1}
		var res *metrics.RunResult
		allocs = testing.AllocsPerRun(2, func() {
			var err error
			if res, err = RunPMT(ws, opts); err != nil {
				t.Fatal(err)
			}
		})
		for _, w := range res.Workloads {
			latencyAllocs += appendAllocs(len(w.LatencyCycles))
		}
		return allocs, latencyAllocs
	}
	a48, l48 := run(48)
	a96, l96 := run(96)
	if extra := (a96 - float64(l96)) - (a48 - float64(l48)); extra > 0 {
		t.Fatalf("RunPMT allocates %v objects at 48 requests and %v at 96: %v more than the latency slices' growth (%d → %d)",
			a48, a96, extra, l48, l96)
	}
}
