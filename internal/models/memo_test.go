package models_test

import (
	"reflect"
	"testing"

	"v10/internal/baseline"
	"v10/internal/metrics"
	"v10/internal/models"
	"v10/internal/npu"
	"v10/internal/sched"
	"v10/internal/trace"
)

// runBoth runs a V10-Full and a PMT simulation of ws.
func runBoth(t *testing.T, ws []*trace.Workload, cfg npu.CoreConfig, requests int) [2]*metrics.RunResult {
	t.Helper()
	o := sched.FullOptions()
	o.Config = cfg
	o.RequestsPerWorkload = requests
	full, err := sched.Run(ws, o)
	if err != nil {
		t.Fatal(err)
	}
	pmt, err := baseline.RunPMT(ws, baseline.PMTOptions{Config: cfg, RequestsPerWorkload: requests, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return [2]*metrics.RunResult{full, pmt}
}

// checkAliasedEqualsCopied runs two tenants of the model at batch twice:
// once as memoized workloads (whose operator streams the runners alias),
// once with the same generators wrapped through plain trace.NewWorkload
// (which the runners copy). Both schemes must give identical results. It
// returns the memoized workloads.
func checkAliasedEqualsCopied(t *testing.T, s models.Spec, batch, requests int) []*trace.Workload {
	t.Helper()
	cfg := npu.DefaultConfig()
	memo := []*trace.Workload{s.Workload(batch, 11, cfg), s.Workload(batch, 12, cfg)}
	plain := []*trace.Workload{s.PlainWorkload(batch, 11, cfg), s.PlainWorkload(batch, 12, cfg)}
	got, want := runBoth(t, memo, cfg, requests), runBoth(t, plain, cfg, requests)
	for i, scheme := range []string{"V10-Full", "PMT"} {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s b%d %s: aliased run differs from copied run", s.Abbrev, batch, scheme)
		}
	}
	return memo
}

// TestAliasedStreamsBitIdentical: for every model at two batch sizes,
// aliasing memoized graphs gives the same V10-Full and PMT results as
// copying freshly generated ones.
func TestAliasedStreamsBitIdentical(t *testing.T) {
	for _, s := range models.Specs() {
		for _, b := range []int{1, s.RefBatch} {
			checkAliasedEqualsCopied(t, s, b, 3)
		}
	}
}

// TestPastBudgetStreamsBitIdentical runs the model with the largest request
// graphs (the fewest requests to fill the memo) past its memo budget, so the
// tail of each run is served from caller-owned scratch, and requires the
// same results as the copying path.
func TestPastBudgetStreamsBitIdentical(t *testing.T) {
	s, _ := models.ByName("SMask")
	for _, b := range []int{1, s.RefBatch} {
		// Count the requests the memo holds before it closes.
		probe := s.Workload(b, 11, npu.DefaultConfig())
		held := 0
		for ; ; held++ {
			if _, owned := probe.RequestInto(held, nil); owned {
				break
			}
		}
		requests := held + 2
		for _, w := range checkAliasedEqualsCopied(t, s, b, requests) {
			if _, owned := w.RequestInto(requests-1, nil); !owned {
				t.Fatalf("%s: request %d still memoized; the run never passed the budget", w.Name, requests-1)
			}
		}
	}
}
