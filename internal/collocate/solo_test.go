package collocate

import (
	"fmt"
	"strings"
	"testing"

	"v10/internal/baseline"
	"v10/internal/models"
	"v10/internal/sched"
	"v10/internal/trace"
)

// pairPerfReference recomputes one pair's V10-Full/PMT STP ratio from
// scratch, with the pair's own single-tenant runs.
func pairPerfReference(t *testing.T, a, b *trace.Workload, requests int) float64 {
	t.Helper()
	pair := []*trace.Workload{a, b}
	rates, err := baseline.SingleTenantRates(pair, cfg, requests)
	if err != nil {
		t.Fatal(err)
	}
	pmt, err := baseline.RunPMT(pair, baseline.PMTOptions{Config: cfg, RequestsPerWorkload: requests, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := sched.FullOptions()
	opts.Config = cfg
	opts.RequestsPerWorkload = requests
	full, err := sched.Run(pair, opts)
	if err != nil {
		t.Fatal(err)
	}
	return full.STP(rates) / pmt.STP(rates)
}

// TestSimPairPerfMatchesPerPairRates: the oracle's answer for every pair of
// four tenants equals the per-pair single-tenant-rates path, however many
// pairs share a tenant's solo run. The memo is symmetric, so the reversed
// query returns the first order's value.
func TestSimPairPerfMatchesPerPairRates(t *testing.T) {
	var ws []*trace.Workload
	for i, name := range []string{"NCF", "MNIST", "ResNet", "Transformer"} {
		s, _ := models.ByName(name)
		ws = append(ws, s.Workload(8, uint64(i+1), cfg))
	}
	const requests = 2
	perf := SimPairPerf(cfg, requests)
	for i, a := range ws {
		for j, b := range ws {
			if i >= j {
				continue
			}
			got, err := perf(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if want := pairPerfReference(t, a, b, requests); got != want {
				t.Fatalf("%s+%s: SimPairPerf = %v, per-pair path %v", a.Name, b.Name, got, want)
			}
			if rev, err := perf(b, a); err != nil || rev != got {
				t.Fatalf("%s+%s reversed: %v, %v; want %v", b.Name, a.Name, rev, err, got)
			}
		}
	}
}

// TestSimPairPerfSoloErrorNamesTenant: a failing single-tenant run is
// reported under the tenant's name.
func TestSimPairPerfSoloErrorNamesTenant(t *testing.T) {
	bad := cfg
	bad.NumVU = -1
	s, _ := models.ByName("NCF")
	a, b := s.Workload(8, 1, cfg), s.Workload(8, 2, cfg)
	b.Name = "NCF-other"
	_, err := SimPairPerf(bad, 1)(a, b)
	if err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("single-tenant %s: ", a.Name)) {
		t.Fatalf("err = %v, want it to name tenant %s", err, a.Name)
	}
}
