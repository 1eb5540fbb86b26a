package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"v10/internal/fleet"
	"v10/internal/tune"
)

// lastJSON parses the result line a run prints last.
func lastJSON(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each run passes its checks and prints exactly its metric set, every
// metric with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+traced, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "2", "--seconds", "0.01",
					"--trace", traced, "--trace-out", filepath.Join(t.TempDir(), "spans.json")}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
				}
				res := lastJSON(t, stdout.String())
				want := endToEnd
				if traced == "1" {
					want = perLayer
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, failed %d, attempted %d", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case m.Unit != d.unit || m.Unit == "":
						t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
					case traced == "0" && !(m.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
					if !strings.Contains(stdout.String(), d.name) {
						t.Errorf("metric %s not printed", d.name)
					}
				}
			})
		}
	}
}

func TestBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-pairs", "--trace", "2"},
		{"--workload", "paper-pairs", "--seconds", "0"},
		{},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%q: exit %d with stdout %q, want exit 2 and no result", args, code, stdout.String())
		}
	}
}

func TestTamperedFleetResultFails(t *testing.T) {
	good := func() *fleet.Result {
		return &fleet.Result{
			Offered: 10, Admitted: 7, Shed: 3, Completed: 7, Good: 6, GoodputHz: 5,
			Tenants: []fleet.TenantStats{{Name: "a", Offered: 10, Admitted: 7, Shed: 3, Completed: 7, Good: 6}},
		}
	}
	if err := checkFleet(good()); err != nil {
		t.Fatalf("untampered result rejected: %v", err)
	}
	for name, tamper := range map[string]func(r *fleet.Result){
		"lost request":       func(r *fleet.Result) { r.Shed-- },
		"phantom completion": func(r *fleet.Result) { r.Completed = 8 },
		"good above done":    func(r *fleet.Result) { r.Tenants[0].Good = 8 },
		"zero goodput":       func(r *fleet.Result) { r.GoodputHz = 0 },
	} {
		r := good()
		tamper(r)
		if checkFleet(r) == nil {
			t.Errorf("%s: tampered result passed the check", name)
		}
	}
}

func TestTamperedPairRatiosFail(t *testing.T) {
	ok := map[string]float64{}
	for k := range paperRef {
		ok[k] = 1.5
	}
	if err := checkPairs(ok); err != nil {
		t.Fatalf("untampered ratios rejected: %v", err)
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		m := map[string]float64{}
		for k, v := range ok {
			m[k] = v
		}
		m["sim_stp_x_pmt"] = bad
		if checkPairs(m) == nil {
			t.Errorf("ratio %v passed the check", bad)
		}
	}
	delete(ok, "sim_util_x_pmt")
	if checkPairs(ok) == nil {
		t.Error("missing ratio passed the check")
	}
}

func TestTamperedTuneResultFails(t *testing.T) {
	corpus, err := tune.DefaultCorpus(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tune.Search(tune.Options{Seed: 3, Generations: 1, Population: 2, Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTune(res, tune.Verify(res, corpus, 0)); err != nil {
		t.Fatalf("untampered search rejected: %v", err)
	}
	res.Best.Objectives.Goodput *= 1.1
	if checkTune(res, tune.Verify(res, corpus, 0)) == nil {
		t.Error("tampered objectives passed the check")
	}
	res.Best.Objectives.Goodput /= 1.1
	res.Evaluations = tuneCandidates + 1
	if checkTune(res, nil) == nil {
		t.Error("more evaluations than candidates passed the check")
	}
}

// fakeWorkloads swaps the workload table for the test's own.
func fakeWorkloads(t *testing.T, ws ...workloadDef) {
	t.Helper()
	saved := workloads
	workloads = ws
	t.Cleanup(func() { workloads = saved })
}

func TestDigestDriftFails(t *testing.T) {
	n := 0
	drifting := workloadDef{name: "drift", prepare: func(env) (func() (outcome, error), error) {
		return func() (outcome, error) {
			n++
			return outcome{sim: map[string]float64{}, digest: uint64(n), attempted: 1}, nil
		}, nil
	}}
	fakeWorkloads(t, drifting)
	res, err := measure(drifting, options{seed: 1, seconds: 0.001}, &bytes.Buffer{})
	if res == nil || res.Correct || res.Failed == 0 || err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("digest drift not reported: result %+v, err %v", res, err)
	}
}

func TestMissingMetricFails(t *testing.T) {
	silent := workloadDef{name: "silent", prepare: func(env) (func() (outcome, error), error) {
		return func() (outcome, error) {
			return outcome{sim: map[string]float64{}, digest: 7, attempted: 1}, nil
		}, nil
	}}
	fakeWorkloads(t, silent)
	res, err := measure(silent, options{seed: 1, seconds: 0.001}, &bytes.Buffer{})
	if res == nil || res.Correct || err == nil || !strings.Contains(err.Error(), "sim_util_x_pmt missing") {
		t.Fatalf("missing metric not reported: result %+v, err %v", res, err)
	}
}
