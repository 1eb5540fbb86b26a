package v10

import (
	"fmt"
	"math"
	"testing"

	"v10/internal/collocate"
	"v10/internal/models"
)

// exampleFleet builds the collocation_advisor example's eight services and
// trains its advisor.
func exampleFleet(t *testing.T) ([]*Workload, *Advisor) {
	t.Helper()
	cfg := DefaultConfig()
	batch := map[string]int{
		"BERT": 32, "Transformer": 32, "ResNet": 32, "RetinaNet": 32,
		"DLRM": 32, "NCF": 32, "MNIST": 32, "ShapeMask": 8,
	}
	var ws []*Workload
	for i, name := range []string{"BERT", "Transformer", "ResNet", "RetinaNet", "DLRM", "NCF", "MNIST", "ShapeMask"} {
		w, err := NewWorkload(name, batch[name], uint64(i+1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	adv, err := TrainAdvisor(ws, AdvisorOptions{Clusters: 4, ProfileRequests: 3, PairSamples: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return ws, adv
}

// TestSimulateClusterPinned pins SimulateCluster's exact outputs on the
// example fleet, for advisor and naive placement under V10-Full and PMT.
func TestSimulateClusterPinned(t *testing.T) {
	ws, adv := exampleFleet(t)
	placements := map[string]Placement{
		"advisor": adv.PlanPlacement(ws),
		"naive":   NaivePlacement(len(ws)),
	}
	want := []struct {
		placement, layout string
		pmt               bool
		stp, util, worst  float64
		norm              []float64
	}{
		{"advisor", "[[0 5] [2 6] [3 7] [1 4]]", false, 5.951679534524404, 0.4427395521312578, 0.6346964953987786,
			[]float64{0.9015855193226098, 0.8328027967808206, 0.6682051219225997, 0.6782979331055285, 0.6346964953987786, 0.6923899478067607, 0.7896652475746162, 0.7540364726126887}},
		{"advisor", "[[0 5] [2 6] [3 7] [1 4]]", true, 3.9449942561797604, 0.29205094021146105, 0.4837908970641891,
			[]float64{0.4928024304390269, 0.4938770289937573, 0.502230854605674, 0.4965298703820448, 0.4946848573033373, 0.4900085076554027, 0.4837908970641891, 0.4910698097363288}},
		{"naive", "[[0 1] [2 3] [4 5] [6 7]]", false, 5.732332483054016, 0.42546854747729995, 0.5949915781418021,
			[]float64{0.6228483234935246, 0.7377564032449384, 0.7482742474632154, 0.773696076457175, 0.5949915781418021, 0.8032788793292297, 0.7397647825711801, 0.7117221923529506}},
		{"naive", "[[0 1] [2 3] [4 5] [6 7]]", true, 3.9429029137506006, 0.29157156733595285, 0.4843058141594114,
			[]float64{0.492177361245275, 0.49192867843830934, 0.5003241789688517, 0.4843058141594114, 0.49841058810804656, 0.4890413113808863, 0.4957953432375716, 0.49091963821224854}},
	}
	for _, w := range want {
		p := placements[w.placement]
		if got := fmt.Sprint(p); got != w.layout {
			t.Fatalf("%s placement = %s, want %s", w.placement, got, w.layout)
		}
		scheme := SchemeV10Full
		if w.pmt {
			scheme = SchemePMT
		}
		res, err := SimulateCluster(ws, p, scheme, Options{Requests: 5})
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalSTP != w.stp || res.AggUtil != w.util || res.WorstTenant != w.worst ||
			fmt.Sprint(res.Normalized) != fmt.Sprint(w.norm) {
			t.Errorf("%s pmt=%v: STP %v util %v worst %v norm %v, want %v %v %v %v", w.placement, w.pmt,
				res.TotalSTP, res.AggUtil, res.WorstTenant, res.Normalized, w.stp, w.util, w.worst, w.norm)
		}
	}
}

// TestPlanPairsMatchesPlanPlacement checks that the pair plan is exactly the
// two-tenant cores of the placement plan, with the rest running alone.
func TestPlanPairsMatchesPlanPlacement(t *testing.T) {
	cfg := DefaultConfig()
	var ws []*Workload
	for i, name := range []string{"BERT", "DLRM", "NCF", "ResNet", "Transformer", "MNIST"} {
		w, err := NewWorkload(name, 32, uint64(i+1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	adv, err := TrainAdvisor(ws, AdvisorOptions{Clusters: 3, ProfileRequests: 2, PairSamples: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pairs, alone := adv.PlanPairs(ws)
	var wantPairs [][2]int
	var wantAlone []int
	for _, g := range adv.PlanPlacement(ws) {
		switch len(g) {
		case 2:
			wantPairs = append(wantPairs, [2]int{g[0], g[1]})
		case 1:
			wantAlone = append(wantAlone, g[0])
		default:
			t.Fatalf("placement core %v is neither a pair nor a singleton", g)
		}
	}
	if fmt.Sprint(pairs) != fmt.Sprint(wantPairs) || fmt.Sprint(alone) != fmt.Sprint(wantAlone) {
		t.Fatalf("PlanPairs = %v / %v, PlanPlacement gives %v / %v", pairs, alone, wantPairs, wantAlone)
	}
	if len(pairs) == 0 {
		t.Fatal("no pairs planned; the comparison is vacuous")
	}
}

// modelFleet builds each named model at its reference batch, seeded by
// position.
func modelFleet(t *testing.T, names []string) []*Workload {
	t.Helper()
	cfg := DefaultConfig()
	var ws []*Workload
	for i, n := range names {
		s, ok := models.ByName(n)
		if !ok {
			t.Fatalf("unknown model %s", n)
		}
		ws = append(ws, s.Workload(s.RefBatch, uint64(i+1), cfg))
	}
	return ws
}

// stubAdvisor trains an advisor on a stubbed pair-performance table (one
// feature's distance) instead of pairwise simulations, profiling features
// at depth 2.
func stubAdvisor(t *testing.T, ws []*Workload, seed uint64) *Advisor {
	t.Helper()
	cfg := DefaultConfig()
	adv := &Advisor{cfg: cfg, requests: 2}
	perf := func(a, b *Workload) (float64, error) {
		fa := collocate.ExtractFeatures(a, cfg, 1)
		fb := collocate.ExtractFeatures(b, cfg, 1)
		return 1 + math.Abs(fa.Vec[7]-fb.Vec[7]), nil
	}
	model, err := collocate.Train(ws, adv.features(ws), perf, collocate.TrainConfig{K: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	adv.model = model
	return adv
}

func TestPlacementValidate(t *testing.T) {
	if err := (Placement{{0, 1}, {2}}).Validate(3); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}
	cases := []Placement{
		{{0, 1}},         // workload 2 unplaced
		{{0, 1}, {1, 2}}, // workload 1 twice
		{{0, 1}, {}},     // empty core
		{{0, 5}},         // out of range
	}
	for i, p := range cases {
		if p.Validate(3) == nil {
			t.Errorf("bad placement %d accepted", i)
		}
	}
}

func TestNaivePlacementShape(t *testing.T) {
	p := NaivePlacement(5)
	if err := p.Validate(5); err != nil {
		t.Fatal(err)
	}
	if p.Cores() != 3 || len(p[2]) != 1 {
		t.Fatalf("naive placement wrong: %v", p)
	}
}

func TestAdvisorPlacementCoversAll(t *testing.T) {
	ws := modelFleet(t, []string{"BERT", "DLRM", "NCF", "ResNet", "Transformer", "MNIST"})
	p := stubAdvisor(t, ws, 1).PlanPlacement(ws)
	if err := p.Validate(len(ws)); err != nil {
		t.Fatalf("advisor placement invalid: %v", err)
	}
}

func TestClusterRunV10BeatsPMT(t *testing.T) {
	ws := modelFleet(t, []string{"BERT", "NCF", "DLRM", "ResNet"})
	p := Placement{{0, 1}, {2, 3}} // complementary pairs
	v10res, err := SimulateCluster(ws, p, SchemeV10Full, Options{Requests: 3})
	if err != nil {
		t.Fatal(err)
	}
	pmtRes, err := SimulateCluster(ws, p, SchemePMT, Options{Requests: 3})
	if err != nil {
		t.Fatal(err)
	}
	if v10res.TotalSTP <= pmtRes.TotalSTP {
		t.Fatalf("cluster V10 STP %v <= PMT %v", v10res.TotalSTP, pmtRes.TotalSTP)
	}
	if v10res.CoresUsed != 2 || len(v10res.PerCore) != 2 {
		t.Fatalf("core accounting wrong: %+v", v10res)
	}
	// Four workloads on two cores: should deliver well over 2 cores' worth.
	if v10res.TotalSTP < 2.4 {
		t.Fatalf("cluster STP = %v, want > 2.4", v10res.TotalSTP)
	}
	if v10res.WorstTenant <= 0 || v10res.WorstTenant > 1.1 {
		t.Fatalf("worst tenant progress = %v", v10res.WorstTenant)
	}
	if v10res.AggUtil <= pmtRes.AggUtil {
		t.Fatalf("cluster V10 util %v <= PMT %v", v10res.AggUtil, pmtRes.AggUtil)
	}
}

func TestClusterRejectsBadPlacement(t *testing.T) {
	ws := modelFleet(t, []string{"BERT", "NCF"})
	if _, err := SimulateCluster(ws, Placement{{0}}, SchemeV10Full, Options{Requests: 2}); err == nil {
		t.Fatal("incomplete placement accepted")
	}
}

func TestClusterSingleWorkloadCores(t *testing.T) {
	ws := modelFleet(t, []string{"MNIST"})
	res, err := SimulateCluster(ws, Placement{{0}}, SchemeV10Full, Options{Requests: 3})
	if err != nil {
		t.Fatal(err)
	}
	// A dedicated core delivers ≈ 1.0 normalized progress.
	if res.Normalized[0] < 0.9 || res.Normalized[0] > 1.1 {
		t.Fatalf("dedicated-core progress = %v, want ≈ 1", res.Normalized[0])
	}
}

func TestAdvisorGroupsRespectsCapAndCoverage(t *testing.T) {
	ws := modelFleet(t, []string{"BERT", "DLRM", "NCF", "ResNet", "Transformer", "MNIST", "RetinaNet"})
	adv := stubAdvisor(t, ws, 4)
	for _, cap := range []int{1, 2, 3, 4} {
		p := adv.PlanGroups(ws, cap)
		if err := p.Validate(len(ws)); err != nil {
			t.Fatalf("cap %d: invalid placement: %v", cap, err)
		}
		for _, g := range p {
			if len(g) > cap {
				t.Fatalf("cap %d violated: group %v", cap, g)
			}
		}
	}
	// Larger caps should never need more cores.
	small := adv.PlanGroups(ws, 2).Cores()
	large := adv.PlanGroups(ws, 4).Cores()
	if large > small {
		t.Fatalf("cap 4 uses %d cores, cap 2 uses %d", large, small)
	}
}

// TestAdvisorApplyBeforeTunedKnobs pins the order serving callers must use:
// the tuned collocation threshold lands only on options that already carry
// the advisor's model.
func TestAdvisorApplyBeforeTunedKnobs(t *testing.T) {
	ws := modelFleet(t, []string{"BERT", "DLRM", "NCF"})
	adv := stubAdvisor(t, ws, 1)
	knobs := BuiltinTunedKnobs()
	opt := FleetOptions{Policy: PlaceAdvisor}
	got := knobs.Apply(adv.Apply(opt))
	if got.Model == nil || got.ProfileRequests != 2 || got.CollocationThreshold != knobs.CollocationThreshold {
		t.Fatalf("advisor then knobs: model %v, profile requests %d, threshold %v",
			got.Model != nil, got.ProfileRequests, got.CollocationThreshold)
	}
	if rev := adv.Apply(knobs.Apply(opt)); rev.CollocationThreshold != 0 {
		t.Fatalf("knobs before the advisor kept threshold %v; the gating changed", rev.CollocationThreshold)
	}
}
