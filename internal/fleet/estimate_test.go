package fleet

import (
	"testing"

	"v10/internal/models"
	"v10/internal/npu"
	"v10/internal/trace"
)

// serialSum is the float64 sum of every operator's stall+compute cycles.
func serialSum(g *trace.Graph) float64 {
	var s float64
	for _, op := range g.Ops {
		s += float64(op.Stall + op.Compute)
	}
	return s
}

// TestTilingKeepsSerialCycles: tiling splits each operator's integer stall
// and compute exactly (the first tile carries the remainders), so summing a
// tiled graph gives the same float64 bits as summing the untiled one — for
// every model at batch 1, 8 and its reference batch, three requests each,
// at vector-memory partitions VMem/1 … VMem/16. The service-time estimator
// relies on this to skip tiling.
func TestTilingKeepsSerialCycles(t *testing.T) {
	cfg := npu.DefaultConfig()
	cases := 0
	for _, s := range models.Specs() {
		for _, b := range []int{1, 8, s.RefBatch} {
			w := s.Workload(b, 5, cfg)
			for rq := 0; rq < 3; rq++ {
				g := w.Request(rq)
				want := serialSum(g)
				for div := int64(1); div <= 16; div++ {
					if got := serialSum(trace.TileForVMem(g, cfg.VMemBytes/div, 0.5)); got != want {
						t.Fatalf("%s b%d request %d at VMem/%d: tiled sum %v, untiled %v",
							s.Abbrev, b, rq, div, got, want)
					}
					cases++
				}
			}
			// The estimator's half-core tiling changes no bits either.
			tiledMean := 0.0
			for rq := 0; rq < 3; rq++ {
				tiledMean += serialSum(trace.TileForVMem(w.Request(rq), cfg.VMemBytes/2, 0.5))
			}
			tiledMean /= 3
			if got := EstimateServeCycles(w, cfg, 3); got != tiledMean {
				t.Fatalf("%s b%d: EstimateServeCycles = %v, tiled reference %v", s.Abbrev, b, got, tiledMean)
			}
		}
	}
	if want := len(models.Specs()) * 3 * 3 * 16; cases != want {
		t.Fatalf("checked %d cases, want %d", cases, want)
	}
}
