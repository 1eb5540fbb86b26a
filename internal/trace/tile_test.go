package trace_test

import (
	"testing"

	"v10/internal/models"
	"v10/internal/npu"
	"v10/internal/trace"
)

// sameOps reports whether two operator streams match field for field,
// comparing dependency lists by their contents.
func sameOps(a, b []trace.Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || x.Kind != y.Kind || x.Compute != y.Compute || x.Stall != y.Stall ||
			x.Efficiency != y.Efficiency || x.FLOPs != y.FLOPs || x.HBMBytes != y.HBMBytes ||
			x.VMemBytes != y.VMemBytes || len(x.Deps) != len(y.Deps) {
			return false
		}
		for j := range x.Deps {
			if x.Deps[j] != y.Deps[j] {
				return false
			}
		}
	}
	return true
}

// TestOpStreamTilingMatchesTileForVMem: every model at batch 1, 8 and its
// reference batch, loaded through one reused OpStream at vector-memory
// partitions VMem/1 … VMem/16, yields exactly TileForVMem's operators.
func TestOpStreamTilingMatchesTileForVMem(t *testing.T) {
	cfg := npu.DefaultConfig()
	tiled := 0
	for _, s := range models.Specs() {
		for _, b := range []int{1, 8, s.RefBatch} {
			w := s.Workload(b, 3, cfg)
			var stream trace.OpStream
			for div := int64(1); div <= 16; div++ {
				part := cfg.VMemBytes / div
				for rq := 0; rq < 2; rq++ {
					g := w.Request(rq)
					want := trace.TileForVMem(g, part, 0.5).Linearize()
					got := stream.Load(w, rq, part, 0.5)
					if !sameOps(got, want) {
						t.Fatalf("%s b%d request %d at VMem/%d: OpStream tiling differs from TileForVMem",
							s.Abbrev, b, rq, div)
					}
					if len(want) != len(g.Ops) {
						tiled++
					}
				}
			}
		}
	}
	if tiled == 0 {
		t.Fatal("no case needed tiling; the check compared only untiled streams")
	}
}

// TestOpStreamTilingAllocFree: once its buffers have grown, a stream tiles
// memoized requests without allocating.
func TestOpStreamTilingAllocFree(t *testing.T) {
	cfg := npu.DefaultConfig()
	s, _ := models.ByName("BERT")
	w := s.Workload(s.RefBatch, 1, cfg)
	part := cfg.VMemBytes / 8
	var stream trace.OpStream
	for rq := 0; rq < 2; rq++ {
		if ops := stream.Load(w, rq, part, 0.5); len(ops) == len(w.Request(rq).Ops) {
			t.Fatalf("request %d needs no tiling at VMem/8; the check would not tile", rq)
		}
	}
	rq := 0
	allocs := testing.AllocsPerRun(100, func() {
		stream.Load(w, rq, part, 0.5)
		rq ^= 1
	})
	if allocs != 0 {
		t.Fatalf("steady-state tiling Load allocates %.1f objects/op, want 0", allocs)
	}
}
