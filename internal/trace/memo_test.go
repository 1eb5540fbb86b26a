package trace

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// sizedWorkload is a memoized workload whose request i has size(i) chained
// operators; calls counts generator invocations.
func sizedWorkload(size func(int) int, calls *atomic.Int64) *Workload {
	return NewWorkloadReusable("sized", "Sized", 1, func(i int, g *Graph) *Graph {
		if calls != nil {
			calls.Add(1)
		}
		if g == nil {
			g = &Graph{}
		}
		n := size(i)
		g.Ops = g.Ops[:0]
		g.DepsBuf = g.DepsBuf[:0]
		for k := 0; k < n; k++ {
			op := Op{ID: k, Kind: Kind(k % 2), Compute: int64(100*i + k + 1)}
			if k > 0 {
				g.DepsBuf = append(g.DepsBuf, k-1)
			}
			g.Ops = append(g.Ops, op)
		}
		for k := 1; k < n; k++ {
			g.Ops[k].Deps = g.DepsBuf[k-1 : k]
		}
		return g
	})
}

// TestMemoBudgetBoundary: the memo keeps a dense prefix of requests up to,
// never past, its operator budget; later requests are caller-owned scratch
// equal to a fresh generation, and memo hits stay shared.
func TestMemoBudgetBoundary(t *testing.T) {
	size := func(i int) int { return 1000 + 37*(i%5) }
	w := sizedWorkload(size, nil)
	var held []*Graph
	for i := 0; ; i++ {
		if i > memoBudgetOps {
			t.Fatal("memo never closed")
		}
		g, owned := w.RequestInto(i, nil)
		if owned {
			break
		}
		held = append(held, g)
	}
	if w.memo.ops > memoBudgetOps {
		t.Fatalf("memo holds %d ops, budget %d", w.memo.ops, memoBudgetOps)
	}
	n := len(held)
	if w.memo.ops+size(n) <= memoBudgetOps {
		t.Fatalf("memo closed at request %d with room for it (%d + %d ops)", n, w.memo.ops, size(n))
	}
	for i, want := range held {
		if g, owned := w.RequestInto(i, nil); g != want || owned {
			t.Fatalf("request %d: memo hit returned %p (owned %v), want shared %p", i, g, owned, want)
		}
	}

	fresh := sizedWorkload(size, nil)
	var scratch *Graph
	for i := n; i < n+3; i++ {
		g, owned := w.RequestInto(i, scratch)
		if !owned {
			t.Fatalf("request %d past the budget is not caller-owned", i)
		}
		if scratch != nil && g != scratch {
			t.Fatalf("request %d did not reuse the caller's scratch", i)
		}
		scratch = g
		if want := fresh.genInto(i, nil); !reflect.DeepEqual(g.Ops, want.Ops) {
			t.Fatalf("request %d: scratch graph differs from a fresh generation", i)
		}
	}
	if w.memo.ops > memoBudgetOps || len(w.memo.graphs) != n {
		t.Fatalf("memo grew past its closed prefix: %d graphs, %d ops", len(w.memo.graphs), w.memo.ops)
	}
}

// TestMemoSkipAheadNotMemoized: a request beyond the memoized prefix is
// generated into caller scratch and leaves the prefix dense.
func TestMemoSkipAheadNotMemoized(t *testing.T) {
	w := sizedWorkload(func(int) int { return 4 }, nil)
	if _, owned := w.RequestInto(5, nil); !owned {
		t.Fatal("request past the prefix was memoized")
	}
	if len(w.memo.graphs) != 0 {
		t.Fatalf("memo holds %d graphs, want 0", len(w.memo.graphs))
	}
}

// TestMemoSharedByCopies: WithPriority and plain struct copies share one
// memo, so a graph generated through any of them serves all.
func TestMemoSharedByCopies(t *testing.T) {
	var calls atomic.Int64
	w := sizedWorkload(func(int) int { return 8 }, &calls)
	hi := w.WithPriority(4)
	c := *w
	g := hi.Request(0)
	if w.Request(0) != g || c.Request(0) != g {
		t.Fatal("copies returned different graphs for request 0")
	}
	if calls.Load() != 1 {
		t.Fatalf("generator ran %d times for one request, want 1", calls.Load())
	}
}

// TestPlainWorkloadNotMemoized: a plain generator's graphs are passed
// through untouched and never reported as caller-owned.
func TestPlainWorkloadNotMemoized(t *testing.T) {
	var calls int
	w := NewWorkload("p", "P", 1, func(int) *Graph {
		calls++
		return &Graph{Ops: []Op{{ID: 0, Compute: 1}}}
	})
	if _, owned := w.RequestInto(0, nil); owned {
		t.Fatal("plain generator graph reported caller-owned")
	}
	w.Request(0)
	if calls != 2 {
		t.Fatalf("plain generator ran %d times for two requests, want 2", calls)
	}
}

// TestMemoConcurrentRequests: goroutines racing through the same requests,
// each with its own scratch, all receive one shared graph per index.
func TestMemoConcurrentRequests(t *testing.T) {
	const workers, requests = 8, 64
	w := sizedWorkload(func(i int) int { return 16 + i%7 }, nil)
	got := make([][]*Graph, workers)
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var scratch *Graph
			for i := 0; i < requests; i++ {
				g, owned := w.RequestInto(i, scratch)
				if owned {
					scratch = g
				}
				got[k] = append(got[k], g)
			}
		}(k)
	}
	wg.Wait()
	if len(w.memo.graphs) != requests {
		t.Fatalf("memo holds %d graphs, want %d", len(w.memo.graphs), requests)
	}
	for k := range got {
		for i, g := range got[k] {
			if g != w.memo.graphs[i] {
				t.Fatalf("worker %d request %d: got %p, memo holds %p", k, i, g, w.memo.graphs[i])
			}
		}
	}
}

// TestOpStreamAliasesOnlyImmutable: OpStream aliases memoized and
// caller-owned graphs and copies a plain generator's, reusing its buffers.
func TestOpStreamAliasesOnlyImmutable(t *testing.T) {
	w := sizedWorkload(func(int) int { return 6 }, nil)
	var s OpStream
	if ops := s.Load(w, 0, 0, 0); &ops[0] != &w.Request(0).Ops[0] {
		t.Fatal("memoized graph was copied, want aliased")
	}

	shared := &Graph{Ops: []Op{{ID: 0, Compute: 5}, {ID: 1, Compute: 7, Deps: []int{0}}}}
	plain := NewWorkload("p", "P", 1, func(int) *Graph { return shared })
	var p OpStream
	first := p.Load(plain, 0, 0, 0)
	if &first[0] == &shared.Ops[0] || !reflect.DeepEqual(first, shared.Ops) {
		t.Fatal("plain generator graph was aliased, want an equal copy")
	}
	if again := p.Load(plain, 1, 0, 0); &again[0] != &first[0] {
		t.Fatal("copy buffer not reused across requests")
	}

	// A plain graph that needs tiling is served from a fresh tiling, and
	// the graph it came from is left untouched.
	big := &Graph{Ops: []Op{{ID: 0, Compute: 8, VMemBytes: 4}}}
	tiledPlain := NewWorkload("t", "T", 1, func(int) *Graph { return big })
	var q OpStream
	if ops := q.Load(tiledPlain, 0, 2, 0); len(ops) != 2 || len(big.Ops) != 1 {
		t.Fatalf("tiling into 2 tiles gave %d ops (source now %d)", len(ops), len(big.Ops))
	}
}
