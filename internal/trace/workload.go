package trace

import (
	"fmt"
	"sync"

	"v10/internal/mathx"
)

// Workload is a deployed inference service: a model at a fixed batch size
// that repeatedly serves requests. Request graphs vary slightly from request
// to request (input-dependent operator lengths), produced deterministically
// by the generator.
type Workload struct {
	Name     string  // display name, e.g. "BERT-b32"
	Model    string  // model family, e.g. "BERT"
	Batch    int     // inference batch size
	Priority float64 // relative scheduling priority (> 0); 1 is default

	gen     func(request int) *Graph // plain generator (NewWorkload)
	genInto func(request int, g *Graph) *Graph
	// memo holds the request graphs genInto already produced. It is a
	// pointer so shallow copies (WithPriority, callers' struct copies) share
	// one memo and copying a Workload copies no lock.
	memo *graphMemo
}

// memoBudgetOps caps the operators one workload's memo holds: 2^16 ops is
// about 6 MB at 96 B per Op. It covers every request a fleet run or a tuner
// generation revisits; only the long single-tenant tails of the largest
// models (DLRM, RetinaNet) run past it, onto the scratch path.
const memoBudgetOps = 1 << 16

// graphMemo is a goroutine-safe memo of a dense prefix of a workload's
// request graphs: graphs[i] is request i. Memoized graphs are shared by
// every caller and never written after they are stored.
type graphMemo struct {
	mu     sync.Mutex
	graphs []*Graph
	ops    int  // operators held across graphs, at most memoBudgetOps
	full   bool // request len(graphs) did not fit: the prefix is final
}

// lookup returns request i's memoized graph, or nil. grow reports that i is
// the next request of an open prefix, so a fresh graph for it may be added.
func (m *graphMemo) lookup(i int) (g *Graph, grow bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i < len(m.graphs) {
		return m.graphs[i], false
	}
	return nil, i == len(m.graphs) && !m.full
}

// add memoizes fresh as request i, the next request of the prefix, unless
// it would take the memo past its budget, which closes the prefix. It
// returns the memoized graph (a concurrent caller's, if it added request i
// first) or nil when fresh stays with the caller.
func (m *graphMemo) add(i int, fresh *Graph) *Graph {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case i < len(m.graphs):
		return m.graphs[i]
	case m.full:
		return nil
	case m.ops+len(fresh.Ops) > memoBudgetOps:
		m.full = true
		return nil
	}
	m.graphs = append(m.graphs, fresh)
	m.ops += len(fresh.Ops)
	return fresh
}

// NewWorkload builds a workload around a request-graph generator. gen must be
// deterministic in its argument. Priority defaults to 1.
func NewWorkload(name, model string, batch int, gen func(request int) *Graph) *Workload {
	if gen == nil {
		panic("trace: nil workload generator")
	}
	return &Workload{Name: name, Model: model, Batch: batch, Priority: 1, gen: gen}
}

// WithPriority returns a shallow copy of w with the given priority. The copy
// shares w's request-graph memo.
func (w *Workload) WithPriority(p float64) *Workload {
	if p <= 0 {
		panic(fmt.Sprintf("trace: non-positive priority %v", p))
	}
	c := *w
	c.Priority = p
	return &c
}

// NewWorkloadReusable builds a workload around a buffer-reusing generator:
// genInto must produce the i-th request graph into g (reusing g.Ops and
// g.DepsBuf when non-nil; allocating a fresh graph when g is nil) and return
// it. genInto must be deterministic in its request argument and stateless
// apart from the passed-in buffer, so concurrent callers with distinct
// scratch graphs are safe (the fleet runs cores in parallel against shared
// Workload values).
//
// The workload memoizes the graphs it generates, up to a fixed operator
// budget, so a request served again (by another run, core or profile pass)
// is not regenerated. Every graph it returns is then either caller-owned or
// a shared memoized graph that nobody writes (see RequestInto).
func NewWorkloadReusable(name, model string, batch int, genInto func(request int, g *Graph) *Graph) *Workload {
	if genInto == nil {
		panic("trace: nil workload generator")
	}
	return &Workload{
		Name: name, Model: model, Batch: batch, Priority: 1,
		genInto: genInto,
		memo:    &graphMemo{},
	}
}

// Request returns the operator graph for the i-th request (0-based). The
// graph may be shared with other callers: treat it as read-only.
func (w *Workload) Request(i int) *Graph {
	g, _ := w.RequestInto(i, nil)
	return g
}

// RequestInto returns the i-th request graph, reusing the caller-owned
// scratch graph g when the workload's generator supports it. The boolean
// reports whether the caller owns the returned graph's storage: true means
// it is private to the caller (safe to alias its Ops and to pass back as
// scratch for the next request), false means the graph may be shared — an
// immutable memoized graph, or a plain generator's graph (NewWorkload),
// which carries no immutability promise — so the caller must not write it
// or pass it back as scratch.
func (w *Workload) RequestInto(i int, g *Graph) (*Graph, bool) {
	if w.genInto == nil {
		return w.gen(i), false
	}
	shared, grow := w.memo.lookup(i)
	if shared != nil {
		return shared, false
	}
	if !grow {
		// Past the memo: generate into the caller's scratch.
		return w.genInto(i, g), true
	}
	fresh := w.genInto(i, nil)
	if shared := w.memo.add(i, fresh); shared != nil {
		return shared, false
	}
	return fresh, true
}

// OpStream hands a runner the operator streams of one workload's successive
// requests, keeping the buffers it reuses between them: caller-owned scratch
// for requests past the memo, a copy buffer for plain generators, and the
// tiling output with its remap scratch.
type OpStream struct {
	scratch *Graph
	buf     []Op
	tiled   Graph // tiled operators; DepsBuf backs every tile's Deps
	remap   []int // old operator ID → ID of its final tile
}

// Load returns request i of w tiled for a vector-memory partition (the
// operators TileForVMem would produce), in execution order. Tiling writes
// into the stream's own buffers, so a steady-state Load allocates nothing.
// An untiled private (scratch) or immutable memoized graph is aliased, not
// copied; only a plain generator's graph is copied. The slice is valid until
// the next Load and must not be written.
func (s *OpStream) Load(w *Workload, i int, partition int64, reloadFactor float64) []Op {
	g, owned := w.RequestInto(i, s.scratch)
	if owned {
		s.scratch = g
	}
	if s.tile(g, partition, reloadFactor) {
		// Tiled graphs carry dense ascending IDs, like generated ones, so
		// the stream is the Ops slice itself — no copy, no sort.
		return s.tiled.Ops
	}
	if owned || w.memo != nil {
		return g.Ops
	}
	s.buf = g.LinearizeInto(s.buf[:0])
	return s.buf
}

// tile is TileForVMem into s.tiled, reusing its Ops and DepsBuf and the remap
// scratch. Both buffers are sized before filling, so no append reallocates
// under a Deps slice already handed out. It reports false, writing nothing,
// when g needs no tiling.
func (s *OpStream) tile(g *Graph, partition int64, reloadFactor float64) bool {
	if partition <= 0 {
		return false
	}
	nOps, nDeps := 0, 0
	for i := range g.Ops {
		op := &g.Ops[i] // index, not range by value: an Op is ~100 bytes
		k := int(tileCount(op, partition))
		nOps += k
		nDeps += len(op.Deps) + k - 1
	}
	if nOps == len(g.Ops) {
		return false
	}
	out := &s.tiled
	if cap(out.Ops) < nOps {
		out.Ops = make([]Op, 0, nOps)
	}
	if cap(out.DepsBuf) < nDeps {
		out.DepsBuf = make([]int, 0, nDeps)
	}
	if cap(s.remap) < len(g.Ops) {
		s.remap = make([]int, len(g.Ops))
	}
	ops, deps, remap := out.Ops[:0], out.DepsBuf[:0], s.remap[:len(g.Ops)]
	clear(remap) // TileForVMem starts from a zeroed remap
	for i := range g.Ops {
		op := &g.Ops[i]
		k := tileCount(op, partition)
		from := len(deps)
		for _, d := range op.Deps {
			deps = append(deps, remap[d])
		}
		opDeps := deps[from:len(deps):len(deps)]
		totalHBM := op.HBMBytes * (1 + reloadFactor*float64(k-1))
		for t := int64(0); t < k; t++ {
			tile := Op{
				ID:         len(ops),
				Kind:       op.Kind,
				Compute:    op.Compute / k,
				Stall:      op.Stall / k,
				Efficiency: op.Efficiency,
				FLOPs:      op.FLOPs / float64(k),
				HBMBytes:   totalHBM / float64(k),
				VMemBytes:  mathx.MinInt64(op.VMemBytes, partition),
				Deps:       opDeps,
			}
			if t == 0 {
				tile.Compute += op.Compute % k
				tile.Stall += op.Stall % k
			}
			ops = append(ops, tile)
			if t+1 < k {
				deps = append(deps, tile.ID) // the next tile chains on this one
				opDeps = deps[len(deps)-1 : len(deps) : len(deps)]
			}
		}
		remap[op.ID] = len(ops) - 1
	}
	out.Ops, out.DepsBuf = ops, deps
	return true
}

// tileCount is how many tiles TileForVMem splits op into.
func tileCount(op *Op, partition int64) int64 {
	if op.VMemBytes > partition {
		return (op.VMemBytes + partition - 1) / partition
	}
	return 1
}

// TileForVMem rewrites g so that no operator's vector-memory footprint
// exceeds partition bytes. An oversized operator is split into k equal tiles
// executed back to back; each reload of intermediate data from HBM loses
// on-chip reuse, so total HBM traffic grows by reloadFactor per extra tile
// (the Fig. 24 effect). partition <= 0 returns g unchanged.
func TileForVMem(g *Graph, partition int64, reloadFactor float64) *Graph {
	if partition <= 0 {
		return g
	}
	needsTiling := false
	for _, op := range g.Ops {
		if op.VMemBytes > partition {
			needsTiling = true
			break
		}
	}
	if !needsTiling {
		return g
	}
	out := &Graph{Ops: make([]Op, 0, len(g.Ops))}
	// remap[oldID] = new ID of the final tile of that operator.
	remap := make([]int, len(g.Ops))
	for _, op := range g.Ops {
		k := tileCount(&op, partition)
		deps := make([]int, len(op.Deps))
		for i, d := range op.Deps {
			deps[i] = remap[d]
		}
		totalHBM := op.HBMBytes * (1 + reloadFactor*float64(k-1))
		for t := int64(0); t < k; t++ {
			tile := Op{
				ID:         len(out.Ops),
				Kind:       op.Kind,
				Compute:    op.Compute / k,
				Stall:      op.Stall / k,
				Efficiency: op.Efficiency,
				FLOPs:      op.FLOPs / float64(k),
				HBMBytes:   totalHBM / float64(k),
				VMemBytes:  mathx.MinInt64(op.VMemBytes, partition),
				Deps:       deps,
			}
			if t == 0 {
				// Distribute rounding remainders onto the first tile.
				tile.Compute += op.Compute % k
				tile.Stall += op.Stall % k
			}
			out.Ops = append(out.Ops, tile)
			deps = []int{tile.ID} // later tiles chain on the previous tile
		}
		remap[op.ID] = len(out.Ops) - 1
	}
	return out
}
