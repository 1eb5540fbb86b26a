package models

import (
	"v10/internal/npu"
	"v10/internal/trace"
)

// PlainWorkload is Workload with the raw generator wrapped through
// trace.NewWorkload instead: no memo, and graphs that runners must copy.
func (s Spec) PlainWorkload(batch int, seed uint64, cfg npu.CoreConfig) *trace.Workload {
	d := s.derive(batch, cfg)
	name := s.Workload(batch, seed, cfg).Name
	return trace.NewWorkload(name, s.Name, batch, func(request int) *trace.Graph {
		return buildGraph(s, d, seed, request)
	})
}
