package simcheck

// shrinkCandidates proposes one-step simplifications of a base or workload
// scenario, most aggressive first: fewer schemes, fewer workloads, fewer
// requests, fewer and simpler operators, then default knobs.
func shrinkCandidates(s *Scenario) []*Scenario {
	var out []*Scenario
	add := func(c *Scenario) {
		if !zeroDurationWorkload(c) {
			out = append(out, c)
		}
	}

	if len(s.Schemes) > 1 {
		for _, scheme := range s.Schemes {
			c := s.clone()
			c.Schemes = []string{scheme}
			add(c)
		}
	}
	if len(s.Workloads) > 1 {
		for i := range s.Workloads {
			c := s.clone()
			c.Workloads = dropAt(c.Workloads, i)
			if s.ArrivalCycles != nil { // keep each schedule with its workload
				c.ArrivalCycles = dropAt(c.ArrivalCycles, i)
			}
			c.Clones = c.Clones && len(c.Workloads) > 1
			add(c)
		}
	}
	if s.Requests > 1 {
		c := s.clone()
		c.Requests = 1
		add(c)
	}
	for i := range s.Workloads {
		if len(s.Workloads[i].Ops) > 1 {
			for j := range s.Workloads[i].Ops {
				c := s.clone()
				c.Workloads[i].Ops = dropAt(c.Workloads[i].Ops, j)
				c.Clones = false
				add(c)
			}
		}
		for j := range s.Workloads[i].Ops {
			for _, f := range []func(*OpSpec){
				func(o *OpSpec) { o.Stall = 0 },
				func(o *OpSpec) { o.HBMBytes = 0 },
				func(o *OpSpec) { o.VMemBytes = 0 },
				func(o *OpSpec) { o.Efficiency = 0 },
			} {
				c := s.clone()
				f(&c.Workloads[i].Ops[j])
				if c.Workloads[i].Ops[j] == s.Workloads[i].Ops[j] {
					continue // field already zero
				}
				c.Clones = false
				add(c)
			}
		}
	}
	for _, f := range []func(*Scenario) bool{
		func(c *Scenario) bool { c.DispatchLatency = 0; return s.DispatchLatency != 0 },
		func(c *Scenario) bool { c.PreemptMargin = 0; return s.PreemptMargin != 0 },
		func(c *Scenario) bool { c.VMemReloadFactor = 0.5; return s.VMemReloadFactor != 0.5 },
		func(c *Scenario) bool { c.ArrivalRateHz = 0; return s.ArrivalRateHz != 0 },
		func(c *Scenario) bool { c.PMTQuantum = 0; return s.PMTQuantum != 0 },
		func(c *Scenario) bool { c.PMTPrema = false; return s.PMTPrema },
		func(c *Scenario) bool { c.PMTWeighted = false; return s.PMTWeighted },
	} {
		c := s.clone()
		if f(c) {
			add(c)
		}
	}
	return out
}

// zeroDurationWorkload rejects candidates where some workload's every
// operator has zero compute and zero stall: in the closed loop such a
// workload chains events at a single timestamp forever (the generator's
// balanceDurations floor rules this out for generated scenarios).
func zeroDurationWorkload(s *Scenario) bool {
	for _, w := range s.Workloads {
		var t int64
		for _, op := range w.Ops {
			t += op.Compute + op.Stall
		}
		if t == 0 {
			return true
		}
	}
	return false
}

// clone deep-copies the scenario (Config is a plain value struct). The
// arrival rows themselves are shared: shrinking drops rows, never edits one.
func (s *Scenario) clone() *Scenario {
	c := *s
	c.Schemes = append([]string(nil), s.Schemes...)
	c.ArrivalCycles = append([][]int64(nil), s.ArrivalCycles...)
	c.Workloads = make([]WorkloadSpec, len(s.Workloads))
	for i, w := range s.Workloads {
		w.Ops = append([]OpSpec(nil), w.Ops...)
		c.Workloads[i] = w
	}
	return &c
}
