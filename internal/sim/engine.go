// Package sim provides the discrete-event machinery beneath the V10 and PMT
// simulators: an event heap driven in cycle time, plus a fluid-progress pool
// that advances concurrently executing operators at rates set by HBM
// bandwidth water-filling.
package sim

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle = int64

// Event is a scheduled callback. Events are single-shot; Cancel prevents a
// pending event from firing, and Engine.Reschedule moves it.
//
// Events come in two flavors. Schedule events carry a closure and live until
// the GC collects them — holding the returned handle past firing is safe
// (Cancel stays a no-op). ScheduleCall events carry a typed callback plus a
// payload and are recycled into the engine's free list the moment they fire
// or are dropped, so the simulator's hot path allocates nothing; their
// handles must not be retained or canceled after the callback has run.
type Event struct {
	At      Cycle
	seq     uint64
	fn      func(now Cycle)
	cb      func(payload any, now Cycle)
	payload any

	canceled bool
	pooled   bool // recycled after firing; allocated via ScheduleCall
	index    int  // heap index, -1 when popped
	eng      *Engine
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op. Canceled events are dropped lazily;
// once they outnumber the live ones the engine compacts its heap, so long
// runs with heavy preemption (which cancels completion events constantly)
// cannot accumulate garbage.
func (e *Event) Cancel() {
	if e == nil || e.canceled {
		return
	}
	e.canceled = true
	if e.eng == nil || e.index < 0 {
		return // already popped (fired or being fired)
	}
	e.eng.live--
	e.eng.dead++
	e.eng.canceled++
	if e.eng.dead > len(e.eng.events)/2 {
		e.eng.compact()
	}
}

// Engine is a deterministic discrete-event executor. The zero value is ready
// to use. An Engine is confined to a single goroutine; parallel simulations
// each own their engine (see internal/parallel).
//
// The event heap is hand-rolled (no container/heap interface dispatch) and
// ScheduleCall events are pooled, so steady-state stepping performs no heap
// allocations.
type Engine struct {
	now      Cycle
	seq      uint64
	events   []*Event // binary min-heap on (At, seq)
	free     []*Event // recycled pooled events
	live     int      // uncanceled events still in the heap
	dead     int      // canceled events still in the heap
	fired    uint64
	canceled uint64
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// EventStats reports the engine's lifetime event counters: how many events
// were scheduled, how many fired, and how many were canceled before firing.
// The difference (scheduled - fired - canceled) is the pending backlog; the
// cancel count is the churn preemption-heavy schedules put on the heap.
func (e *Engine) EventStats() (scheduled, fired, canceled uint64) {
	return e.seq, e.fired, e.canceled
}

// less orders the heap by firing time, ties by scheduling order.
func less(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

// push inserts ev into the heap.
func (e *Engine) push(ev *Event) {
	e.events = append(e.events, ev)
	e.siftUp(len(e.events) - 1)
}

func (e *Engine) siftUp(i int) {
	evs := e.events
	ev := evs[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := evs[parent]
		if !less(ev, p) {
			break
		}
		evs[i] = p
		p.index = i
		i = parent
	}
	evs[i] = ev
	ev.index = i
}

func (e *Engine) siftDown(i int) {
	evs := e.events
	n := len(evs)
	ev := evs[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && less(evs[r], evs[c]) {
			c = r
		}
		if !less(evs[c], ev) {
			break
		}
		evs[i] = evs[c]
		evs[i].index = i
		i = c
	}
	evs[i] = ev
	ev.index = i
}

// pop removes and returns the heap head.
func (e *Engine) pop() *Event {
	evs := e.events
	n := len(evs)
	top := evs[0]
	top.index = -1
	last := evs[n-1]
	evs[n-1] = nil
	e.events = evs[:n-1]
	if n > 1 {
		evs[0] = last
		last.index = 0
		e.siftDown(0)
	}
	return top
}

// alloc takes an event from the free list, or makes a fresh one.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{}
}

// release returns a popped event to the free list if it is pooled; closure
// events just drop their callback so the GC can take the captures early
// while the handle keeps its safe post-fire Cancel semantics.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	if !ev.pooled {
		return
	}
	ev.cb = nil
	ev.payload = nil
	ev.canceled = false
	e.free = append(e.free, ev)
}

// Schedule registers fn to run at cycle at. Scheduling in the past panics —
// that is always a simulator bug. Ties fire in scheduling order.
func (e *Engine) Schedule(at Cycle, fn func(now Cycle)) *Event {
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	e.seq++
	ev := &Event{At: at, seq: e.seq, fn: fn, eng: e}
	e.push(ev)
	e.live++
	return ev
}

// ScheduleCall registers cb(payload) to run at cycle at, drawing the event
// from the engine's pool: the simulator's hot paths use it to schedule
// without allocating a closure or an Event. The event is recycled as soon as
// it fires (or its cancellation is collected), so the returned handle must
// not be retained — or canceled — after the callback has run. Holders that
// keep the handle to allow cancellation must clear it at the top of cb.
func (e *Engine) ScheduleCall(at Cycle, cb func(payload any, now Cycle), payload any) *Event {
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	e.seq++
	ev := e.pushCall(at, e.seq, cb, payload)
	e.live++
	return ev
}

// pushCall inserts a pooled cb(payload) event with the given heap key.
func (e *Engine) pushCall(at Cycle, seq uint64, cb func(payload any, now Cycle), payload any) *Event {
	ev := e.alloc()
	ev.At = at
	ev.seq = seq
	ev.cb = cb
	ev.payload = payload
	ev.pooled = true
	ev.eng = e
	e.push(ev)
	return ev
}

// series is one ScheduleSeries stream: its next firing is the only one in
// the heap, keyed by the sequence number reserved for it.
type series struct {
	eng     *Engine
	times   []Cycle
	next    int    // index of the firing in the heap
	seq0    uint64 // sequence number reserved for times[0]
	cb      func(payload any, now Cycle)
	payload any
}

// ScheduleSeries registers cb(payload) to run once at each of times, which
// must be nondecreasing and not in the past. It fires exactly as len(times)
// ScheduleCall calls made here would — one scheduling sequence number is
// reserved per time, so every firing keeps its (At, seq) tie-break and
// EventStats counts each time as scheduled — but only the next firing
// occupies a heap slot: a long arrival stream costs O(log live) per pop
// instead of sifting through every future arrival. The engine reads times
// as the series fires, so the caller must not modify it; the series cannot
// be canceled.
func (e *Engine) ScheduleSeries(times []Cycle, cb func(payload any, now Cycle), payload any) {
	if len(times) == 0 {
		return
	}
	prev := e.now
	for _, at := range times {
		if at < prev {
			panic("sim: series time in the past or decreasing")
		}
		prev = at
	}
	s := &series{eng: e, times: times, seq0: e.seq + 1, cb: cb, payload: payload}
	e.seq += uint64(len(times))
	e.live += len(times)
	e.pushCall(times[0], s.seq0, seriesFire, s)
}

// seriesFire is the series trampoline: it pushes the following time with
// its reserved sequence number, then runs the series callback.
func seriesFire(payload any, now Cycle) {
	s := payload.(*series)
	s.next++
	if s.next < len(s.times) {
		s.eng.pushCall(s.times[s.next], s.seq0+uint64(s.next), seriesFire, s)
	}
	s.cb(s.payload, now)
}

// Reschedule moves a pending event to fire at cycle at. The event takes a
// fresh sequence number — the (At, seq) key Cancel followed by ScheduleCall
// would give it — and is sifted in place, so no dead entry is left in the
// heap. The dropped firing is counted as canceled, keeping EventStats equal
// to the Cancel-plus-schedule sequence. Rescheduling an event that is not
// pending (fired, firing, or canceled) panics.
func (e *Engine) Reschedule(ev *Event, at Cycle) {
	if ev.eng != e || ev.index < 0 || ev.canceled {
		panic("sim: rescheduling an event that is not pending")
	}
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	e.seq++
	e.canceled++
	ev.At = at
	ev.seq = e.seq
	e.siftUp(ev.index)
	e.siftDown(ev.index)
}

// After registers fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn func(now Cycle)) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.Schedule(e.now+delay, fn)
}

// Pending reports whether any uncanceled events remain. It is O(1): the
// engine tracks the live-event count as events are scheduled, canceled, and
// fired.
func (e *Engine) Pending() bool { return e.live > 0 }

// Step fires the next event. It returns false when no events remain.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := e.pop()
		if ev.canceled {
			e.dead--
			e.release(ev)
			continue
		}
		e.live--
		e.fired++
		e.now = ev.At
		if ev.cb != nil {
			ev.cb(ev.payload, e.now)
		} else {
			ev.fn(e.now)
		}
		// Recycle after the callback: during the call the event is in limbo
		// (popped, not pooled), so a self-Cancel inside the callback stays a
		// no-op and the event cannot be handed out again mid-callback.
		e.release(ev)
		return true
	}
	return false
}

// peekLive returns the next event that will fire, dropping canceled heap
// heads along the way, or nil when none remain.
func (e *Engine) peekLive() *Event {
	for len(e.events) > 0 {
		ev := e.events[0]
		if !ev.canceled {
			return ev
		}
		e.pop()
		e.dead--
		e.release(ev)
	}
	return nil
}

// compact rebuilds the heap without its canceled events in O(n). Live events
// keep their (At, seq) keys, so the pop order — and therefore the simulated
// schedule — is unchanged.
func (e *Engine) compact() {
	kept := e.events[:0]
	for _, ev := range e.events {
		if ev.canceled {
			ev.index = -1
			e.release(ev)
			continue
		}
		kept = append(kept, ev)
	}
	for i := len(kept); i < len(e.events); i++ {
		e.events[i] = nil // release dropped slots to the GC
	}
	e.events = kept
	for i, ev := range kept {
		ev.index = i
	}
	for i := len(kept)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
	e.dead = 0
}

// RunUntil fires events until the predicate returns true (checked before
// each event), no events remain, or the next event lies past the hard cycle
// limit. Events beyond the limit never execute — the engine peeks at the
// heap head before firing, so a single Step can no longer jump arbitrarily
// far past the cap. When the limit stops the run, the clock advances to
// exactly limit (there is provably no event in between), so capped partial
// results account simulated time up to the cap. It returns true if the
// predicate was satisfied.
func (e *Engine) RunUntil(done func() bool, limit Cycle) bool {
	for {
		if done() {
			return true
		}
		ev := e.peekLive()
		if ev == nil {
			return done()
		}
		if ev.At > limit {
			if limit > e.now {
				e.now = limit
			}
			return done()
		}
		e.Step()
	}
}

// Timer is a parkable periodic callback aligned to the cycle grid
// k × period. While armed it fires at every grid point; parked it costs
// nothing — the quiescent stretches of a simulation (idle open-loop cores,
// uncontended schedules) fast-forward analytically from event to event
// instead of burning a heap operation per slice. The callback itself decides
// whether to re-arm, so a timer stays down until some state change needs it
// again.
//
// A Timer belongs to its engine's goroutine, like the engine itself.
type Timer struct {
	eng    *Engine
	period Cycle
	fn     func(now Cycle)
	ev     *Event // pending tick, nil when parked
}

// NewTimer creates a parked timer firing fn on the period grid once armed.
func (e *Engine) NewTimer(period Cycle, fn func(now Cycle)) *Timer {
	if period <= 0 {
		panic("sim: timer period must be positive")
	}
	return &Timer{eng: e, period: period, fn: fn}
}

// Arm schedules the next tick at the first grid point strictly after now.
// Arming an armed timer is a no-op, so callers arm freely on every state
// change that might need a tick.
func (t *Timer) Arm() {
	if t.ev != nil {
		return
	}
	next := (t.eng.now/t.period + 1) * t.period
	t.ev = t.eng.ScheduleCall(next, timerTick, t)
}

// timerTick clears the pending-event handle before running the callback
// (ScheduleCall events are recycled on firing), then lets fn re-arm.
func timerTick(payload any, now Cycle) {
	t := payload.(*Timer)
	t.ev = nil
	t.fn(now)
}

// Park cancels the pending tick, if any.
func (t *Timer) Park() {
	if t.ev == nil {
		return
	}
	t.ev.Cancel()
	t.ev = nil
}

// Armed reports whether a tick is pending.
func (t *Timer) Armed() bool { return t.ev != nil }
