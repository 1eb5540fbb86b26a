package sim

import (
	"fmt"
	"testing"
)

// lcg is a tiny deterministic generator: both engines of an equivalence test
// draw from identically seeded copies, so identical firing orders make
// identical draws.
type lcg uint64

func (l *lcg) intn(n int) int {
	*l = *l*6364136223846793005 + 1442695040888963407
	return int(uint64(*l>>33) % uint64(n))
}

// firing is one callback's record in an equivalence test.
type firing struct {
	label string
	at    Cycle
}

// world is one engine plus the log and draws its callbacks share.
type world struct {
	eng Engine
	rng lcg
	log []firing
}

type tag struct {
	w     *world
	label string
}

// spawnCB logs its firing and sometimes schedules follow-up events — some on
// the same cycle, so they tie with pending series firings.
func spawnCB(payload any, now Cycle) {
	tg := payload.(*tag)
	w := tg.w
	w.log = append(w.log, firing{tg.label, now})
	if len(w.log) > 400 {
		return
	}
	switch w.rng.intn(4) {
	case 0:
		w.eng.ScheduleCall(now, spawnCB, &tag{w, tg.label + "+0"})
	case 1:
		w.eng.ScheduleCall(now+Cycle(w.rng.intn(6)), spawnCB, &tag{w, tg.label + "+d"})
	}
}

// streamTimes draws a nondecreasing schedule over a narrow range, so
// same-cycle ties within and across streams are common.
func streamTimes(rng *lcg, n int) []Cycle {
	out := make([]Cycle, n)
	var t Cycle
	for i := range out {
		t += Cycle(rng.intn(3))
		out[i] = t
	}
	return out
}

// TestScheduleSeriesMatchesEagerSchedule: a series fires in exactly the
// order — ties included — that one ScheduleCall per time made at the same
// point would, interleaved with one-shot events scheduled before, between
// and after the streams and with events the callbacks spawn mid-run. The
// EventStats triples match too.
func TestScheduleSeriesMatchesEagerSchedule(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		run := func(series bool) *world {
			w := &world{rng: lcg(trial)}
			plan := lcg(1000 + trial)
			for s := 0; s < 1+plan.intn(4); s++ {
				for k := plan.intn(3); k > 0; k-- {
					at := Cycle(plan.intn(20))
					w.eng.ScheduleCall(at, spawnCB, &tag{w, fmt.Sprintf("o%d.%d@%d", s, k, at)})
				}
				times := streamTimes(&plan, plan.intn(12))
				tg := &tag{w, fmt.Sprintf("s%d", s)}
				if series {
					w.eng.ScheduleSeries(times, spawnCB, tg)
				} else {
					for _, at := range times {
						w.eng.ScheduleCall(at, spawnCB, tg)
					}
				}
			}
			for w.eng.Step() {
			}
			return w
		}
		eager, lean := run(false), run(true)
		if fmt.Sprint(eager.log) != fmt.Sprint(lean.log) {
			t.Fatalf("trial %d: series order\n%v\nwant eager order\n%v", trial, lean.log, eager.log)
		}
		s1, f1, c1 := eager.eng.EventStats()
		s2, f2, c2 := lean.eng.EventStats()
		if s1 != s2 || f1 != f2 || c1 != c2 {
			t.Fatalf("trial %d: EventStats (%d,%d,%d), eager (%d,%d,%d)", trial, s2, f2, c2, s1, f1, c1)
		}
	}
}

// A long series costs one heap slot, not one per time, yet counts every time
// as scheduled and keeps the engine pending until its last firing.
func TestScheduleSeriesHoldsOneHeapSlot(t *testing.T) {
	var e Engine
	times := make([]Cycle, 10_000)
	for i := range times {
		times[i] = Cycle(i / 3) // triples tie on every cycle
	}
	fired := 0
	e.ScheduleSeries(times, func(any, Cycle) { fired++ }, nil)
	if len(e.events) != 1 {
		t.Fatalf("heap holds %d entries for one series, want 1", len(e.events))
	}
	if scheduled, _, _ := e.EventStats(); scheduled != 10_000 {
		t.Fatalf("scheduled = %d, want 10000 (one per time)", scheduled)
	}
	for i := 0; i < 9_999; i++ {
		e.Step()
		if len(e.events) != 1 || !e.Pending() {
			t.Fatalf("after %d firings: heap %d, pending %v", fired, len(e.events), e.Pending())
		}
	}
	e.Step()
	if fired != 10_000 || e.Pending() || len(e.events) != 0 {
		t.Fatalf("fired %d, pending %v, heap %d after the last time", fired, e.Pending(), len(e.events))
	}
	if e.Now() != times[len(times)-1] {
		t.Fatalf("clock at %d, want the last time %d", e.Now(), times[len(times)-1])
	}
}

func TestScheduleSeriesEmptyIsNoOp(t *testing.T) {
	var e Engine
	e.ScheduleSeries(nil, func(any, Cycle) { t.Fatal("empty series fired") }, nil)
	e.ScheduleSeries([]Cycle{}, func(any, Cycle) { t.Fatal("empty series fired") }, nil)
	if scheduled, _, _ := e.EventStats(); scheduled != 0 || e.Pending() || len(e.events) != 0 {
		t.Fatalf("empty series left scheduled=%d pending=%v heap=%d", scheduled, e.Pending(), len(e.events))
	}
}

func TestScheduleSeriesRejectsPastAndDecreasingTimes(t *testing.T) {
	cases := map[string][]Cycle{
		"past":       {5, 20},
		"decreasing": {10, 30, 29},
	}
	for name, times := range cases {
		t.Run(name, func(t *testing.T) {
			var e Engine
			e.Schedule(10, func(Cycle) {})
			e.Step()
			defer func() {
				if recover() == nil {
					t.Fatalf("ScheduleSeries(%v) at cycle 10 did not panic", times)
				}
				if scheduled, _, _ := e.EventStats(); scheduled != 1 {
					t.Fatalf("rejected series reserved sequence numbers: scheduled = %d", scheduled)
				}
			}()
			e.ScheduleSeries(times, func(any, Cycle) {}, nil)
		})
	}
}

// Stepping a warm series allocates nothing: the trampoline reuses pooled
// events, like any other ScheduleCall chain.
func TestScheduleSeriesSteadyStateAllocFree(t *testing.T) {
	var e Engine
	times := make([]Cycle, 5_000)
	for i := range times {
		times[i] = Cycle(10 * i)
	}
	e.ScheduleSeries(times, func(any, Cycle) {}, nil)
	e.Step() // warm the pool
	allocs := testing.AllocsPerRun(1000, func() { e.Step() })
	if allocs != 0 {
		t.Fatalf("series Step allocates %.1f objects/op, want 0", allocs)
	}
}

// movable is a pending event a Reschedule equivalence test keeps a handle to.
type movable struct {
	label string
	ev    *Event
	w     *moveWorld
}

type moveWorld struct {
	eng   Engine
	rng   lcg
	log   []firing
	items []*movable
	fresh bool // Reschedule in place, else Cancel + ScheduleCall
}

func moveCB(payload any, now Cycle) {
	m := payload.(*movable)
	m.ev = nil // pooled: the handle dies with the firing
	w := m.w
	w.log = append(w.log, firing{m.label, now})
	// Move a few still-pending events, as a bandwidth re-solve moves the
	// completions of tasks whose rates changed.
	for k := w.rng.intn(3); k > 0; k-- {
		o := w.items[w.rng.intn(len(w.items))]
		if o.ev == nil {
			continue
		}
		w.move(o, now+Cycle(w.rng.intn(8)))
	}
}

func (w *moveWorld) move(m *movable, at Cycle) {
	if w.fresh {
		w.eng.Reschedule(m.ev, at)
		return
	}
	m.ev.Cancel()
	m.ev = w.eng.ScheduleCall(at, moveCB, m)
}

// TestRescheduleMatchesCancelAndSchedule: moving pending events in place
// fires them in the order Cancel plus ScheduleCall would, with the same
// EventStats, while leaving no dead entries in the heap.
func TestRescheduleMatchesCancelAndSchedule(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		run := func(fresh bool) *moveWorld {
			w := &moveWorld{rng: lcg(trial), fresh: fresh}
			for i := 0; i < 40; i++ {
				m := &movable{label: fmt.Sprintf("m%d", i), w: w}
				m.ev = w.eng.ScheduleCall(Cycle(w.rng.intn(30)), moveCB, m)
				w.items = append(w.items, m)
			}
			for i := 0; i < 20; i++ { // moves before the run starts
				w.move(w.items[w.rng.intn(len(w.items))], Cycle(w.rng.intn(30)))
			}
			for w.eng.Step() {
				if fresh && w.eng.dead != 0 {
					t.Fatalf("trial %d: Reschedule left %d dead heap entries", trial, w.eng.dead)
				}
			}
			return w
		}
		canceled, moved := run(false), run(true)
		if fmt.Sprint(canceled.log) != fmt.Sprint(moved.log) {
			t.Fatalf("trial %d: Reschedule order\n%v\nwant Cancel+ScheduleCall order\n%v",
				trial, moved.log, canceled.log)
		}
		s1, f1, c1 := canceled.eng.EventStats()
		s2, f2, c2 := moved.eng.EventStats()
		if s1 != s2 || f1 != f2 || c1 != c2 {
			t.Fatalf("trial %d: EventStats (%d,%d,%d), want (%d,%d,%d)", trial, s2, f2, c2, s1, f1, c1)
		}
	}
}

func TestReschedulePanicsOnNonPendingEvent(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Reschedule did not panic", name)
			}
		}()
		f()
	}
	var e, other Engine
	fired := e.Schedule(1, func(Cycle) {})
	e.Step()
	mustPanic("fired", func() { e.Reschedule(fired, 5) })

	canceled := e.Schedule(3, func(Cycle) {})
	canceled.Cancel()
	mustPanic("canceled", func() { e.Reschedule(canceled, 5) })

	foreign := other.Schedule(3, func(Cycle) {})
	mustPanic("foreign", func() { e.Reschedule(foreign, 5) })

	var self *Event
	self = e.Schedule(4, func(Cycle) {
		mustPanic("firing", func() { e.Reschedule(self, 9) })
	})
	e.Step()

	pending := e.Schedule(6, func(Cycle) {})
	mustPanic("past", func() { e.Reschedule(pending, 0) })
}
