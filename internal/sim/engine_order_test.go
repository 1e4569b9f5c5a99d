package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestEngineOrderDifferential drives the engine with seeded random
// scheduling — ties, timestamps in the past, events that schedule at
// their own instant, deltas on either side of the wheel's horizon and
// of its multiples, Stop mid-run, RunUntil landing exactly on an event's
// time or anywhere in an empty stretch — and checks the execution order
// against the contract
// every engine change must keep: a stable sort by (effective time,
// schedule order) of everything that was scheduled.
func TestEngineOrderDifferential(t *testing.T) {
	const budget = 150000
	rng := rand.New(rand.NewSource(1))
	e := NewEngine()

	type ref struct {
		at  Time // effective time: clamped to the clock at scheduling
		ran bool
	}
	var log []ref   // indexed by schedule order
	var order []int // schedule-order ids in execution order
	stopped := false

	var schedule func()
	schedule = func() {
		if len(log) >= budget {
			return
		}
		id, now := len(log), e.Now()
		at := now
		switch rng.Intn(10) {
		case 0: // this instant
		case 1: // the past: clamped to now
			at = now - Time(rng.Intn(50)) - 1
		case 2, 3: // near future, dense with ties
			at = now + Time(rng.Intn(4))
		case 4: // k*horizon-1, k*horizon, k*horizon+1
			at = now + Time(1+rng.Intn(3))*wheelSlots + Time(rng.Intn(3)-1)
		case 5: // the overflow heap, to meet later wheel events on its timestamps
			at = now + Time(rng.Intn(8*wheelSlots))
		default:
			at = now + Time(rng.Intn(2000))
		}
		log = append(log, ref{at: max(at, now)})
		fn := func() {
			if e.Now() != log[id].at {
				t.Fatalf("event %d ran at %v, scheduled for %v", id, e.Now(), log[id].at)
			}
			log[id].ran = true
			order = append(order, id)
			for k := rng.Intn(3); k > 0; k-- {
				schedule()
			}
			if rng.Intn(400) == 0 {
				stopped = true
				e.Stop()
			}
		}
		if at >= now && rng.Intn(2) == 0 {
			e.After(at-now, fn)
		} else {
			e.At(at, fn)
		}
	}

	for len(log) < budget || e.Pending() > 0 {
		for k := rng.Intn(200); k >= 0; k-- {
			schedule()
		}
		stopped = false
		before := e.Now()
		switch rng.Intn(5) {
		case 0:
			e.Run()
			if !stopped && e.Pending() != 0 {
				t.Fatalf("Run returned with %d events pending", e.Pending())
			}
		case 1: // a deadline behind the clock runs nothing
			ran := len(order)
			e.RunUntil(before - 1)
			if len(order) != ran || e.Now() != before {
				t.Fatalf("RunUntil(past) ran %d events, clock %v -> %v", len(order)-ran, before, e.Now())
			}
		case 2: // any deadline: through empty stretches, past the last event
			deadline := before + Time(rng.Intn(3*wheelSlots))
			e.RunUntil(deadline)
			if stopped {
				break
			}
			if e.Now() != deadline {
				t.Fatalf("RunUntil(%v) left the clock at %v", deadline, e.Now())
			}
			for id := range log {
				if !log[id].ran && log[id].at <= deadline {
					t.Fatalf("RunUntil(%v) left event %d due at %v unrun", deadline, id, log[id].at)
				}
			}
		default: // land exactly on a scheduled event's time
			id := len(log) - 1 - rng.Intn(min(len(log), 300))
			deadline := log[id].at
			e.RunUntil(deadline)
			if stopped || deadline < before {
				break
			}
			if !log[id].ran {
				t.Fatalf("RunUntil(%v) left event %d due at %v unrun", deadline, id, log[id].at)
			}
			if e.Now() != deadline {
				t.Fatalf("RunUntil(%v) left the clock at %v", deadline, e.Now())
			}
			if last := order[len(order)-1]; log[last].at > deadline {
				t.Fatalf("RunUntil(%v) ran event %d due at %v", deadline, last, log[last].at)
			}
		}
	}

	if len(order) != len(log) || len(log) < budget {
		t.Fatalf("ran %d of %d scheduled events (budget %d)", len(order), len(log), budget)
	}
	want := make([]int, len(log))
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(i, j int) bool { return log[want[i]].at < log[want[j]].at })
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution %d was event %d (due %v), want event %d (due %v)",
				i, order[i], log[order[i]].at, want[i], log[want[i]].at)
		}
	}
	if e.Executed() != uint64(len(log)) {
		t.Fatalf("Executed() = %d, want %d", e.Executed(), len(log))
	}
}

// seamScript runs hand-written schedules against an engine and records
// the names of the events in the order they ran.
type seamScript struct {
	t   *testing.T
	e   *Engine
	got []string
}

// at schedules an event that records name, checks its clock and then
// runs then, in the event's own context.
func (s *seamScript) at(at Time, name string, then ...func()) {
	s.t.Helper()
	due := max(at, s.e.Now())
	s.e.At(at, func() {
		if s.e.Now() != due {
			s.t.Errorf("%s ran at %v, due %v", name, s.e.Now(), due)
		}
		s.got = append(s.got, name)
		for _, f := range then {
			f()
		}
	})
}

// ran checks what ran since the last call, and the clock.
func (s *seamScript) ran(now Time, want ...string) {
	s.t.Helper()
	if !slices.Equal(s.got, want) {
		s.t.Fatalf("ran %v, want %v", s.got, want)
	}
	if s.e.Now() != now {
		s.t.Fatalf("clock %v, want %v", s.e.Now(), now)
	}
	s.got = s.got[:0]
}

// TestEngineWheelSeams walks the places where the lane, the wheel and
// the overflow heap meet, from clocks that put now's slot at the start,
// the middle and the end of the wheel and of a bitmap word.
func TestEngineWheelSeams(t *testing.T) {
	const h = wheelSlots
	for _, base := range []Time{0, 1, 63, 64, 70, h - 1, h, 5*h + h - 2, 1<<40 + 1000} {
		s := &seamScript{t: t, e: NewEngine()}
		e := s.e
		e.RunUntil(base)

		// Either side of the horizon and of its multiples, scheduled
		// far-first, so the heap's events meet the wheel's in time order.
		for _, d := range []Time{3*h + 1, 3 * h, 3*h - 1, 2*h + 1, 2 * h, 2*h - 1, h + 1, h, h - 1, h - 2, 1} {
			s.at(base+d, fmt.Sprint("+", int64(d)))
		}
		if got := e.Pending(); got != 11 || e.wheeled != 3 || len(e.heap) != 8 {
			t.Fatalf("base %v: Pending %d (wheel %d, heap %d), want 11 (3, 8)", base, got, e.wheeled, len(e.heap))
		}
		e.Run()
		s.ran(base+3*h+1, "+1", "+2046", "+2047", "+2048", "+2049", "+4095", "+4096", "+4097", "+6143", "+6144", "+6145")
		base = e.Now()

		// One timestamp, all three structures: a far event, wheel events
		// scheduled later for the same instant (one of them from the slot
		// before), and what the far event puts in the lane.
		T := base + 3*h
		s.at(T, "heap1", func() { s.at(T, "lane1"); s.at(T-5, "lane2") })
		s.at(T, "heap2")
		e.RunUntil(T - 10)
		s.at(T, "wheel1", func() { s.at(T, "lane3") })
		s.at(T-1, "before", func() { s.at(T, "wheel2") })
		s.at(T+1, "after")
		e.Run()
		s.ran(T+1, "before", "heap1", "heap2", "wheel1", "wheel2", "lane1", "lane2", "lane3", "after")
		base = e.Now()

		// The only occupied slot is the one just behind now's: the bitmap
		// scan goes all the way round, and a farther event one slot on is
		// not mistaken for it.
		s.at(base+h-1, "last-slot")
		s.at(base+h, "same-slot-as-now")
		e.Run()
		s.ran(base+h, "last-slot", "same-slot-as-now")
		base = e.Now()

		// RunUntil into an empty stretch, behind the clock, and past
		// everything; scheduling from each new clock.
		s.at(base+100, "x1")
		e.RunUntil(base + 50)
		s.ran(base + 50)
		s.at(base+50+h-1, "y") // the farthest wheel slot from the moved clock
		s.at(base+100, "x2")
		s.at(base+50+h, "z") // one past it: heap
		e.RunUntil(base + 49)
		s.ran(base + 50)
		s.at(base+100, "x3")
		e.RunUntil(base + 100)
		s.ran(base+100, "x1", "x2", "x3")
		e.RunUntil(base + 100 + 7*h + 13)
		s.ran(base+100+7*h+13, "y", "z")
		base = e.Now()
		s.at(base+h-1, "far")
		s.at(base+1, "near")
		s.at(base-1, "now")
		e.Run()
		s.ran(base+h-1, "now", "near", "far")
		base = e.Now()

		// Stop with a slot half drained: the rest of the slot still runs
		// before a lane entry made at the same instant after the stop.
		s.at(base+7, "a", e.Stop)
		s.at(base+7, "b")
		s.at(base+7, "c", func() { s.at(base+7, "e") })
		e.Run()
		s.ran(base+7, "a")
		if e.Pending() != 2 {
			t.Fatalf("Pending %d after Stop, want 2", e.Pending())
		}
		s.at(base+7, "d")
		e.RunUntil(base + 6) // behind the clock: the lane waits too
		s.ran(base + 7)
		e.Run()
		s.ran(base+7, "b", "c", "d", "e")
		if e.Pending() != 0 {
			t.Fatalf("Pending %d after the last Run", e.Pending())
		}
	}
}

// TestEngineOrderReservedPlace puts an event at a place reserved a
// horizon or more before its time. It runs where At would have run it,
// scheduled at the reservation: after the same-instant heap events
// scheduled before the reservation, ahead of those scheduled after it
// and ahead of the wheel's and the lane's, whether it is put there
// before its instant or at it. A reservation never used leaves the
// order of the rest as it was.
func TestEngineOrderReservedPlace(t *testing.T) {
	const h = wheelSlots
	for _, how := range []string{"at", "early", "late"} {
		s := &seamScript{t: t, e: NewEngine()}
		e := s.e
		e.RunUntil(100)
		T := e.Now() + 3*h
		var r uint64
		place := func() {
			e.AtReserved(T, r, func() {
				if e.Now() != T {
					t.Errorf("%s: placed ran at %v, due %v", how, e.Now(), T)
				}
				s.got = append(s.got, "placed")
			})
		}
		s.at(T, "heap1", func() {
			s.at(T, "lane")
			if how == "late" {
				place()
			}
		})
		if how == "at" {
			s.at(T, "placed")
		} else {
			r = e.Reserve()
		}
		s.at(T, "heap2")
		e.Reserve() // never used
		s.at(T, "heap3")
		e.RunUntil(T - 10)
		s.at(T, "wheel")
		if how == "early" {
			place()
		}
		e.Run()
		s.ran(T, "heap1", "placed", "heap2", "heap3", "wheel", "lane")
	}
}

// TestEnginePendingCountsAllQueues checks Pending against the three
// structures an event can wait in.
func TestEnginePendingCountsAllQueues(t *testing.T) {
	e := NewEngine()
	e.RunUntil(1000)
	nop := func() {}
	for i := 0; i < 3; i++ {
		e.At(e.Now()-Time(i), nop)
	}
	for i := 0; i < 4; i++ {
		e.After(1+Time(i)*500, nop)
	}
	for i := 0; i < 5; i++ {
		e.After(wheelSlots+Time(i), nop)
	}
	check := func(lane, wheel, heap int) {
		t.Helper()
		if e.lane.Len() != lane || e.wheeled != wheel || len(e.heap) != heap || e.Pending() != lane+wheel+heap {
			t.Fatalf("lane %d wheel %d heap %d Pending %d, want %d %d %d %d", e.lane.Len(), e.wheeled, len(e.heap),
				e.Pending(), lane, wheel, heap, lane+wheel+heap)
		}
	}
	check(3, 4, 5)
	e.RunUntil(1000)
	check(0, 4, 5)
	e.RunUntil(1000 + 501)
	check(0, 2, 5)
	e.RunUntil(1000 + wheelSlots + 2)
	check(0, 0, 2)
	e.Run()
	check(0, 0, 0)
}

// TestEnginePoppedSlotsDropClosure checks that neither the heap nor the
// wheel's node slab keeps a run closure reachable from a vacated slot
// (the lane's ring has the same test of its own), and that every node
// is back on the free list.
func TestEnginePoppedSlotsDropClosure(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 200; i++ {
		e.At(Time(1+i%7), func() {})
		e.At(wheelSlots+Time(i%7), func() {})
	}
	e.Run()
	for i, ev := range e.heap[:cap(e.heap)] {
		if ev.fn != nil {
			t.Fatalf("heap slot %d still references its closure", i)
		}
	}
	for i, n := range e.nodes {
		if n.fn != nil {
			t.Fatalf("wheel node %d still references its closure", i)
		}
	}
	free := 0
	for i := e.free; i != 0; i = e.nodes[i].next {
		free++
	}
	if free != 200 || len(e.nodes) != 201 {
		t.Fatalf("%d of %d wheel nodes on the free list, want 200 of 200", free, len(e.nodes)-1)
	}
}
