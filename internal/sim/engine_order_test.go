package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestEngineOrderDifferential drives the engine with seeded random
// scheduling — ties, timestamps in the past, events that schedule at
// their own instant, Stop mid-run, RunUntil landing exactly on an
// event's time — and checks the execution order against the contract
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
		switch rng.Intn(8) {
		case 0: // this instant
		case 1: // the past: clamped to now
			at = now - Time(rng.Intn(50)) - 1
		case 2, 3: // near future, dense with ties
			at = now + Time(rng.Intn(4))
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
		switch rng.Intn(4) {
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

// TestEnginePoppedSlotsDropClosure checks that the heap does not keep a
// run closure reachable from a vacated slot (the lane's ring has the
// same test of its own).
func TestEnginePoppedSlotsDropClosure(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 200; i++ {
		e.At(Time(1+i%7), func() {})
	}
	e.Run()
	for i, ev := range e.heap[:cap(e.heap)] {
		if ev.fn != nil {
			t.Fatalf("heap slot %d still references its closure", i)
		}
	}
}
