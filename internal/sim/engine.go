// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an ordered event queue, serialized resources, and
// token-bucket rate limiters. All of RedN's substrates (the RNIC model,
// the fabric, the host CPU model) are built on top of it so that every
// experiment in the paper reproduces bit-for-bit on every run.
package sim

import (
	"fmt"

	"repro/internal/ring"
)

// Time is virtual time in nanoseconds since the start of the simulation.
type Time int64

// Common durations, expressed in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Micros reports t as a floating-point number of microseconds, the unit
// used throughout the paper's evaluation.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

type event struct {
	at  Time
	seq uint64 // tie-break so equal-time events run in schedule order
	fn  func()
}

// before is the engine's total order: time, then schedule order.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a single-threaded discrete-event scheduler. Events run in
// (time, schedule-order) order; callbacks may schedule further events.
// The zero value is not usable; create engines with NewEngine.
//
// Future events sit in a 4-ary min-heap ordered by (at, seq). Events
// scheduled for the current instant go to a FIFO lane instead: the
// clock cannot advance while the lane holds anything, so every lane
// entry has at == now and seq ascending, and merging the lane's head
// with the heap's root by seq yields exactly the (at, seq) order at a
// fraction of the sifting.
type Engine struct {
	now     Time
	heap    []event
	lane    ring.Queue[event]
	seq     uint64
	stopped bool
	// Stats
	executed uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past is treated as "now" (the event runs before time advances).
func (e *Engine) At(t Time, fn func()) {
	e.seq++
	if t <= e.now {
		*e.lane.Push() = event{at: e.now, seq: e.seq, fn: fn}
		return
	}
	e.pushHeap(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

func (e *Engine) pushHeap(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	e.heap = h
}

// popHeap removes the root. The vacated tail slot is zeroed so the
// backing array does not keep a run closure reachable.
func (e *Engine) popHeap() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	e.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if !h[min].before(&last) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = last
	return top
}

// next removes and returns the earliest event at or before deadline.
func (e *Engine) next(deadline Time) (event, bool) {
	if e.lane.Len() > 0 {
		head := e.lane.Peek()
		// Only a heap event of this same instant scheduled earlier can
		// precede the lane's head.
		if len(e.heap) == 0 || !e.heap[0].before(head) {
			if head.at > deadline {
				return event{}, false
			}
			return e.lane.Pop(), true
		}
	}
	if len(e.heap) == 0 || e.heap[0].at > deadline {
		return event{}, false
	}
	return e.popHeap(), true
}

const endOfTime = Time(1<<63 - 1)

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.run(endOfTime)
}

// RunUntil executes events with timestamps <= deadline, then sets the
// clock to the deadline. Events scheduled beyond the deadline remain
// queued and run on a subsequent Run/RunUntil call.
func (e *Engine) RunUntil(deadline Time) {
	e.run(deadline)
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

func (e *Engine) run(deadline Time) {
	e.stopped = false
	for !e.stopped {
		ev, ok := e.next(deadline)
		if !ok {
			return
		}
		e.now = ev.at
		e.executed++
		ev.fn()
	}
}

// Stop halts the current Run/RunUntil after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return len(e.heap) + e.lane.Len() }

// Executed reports how many events have run since engine creation.
func (e *Engine) Executed() uint64 { return e.executed }
