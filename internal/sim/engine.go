// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an ordered event queue, serialized resources, and
// token-bucket rate limiters. All of RedN's substrates (the RNIC model,
// the fabric, the host CPU model) are built on top of it so that every
// experiment in the paper reproduces bit-for-bit on every run.
package sim

import (
	"fmt"
	"math/bits"

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

// event is an entry of the overflow heap.
type event struct {
	at  Time
	seq uint64 // tie-break so equal-time events run in schedule order
	fn  func()
}

// before is the heap's order, and the engine's: time, then schedule order.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a single-threaded discrete-event scheduler. Events run in
// (time, schedule-order) order; callbacks may schedule further events.
// The zero value is not usable; create engines with NewEngine.
//
// RedN's chains step tens to hundreds of nanoseconds at a time, so the
// future is near, and the queue is split by how far ahead an event was
// when it was scheduled:
//
//   - at or before now: a FIFO lane. The clock cannot advance while the
//     lane holds anything, so lane order is schedule order.
//   - less than wheelSlots ns ahead: a timing wheel with one slot per
//     nanosecond. Every event in it is due in [now, now+wheelSlots), that
//     is wheelSlots distinct timestamps, so a slot holds one timestamp and
//     its FIFO list is schedule order; the earliest event is the first
//     occupied slot at or after now's. No comparison, no sift.
//   - further: a 4-ary min-heap ordered by (at, seq), the overflow for
//     timers (miss deadlines, anti-entropy, open-loop ticks).
//
// Nothing migrates between the three. The clock only moves forward, so
// from one At(T) to the next T-now only shrinks: of the events due at T,
// the heap's were scheduled before the wheel's and the wheel's before the
// lane's, and next breaks a tie between structures in that order.
type Engine struct {
	now     Time
	heap    []event
	lane    ring.Queue[func()]
	seq     uint64
	stopped bool
	// Stats
	executed uint64

	wheeled  int                     // events in the wheel
	occupied [wheelSlots / 64]uint64 // bit t&wheelMask: the slot for time t is non-empty
	slots    [wheelSlots]struct{ head, tail int32 }
	nodes    []wheelNode // slab the slots' lists are threaded through; index 0 is nil
	free     int32       // head of the list of vacated nodes
}

// wheelSlots is the wheel's horizon in nanoseconds. On the benchmark's
// four workloads 92-97 % of the events scheduled ahead of now are due
// less than 2048 ns out (a WR stage, a PCIe or link hop) and doubling
// the horizon adds a point or two: the rest is spread thin up to the
// 200 us deadlines and the millisecond timers (DESIGN.md section 4 has
// the histogram), while the slots, 16 KB at 2048, share the L1 data
// cache with the simulation.
const (
	wheelSlots = 2048
	wheelMask  = wheelSlots - 1
)

// wheelNode is one queued event; its time is its slot's.
type wheelNode struct {
	fn   func()
	next int32
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{nodes: make([]wheelNode, 1)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past is treated as "now" (the event runs before time advances).
func (e *Engine) At(t Time, fn func()) {
	switch {
	case t <= e.now:
		*e.lane.Push() = fn
	case t-e.now < wheelSlots:
		e.pushWheel(t, fn)
	default:
		e.seq++
		e.pushHeap(event{at: t, seq: e.seq, fn: fn})
	}
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Reserve takes the next place in schedule order for an event that
// AtReserved may put there later, or never.
func (e *Engine) Reserve() uint64 { e.seq++; return e.seq }

// AtReserved schedules fn at t in the place r, among the heap's events:
// where At put it at the reservation if t was a horizon or more ahead,
// ahead of the wheel's and the lane's events at t.
func (e *Engine) AtReserved(t Time, r uint64, fn func()) {
	e.pushHeap(event{at: max(t, e.now), seq: r, fn: fn})
}

// pushWheel appends fn to the list of t's slot.
func (e *Engine) pushWheel(t Time, fn func()) {
	i := e.free
	if i != 0 {
		e.free = e.nodes[i].next
	} else {
		e.nodes = append(e.nodes, wheelNode{})
		i = int32(len(e.nodes) - 1)
	}
	e.nodes[i] = wheelNode{fn: fn}
	slot := int(t) & wheelMask
	if s := &e.slots[slot]; s.head == 0 {
		s.head, s.tail = i, i
		e.occupied[slot>>6] |= 1 << (slot & 63)
	} else {
		e.nodes[s.tail].next = i
		s.tail = i
	}
	e.wheeled++
}

// popWheel removes the oldest event of t's slot. The node is zeroed
// before it joins the free list, so the slab does not keep a run closure
// reachable.
func (e *Engine) popWheel(t Time) func() {
	slot := int(t) & wheelMask
	s := &e.slots[slot]
	i := s.head
	n := &e.nodes[i]
	fn := n.fn
	if s.head = n.next; s.head == 0 {
		e.occupied[slot>>6] &^= 1 << (slot & 63)
	}
	*n = wheelNode{next: e.free}
	e.free = i
	e.wheeled--
	return fn
}

// wheelNext reports when the wheel's earliest event is due: the first
// occupied slot at or after now's, wrapping. The wheel must not be empty.
func (e *Engine) wheelNext() Time {
	i := int(e.now) & wheelMask
	w := i >> 6
	if b := e.occupied[w] >> (i & 63); b != 0 {
		return e.now + Time(bits.TrailingZeros64(b))
	}
	// The wrap ends on w again, for the slots below now's in its word.
	for d := 64 - i&63; ; d += 64 {
		w = (w + 1) & (len(e.occupied) - 1)
		if b := e.occupied[w]; b != 0 {
			return e.now + Time(d+bits.TrailingZeros64(b))
		}
	}
}

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

// next removes the earliest event due at or before deadline, moves the
// clock to it and returns its callback.
func (e *Engine) next(deadline Time) (func(), bool) {
	const (
		none = iota
		lane
		wheel
		heap
	)
	// Each structure is asked in turn and takes a tie from the one before:
	// at one timestamp the heap's events are the oldest, then the wheel's.
	from, at := none, endOfTime
	if e.lane.Len() > 0 {
		from, at = lane, e.now
	}
	if e.wheeled > 0 {
		if t := e.wheelNext(); t <= at {
			from, at = wheel, t
		}
	}
	if len(e.heap) > 0 && e.heap[0].at <= at {
		from, at = heap, e.heap[0].at
	}
	if from == none || at > deadline {
		return nil, false
	}
	e.now = at
	switch from {
	case lane:
		return e.lane.Pop(), true
	case wheel:
		return e.popWheel(at), true
	default:
		return e.popHeap().fn, true
	}
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
		fn, ok := e.next(deadline)
		if !ok {
			return
		}
		e.executed++
		fn()
	}
}

// Stop halts the current Run/RunUntil after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return e.lane.Len() + e.wheeled + len(e.heap) }

// Executed reports how many events have run since engine creation.
func (e *Engine) Executed() uint64 { return e.executed }
