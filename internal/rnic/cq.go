package rnic

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/wqe"
)

// Status is the completion status of a work request.
type Status uint8

// Completion statuses.
const (
	StatusOK Status = iota
	StatusLocalProtErr
	StatusRemoteAccessErr
	StatusBadOpcode
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusLocalProtErr:
		return "LOCAL_PROT_ERR"
	case StatusRemoteAccessErr:
		return "REMOTE_ACCESS_ERR"
	case StatusBadOpcode:
		return "BAD_OPCODE"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// CQE is a completion-queue entry as seen by host software.
type CQE struct {
	WRID   uint64
	QPN    uint32
	Op     wqe.Opcode
	Status Status
	Len    uint64
	Imm    uint64
	At     sim.Time // host-visible time
	// Backlog is the device's PU-queue watermark at completion time:
	// how far the busiest processing unit's reservation horizon sits
	// past "now". Real NICs expose the same pressure via ECN marks on
	// egress; stamping it into the CQE lets host software see
	// congestion one RTT earlier than a timeout would.
	Backlog sim.Time
}

// CQ is a completion queue. The NIC-internal completion counter (used
// by WAIT verbs) advances CQInternal after a signaled WR completes;
// host-visible CQEs arrive CQEDeliver after completion.
type CQ struct {
	dev *Device
	cqn uint32

	count     uint64 // NIC-internal completion count (monotonic)
	waiters   []cqWaiter
	advanceFn func() // advance, bound once: every completion schedules it

	entries   []CQE // delivered, not yet polled
	onDeliver []func(CQE)
	autoDrain bool
}

type cqWaiter struct {
	target uint64
	fn     func()
}

// CQN returns the completion queue number.
func (c *CQ) CQN() uint32 { return c.cqn }

// Count returns the NIC-internal completion count.
func (c *CQ) Count() uint64 { return c.count }

// advance increments the internal counter and fires any WAIT verbs
// whose targets are now satisfied.
func (c *CQ) advance() {
	c.count++
	if len(c.waiters) == 0 {
		return
	}
	rest := c.waiters[:0]
	for _, w := range c.waiters {
		if c.count >= w.target {
			w.fn()
		} else {
			rest = append(rest, w)
		}
	}
	c.waiters = rest
}

// waitFor invokes fn once the internal count reaches target (possibly
// immediately).
func (c *CQ) waitFor(target uint64, fn func()) {
	if c.count >= target {
		fn()
		return
	}
	c.waiters = append(c.waiters, cqWaiter{target: target, fn: fn})
}

// deliver appends a host-visible CQE and notifies subscribers.
func (c *CQ) deliver(e CQE) {
	if !c.autoDrain {
		c.entries = append(c.entries, e)
	}
	for _, fn := range c.onDeliver {
		fn(e)
	}
}

// SetAutoDrain makes the CQ consume entries at delivery time instead of
// retaining them for Poll: OnDeliver subscribers still see every CQE,
// but nothing accumulates. Event-driven hosts (the pipelined client
// path) enable this so million-request runs stay bounded in memory.
func (c *CQ) SetAutoDrain(v bool) { c.autoDrain = v }

// Poll removes and returns up to max delivered CQEs. It models host
// software draining the queue; the time cost of polling is accounted
// by the host CPU model, not here.
func (c *CQ) Poll(max int) []CQE {
	if max <= 0 || len(c.entries) == 0 {
		return nil
	}
	if max > len(c.entries) {
		max = len(c.entries)
	}
	out := make([]CQE, max)
	copy(out, c.entries[:max])
	c.entries = c.entries[max:]
	return out
}

// Pending reports the number of delivered, unpolled CQEs.
func (c *CQ) Pending() int { return len(c.entries) }

// OnDeliver registers fn to run whenever a CQE becomes host-visible.
// Host models use it for both polling and event-driven completion.
func (c *CQ) OnDeliver(fn func(CQE)) { c.onDeliver = append(c.onDeliver, fn) }
