package rnic

import (
	"fmt"

	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wqe"
)

// QPConfig configures queue-pair creation.
type QPConfig struct {
	SQDepth int  // send-queue capacity in WQEs
	RQDepth int  // receive-queue capacity in WQEs
	Managed bool // place the SQ in managed mode (no prefetch; ENABLE-gated)
	Port    int  // port index
	PU      int  // PU pinning; -1 selects round-robin
}

// QP is a reliable-connection queue pair. Its send and receive queues
// are rings of WQEs in the node's simulated host memory, so RDMA verbs
// can address (and rewrite) queued work requests — the substrate for
// self-modifying RDMA programs.
type QP struct {
	dev  *Device
	qpn  uint32
	port *Port
	pu   *sim.Resource

	sq *WorkQueue
	rq *recvQueue

	scq *CQ
	rcq *CQ

	remote *QP
	oneWay sim.Time

	limiter *sim.RateLimiter

	pendingArrivals ring.Queue[arrival]

	// epoch counts resets; a run record carries the epoch of its
	// taking, so a WR of an older incarnation is told apart (run.go).
	epoch uint32

	// ctx is the op context this QP's work attributes to: WR spans
	// trace to its op id, resource grants fold into its class and its
	// receipt. Every QP of one offload context shares one, so retagging
	// the context retags them all; unattributed by default.
	ctx *telemetry.OpContext
}

// unattributed is the context of every QP not given one: op 0, class
// "other", no receipt. Nothing writes it.
var unattributed telemetry.OpContext

// SetContext points this QP at the op context its work attributes to.
// Call once at wiring; the context's owner retags it per op.
func (q *QP) SetContext(c *telemetry.OpContext) { q.ctx = c }

// Context returns the op context this QP's work attributes to.
func (q *QP) Context() *telemetry.OpContext { return q.ctx }

// QPN returns the queue-pair number.
func (q *QP) QPN() uint32 { return q.qpn }

// Device returns the owning device.
func (q *QP) Device() *Device { return q.dev }

// Port returns the device port q executes on.
func (q *QP) Port() *Port { return q.port }

// SendCQ returns the CQ receiving send-side completions.
func (q *QP) SendCQ() *CQ { return q.scq }

// RecvCQ returns the CQ receiving receive-side completions.
func (q *QP) RecvCQ() *CQ { return q.rcq }

// Remote returns the connected peer QP, or nil.
func (q *QP) Remote() *QP { return q.remote }

// SQ returns the send work queue.
func (q *QP) SQ() *WorkQueue { return q.sq }

// Connect pairs q with peer over a wire with the given one-way latency.
// Use latency 0 for loopback pairs on the same device.
func (q *QP) Connect(peer *QP, oneWay sim.Time) {
	q.remote = peer
	q.oneWay = oneWay
	peer.remote = q
	peer.oneWay = oneWay
}

// SetRateLimiter applies a token-bucket rate limit to the send queue,
// modeling ibv_modify_qp_rate_limit (used by the paper for isolation
// of misbehaving offloads).
func (q *QP) SetRateLimiter(opsPerSec float64, burst int) {
	q.limiter = sim.NewRateLimiter(q.dev.eng, opsPerSec, burst)
}

// PostSend encodes w into the next SQ slot and returns its absolute
// index. It does not notify the NIC: call RingSQ (unmanaged queues) or
// rely on ENABLE verbs / EnableSQFromHost (managed queues).
func (q *QP) PostSend(w wqe.WQE) uint64 {
	if int64(q.sq.producer-q.sq.consumer) >= int64(q.sq.capacity) {
		panic(fmt.Sprintf("rnic: SQ ring overflow on QP %d (depth %d, %d outstanding) — size rings to the offloaded program",
			q.qpn, q.sq.capacity, q.sq.producer-q.sq.consumer))
	}
	idx := q.sq.producer
	addr := q.sq.SlotAddr(idx)
	var buf [wqe.Size]byte
	w.Encode(buf[:])
	if err := q.dev.mem.Write(addr, buf[:]); err != nil {
		panic(fmt.Sprintf("rnic: SQ ring write failed: %v", err))
	}
	q.sq.producer++
	return idx
}

// RingSQ rings the doorbell: after the MMIO delay the NIC begins (or
// continues) consuming posted SQ WQEs.
func (q *QP) RingSQ() {
	q.dev.eng.After(q.dev.prof.Doorbell, q.sq.kickFn)
}

// EnableSQFromHost raises a managed SQ's fetch limit from host software
// (used during offload setup; at runtime ENABLE verbs do this).
func (q *QP) EnableSQFromHost(limit uint64) {
	*q.sq.hostLimits.Push() = limit
	q.dev.eng.After(q.dev.prof.Doorbell, q.sq.hostEnableFn)
}

// PostRecv posts a receive WQE whose scatter list (count entries of
// wqe.ScatterEntry) lives at scatterAddr in host memory. The paper's
// offloads use RECV scatter entries aimed at posted WQEs to inject
// client arguments into RDMA programs. Its fetch attributes to op
// context c, the instance its arrival triggers (nil: the QP's own).
func (q *QP) PostRecv(id uint64, scatterAddr uint64, count int, signaled bool, c *telemetry.OpContext) uint64 {
	if count < 0 || count > wqe.MaxScatter {
		panic(fmt.Sprintf("rnic: RECV scatter count %d exceeds hardware limit %d", count, wqe.MaxScatter))
	}
	var fl wqe.Flags
	if signaled {
		fl = wqe.FlagSignaled
	}
	if int64(q.rq.producer-q.rq.consumer) >= int64(q.rq.capacity) {
		panic(fmt.Sprintf("rnic: RQ ring overflow on QP %d (depth %d, %d outstanding) — size rings to the offloaded program",
			q.qpn, q.rq.capacity, q.rq.producer-q.rq.consumer))
	}
	w := wqe.WQE{Op: wqe.OpRecv, ID: id, Src: scatterAddr, Len: uint64(count), Flags: fl}
	idx := q.rq.producer
	addr := q.rq.SlotAddr(idx)
	var buf [wqe.Size]byte
	w.Encode(buf[:])
	if err := q.dev.mem.Write(addr, buf[:]); err != nil {
		panic(fmt.Sprintf("rnic: RQ ring write failed: %v", err))
	}
	q.rq.producer++
	q.rq.ctxs[idx%q.rq.capacity] = c
	// A newly posted RECV may satisfy queued arrivals.
	if q.pendingArrivals.Len() > 0 {
		q.consumeRecv(q.popArrival(), true)
	}
	return idx
}

// popArrival dequeues the oldest receiver-not-ready arrival and, when
// the queue empties, drops the QP from the device's backlogged set
// (the ECN watermark's scan list).
func (q *QP) popArrival() *wrRun {
	a := q.pendingArrivals.Pop()
	if q.pendingArrivals.Len() == 0 {
		bl := q.dev.backlogged
		for i, b := range bl {
			if b == q {
				q.dev.backlogged = append(bl[:i], bl[i+1:]...)
				break
			}
		}
	}
	return a.from
}

// Reset moves q through RESET back to ready to send, the way an RC
// endpoint is re-established after its peer restarted: both rings lose
// their posted WQEs and their indices, queued arrivals are dropped, the
// managed fetch limit (and any host ENABLE still in flight) returns to
// zero and the error state clears. A WR of the old incarnation still in
// flight is dropped at its next stage without effect — no memory
// access, no completion — and its run record goes back to the free
// list. The QPN, port, PU, CQs, ring memory and peer are kept, so a
// reset allocates nothing. CQ counts are not rewound: a completion
// already under way still lands (CQ.Settled).
func (q *QP) Reset() {
	q.epoch++
	w := q.sq
	if r := w.wait; r != nil {
		// A WAIT holds the loop until its CQ reaches a count that may
		// now never come: take it off the CQ.
		q.dev.CQByNum(r.v.Peer).unwait(r)
		w.wait = nil
		w.active = false
		r.release()
	}
	w.stale = w.active
	w.producer, w.consumer, w.fetchLimit = 0, 0, 0
	w.errored, w.admitted = false, false
	w.lastFetchDone = coldFetch
	for w.buf.Len() > 0 {
		w.buf.Pop()
	}
	for w.hostLimits.Len() > 0 {
		w.hostLimits.Pop()
	}
	q.rq.producer, q.rq.consumer = 0, 0
	for q.pendingArrivals.Len() > 0 {
		q.popArrival().release()
	}
}

// grant attributes one resource acquisition — wait behind the
// reservation horizon [ready, start), execution [start, end) — to the
// profiler of the device owning the resource, under the class of op
// context c (the acquiring QP's, or a RECV's own), and to the receipt
// riding c. owner may differ from the QP's device: one-sided verbs
// acquire the responder's PCIe and atomic units. The disabled path is
// three loads and a branch, no allocation.
func grant(c *telemetry.OpContext, owner *Device, r *sim.Resource, ready, start, end sim.Time) {
	if owner.profiler == nil && c.Receipt == nil {
		return
	}
	name := owner.resName(r)
	if owner.profiler != nil {
		owner.profiler.Grant(c.Class, name, start-ready, end-start)
	}
	c.Receipt.AddRes(name, start-ready, end-start)
}

// SQSlotAddr returns the host-memory address of the SQ WQE at the given
// absolute index (ring indices wrap modulo capacity). RedN programs use
// this to build CAS/WRITE targets aimed at posted work requests.
func (q *QP) SQSlotAddr(idx uint64) uint64 { return q.sq.SlotAddr(idx) }

// WorkQueue is a send work queue: a ring of WQEs in host memory plus
// the NIC-side execution state.
type WorkQueue struct {
	qp       *QP
	base     uint64
	capacity uint64
	managed  bool

	producer   uint64 // absolute count of posted WQEs
	consumer   uint64 // absolute index of next WQE to execute
	fetchLimit uint64 // managed mode: execution allowed below this index

	// active is set while the execution loop runs: exactly one of its
	// continuations is then outstanding — a step or advance event, or
	// the run record of a fetch, a local issue or a WAIT (parked on its
	// CQ as wait). stale marks that continuation as one a Reset
	// orphaned.
	active  bool
	errored bool
	stale   bool
	wait    *wrRun

	// Unmanaged prefetch pipeline: snapshots awaiting execution, at
	// most PrefetchWindow of them.
	buf           ring.Queue[fetchedWQE]
	lastFetchDone sim.Time

	// hostLimits holds the fetch limits of EnableSQFromHost doorbells
	// still in flight.
	hostLimits ring.Queue[uint64]

	// The loop's continuations, bound once so that scheduling one on
	// the engine allocates nothing.
	stepFn, advanceFn, kickFn, hostEnableFn func()

	admitted bool // rate-limiter token already consumed for next WQE

	executed uint64 // total WQEs executed (stats)
}

type fetchedWQE struct {
	idx   uint64
	w     wqe.WQE
	ready sim.Time
}

// SlotAddr returns the host-memory address of the WQE at absolute
// index idx.
func (w *WorkQueue) SlotAddr(idx uint64) uint64 {
	return w.base + (idx%w.capacity)*wqe.Size
}

// Base returns the ring's base address.
func (w *WorkQueue) Base() uint64 { return w.base }

// Capacity returns the ring capacity in WQEs.
func (w *WorkQueue) Capacity() uint64 { return w.capacity }

// Managed reports whether the queue is in managed (no-prefetch) mode.
func (w *WorkQueue) Managed() bool { return w.managed }

// Consumer returns the absolute index of the next WQE to execute.
func (w *WorkQueue) Consumer() uint64 { return w.consumer }

// Producer returns the absolute count of posted WQEs.
func (w *WorkQueue) Producer() uint64 { return w.producer }

// Executed returns the number of WQEs this queue has executed.
func (w *WorkQueue) Executed() uint64 { return w.executed }

// Errored reports whether the queue froze on an error completion.
func (w *WorkQueue) Errored() bool { return w.errored }

// recvQueue is a receive ring; RECV WQEs are consumed by arriving SENDs
// and always read fresh from host memory (on-demand fetch), so earlier
// verbs may legally rewrite posted RECVs and their scatter lists.
type recvQueue struct {
	qp       *QP
	base     uint64
	capacity uint64
	producer uint64
	consumer uint64
	ctxs     []*telemetry.OpContext // per slot, its RECV's (PostRecv)
}

func (r *recvQueue) SlotAddr(idx uint64) uint64 {
	return r.base + (idx%r.capacity)*wqe.Size
}
