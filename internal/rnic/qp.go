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

	// traceOp attributes WR spans executed from this QP to a client
	// op id. Per-slot chain/ctrl/response QPs are retagged at each
	// Arm; shared trigger QPs stay 0 (their batched SENDs interleave
	// ops and cannot be attributed).
	traceOp uint64

	// profClass attributes this QP's resource grants to an op class
	// for the virtual-time profiler. Static: each private chain,
	// trigger or response QP serves exactly one op class, so it is
	// tagged once at wiring ("" folds into "other").
	profClass string

	// rcpt is the latency receipt of the op currently executing
	// through this QP; grants fold their queue-wait/exec into it.
	// Retagged per op alongside traceOp; nil = no receipt riding.
	rcpt *telemetry.Receipt
}

// SetTraceOp tags WRs subsequently executed from this QP with op for
// trace attribution (0 clears).
func (q *QP) SetTraceOp(op uint64) { q.traceOp = op }

// SetProfClass tags this QP's resource grants with an op class for
// profiler attribution. Set once at wiring.
func (q *QP) SetProfClass(class string) { q.profClass = class }

// SetReceipt attaches the latency receipt of the op about to execute
// through this QP (nil clears). Like SetTraceOp, per-slot QPs are
// retagged at each arm; shared trigger QPs stay nil.
func (q *QP) SetReceipt(r *telemetry.Receipt) { q.rcpt = r }

// QPN returns the queue-pair number.
func (q *QP) QPN() uint32 { return q.qpn }

// Device returns the owning device.
func (q *QP) Device() *Device { return q.dev }

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
// client arguments into RDMA programs.
func (q *QP) PostRecv(id uint64, scatterAddr uint64, count int, signaled bool) uint64 {
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

	active  bool
	errored bool

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

// FetchLimit returns the managed-mode execution bound.
func (w *WorkQueue) FetchLimit() uint64 { return w.fetchLimit }

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
}

func (r *recvQueue) SlotAddr(idx uint64) uint64 {
	return r.base + (idx%r.capacity)*wqe.Size
}
