// Package core implements RedN: a framework that lifts the RDMA verbs
// interface to a Turing-complete set of programming abstractions using
// self-modifying chains of work requests (NSDI 2022).
//
// A RedN program is a set of work queues on the server's own NIC:
//
//   - a control queue (unmanaged) executing WAIT and ENABLE verbs that
//     sequence the program (completion and doorbell ordering, §3.1);
//   - managed queues holding only the data-path verbs (READ, CAS,
//     WRITE...) whose WQE bytes a verb rewrites at run time (§3.2): an
//     earlier verb of the chain, or the RECV scattering client
//     arguments in. A verb final when posted runs unmanaged instead;
//   - a trigger queue connected to the client: an incoming SEND both
//     delivers arguments into posted WQEs (or args buffers) and fires
//     the WAIT that starts the chain (Fig 3).
//
// Conditionals are compare-and-swap verbs aimed at the control word of
// a later WQE (Fig 4): the 48-bit operand lives in the WQE id field,
// and a successful compare rewrites the opcode. Loops are either
// unrolled (host re-arms each iteration) or recycled (the ring wraps
// and ADD verbs advance the WAIT/ENABLE counts, §3.4) — the recycled
// form needs no CPU at all and survives host crashes (§5.6).
//
// Gating: a step runs once its predecessor in sequencing order has
// completed. A managed step's control lane ENABLEs it behind a WAIT for
// the predecessor; an unmanaged step (a WQE final when posted, fetched in
// WQ order: 0.17–0.19 µs/WR against 0.54, Fig 8) waits behind a WAIT for
// the predecessor on its own queue.
package core

import (
	"repro/internal/mem"
	"repro/internal/rnic"
	"repro/internal/telemetry"
	"repro/internal/wqe"
)

// Builder assembles RedN programs on one server device. It tracks the
// absolute completion counts that WAIT verbs target and the absolute
// WQE indices that ENABLE verbs grant, so offload code composes steps
// without manual count bookkeeping.
type Builder struct {
	Dev  *rnic.Device
	Ctrl *rnic.QP // unmanaged loopback queue running WAIT/ENABLE chains
	Port int      // port affinity for all builder-allocated queues

	// expected internal completions per CQN, advanced as signaled WQEs
	// and RECVs are posted.
	expect map[uint32]uint64

	// lists holds one ring of RECV scatter lists per receive CQN.
	lists map[uint32]recvLists
}

// recvLists is the ring of scatter lists behind one receive queue's
// posted RECVs, one MaxScatter-entry slot per RECV: list memory is
// reused as RECVs complete instead of being bump-allocated per Arm.
// A list must stay put until the NIC has consumed its RECV. RECVs
// complete in posting order and the builder numbers them (expect), so
// the RECVs still outstanding are those numbered above the queue's
// completion count, and a ring with at least that many slots never
// hands out a slot that is still live. A ring found too small is left
// to its outstanding RECVs and replaced by one twice the size, so a
// queue's list memory stops growing once it has seen its deepest
// backlog (which PostRecv bounds by the RQ depth).
type recvLists struct {
	base, slots uint64
}

const recvListBytes = wqe.MaxScatter * wqe.ScatterEntrySize

// listSlot returns the list slot for the RECV numbered target on cq's
// receive queue.
func (b *Builder) listSlot(cq *rnic.CQ, target uint64) uint64 {
	ring := b.lists[cq.CQN()]
	if outstanding := target - cq.Count(); outstanding > ring.slots {
		ring.slots = max(2*ring.slots, 16)
		for ring.slots < outstanding {
			ring.slots *= 2
		}
		ring.base = b.Dev.Mem().Alloc(ring.slots*recvListBytes, 8)
		b.lists[cq.CQN()] = ring
	}
	return ring.base + target%ring.slots*recvListBytes
}

// NewBuilder creates a builder with a fresh control queue on port 0.
// ctrlDepth bounds the number of control verbs outstanding (the ring
// wraps as requests complete). Use NewBuilderOnPort to pin a program's
// queues to another port's PUs and fetch unit.
func NewBuilder(dev *rnic.Device, ctrlDepth int) *Builder {
	return NewBuilderOnPort(dev, ctrlDepth, 0)
}

// NewBuilderOnPort is NewBuilder with explicit port affinity.
func NewBuilderOnPort(dev *rnic.Device, ctrlDepth, port int) *Builder {
	if ctrlDepth <= 0 {
		ctrlDepth = 4096
	}
	b := &Builder{
		Dev:    dev,
		Port:   port,
		expect: make(map[uint32]uint64),
		lists:  make(map[uint32]recvLists),
	}
	b.Ctrl = dev.NewLoopbackQP(rnic.QPConfig{SQDepth: ctrlDepth, RQDepth: 1, Port: port})
	return b
}

// NewManagedQP allocates a managed loopback queue for modifiable verbs.
func (b *Builder) NewManagedQP(depth int) *rnic.QP {
	return b.Dev.NewLoopbackQP(rnic.QPConfig{SQDepth: depth, RQDepth: 1, Managed: true, Port: b.Port})
}

// NewQP allocates an unmanaged loopback queue (for verbs that are
// never modified after posting, e.g. standalone atomics).
func (b *Builder) NewQP(depth int) *rnic.QP {
	return b.Dev.NewLoopbackQP(rnic.QPConfig{SQDepth: depth, RQDepth: 1, Port: b.Port})
}

// subBuilder returns a builder emitting control verbs on a fresh
// unmanaged control queue on PU pu (-1 round-robins) while sharing this
// builder's expected-completion bookkeeping. Independent chain contexts
// (a Pool's) sequence through sub-builders so one context's WAITs never
// block another's, yet RECV arrival targets on a shared trigger queue
// stay globally consistent.
func (b *Builder) subBuilder(ctrlDepth, pu int) *Builder {
	return b.withCtrl(b.Dev.NewLoopbackQP(rnic.QPConfig{SQDepth: ctrlDepth, RQDepth: 1, Port: b.Port, PU: pu}))
}

// withCtrl returns a shallow copy of the builder that emits control
// verbs on ctrl instead, sharing completion bookkeeping.
func (b *Builder) withCtrl(ctrl *rnic.QP) *Builder {
	nb := *b
	nb.Ctrl = ctrl
	return &nb
}

// reset resets q and realigns the expected counts of its CQs (the
// builder's, and every sub-builder's, since they share them) with what
// those CQs will settle at.
func (b *Builder) reset(q *rnic.QP) {
	q.Reset()
	for _, cq := range [2]*rnic.CQ{q.SendCQ(), q.RecvCQ()} {
		if _, ok := b.expect[cq.CQN()]; ok {
			b.expect[cq.CQN()] = cq.Settled()
		}
	}
}

// StepRef identifies a posted WQE so later verbs can target its bytes.
type StepRef struct {
	QP  *rnic.QP
	Idx uint64
	// target is the absolute completion count of the QP's send CQ
	// after this WQE completes (0 if posted unsignaled). Captured at
	// post time so WaitStep stays correct no matter what is posted in
	// between.
	target uint64
}

// Addr returns the host-memory address of the WQE.
func (r StepRef) Addr() uint64 { return r.QP.SQSlotAddr(r.Idx) }

// FieldAddr returns the address of one field of the WQE (wqe.Off*).
func (r StepRef) FieldAddr(off int) uint64 { return r.Addr() + uint64(off) }

// Post writes w into qp's send ring without enabling or sequencing it.
// Signaled WQEs advance the builder's expected-completion counter for
// qp's send CQ, which later Wait steps target.
func (b *Builder) Post(qp *rnic.QP, w wqe.WQE) StepRef {
	idx := qp.PostSend(w)
	ref := StepRef{QP: qp, Idx: idx}
	if w.Signaled() {
		b.expect[qp.SendCQ().CQN()]++
		ref.target = b.expect[qp.SendCQ().CQN()]
	}
	return ref
}

// Enable appends an ENABLE on the control queue granting execution of
// ref (and everything posted before it on ref's queue).
func (b *Builder) Enable(ref StepRef) StepRef {
	return b.Post(b.Ctrl, wqe.WQE{Op: wqe.OpEnable, Peer: ref.QP.QPN(), Count: ref.Idx + 1})
}

// WaitCQ appends a WAIT on the control queue for the given absolute
// internal-completion target of cq.
func (b *Builder) WaitCQ(cq *rnic.CQ, target uint64) StepRef {
	return b.Post(b.Ctrl, wqe.WQE{Op: wqe.OpWait, Peer: cq.CQN(), Count: target})
}

// WaitStep appends a WAIT for ref's completion. ref must have been
// posted signaled (its completion advanced the expected counter).
func (b *Builder) WaitStep(ref StepRef) StepRef {
	if ref.target == 0 {
		panic("core: WaitStep on a step that was not posted signaled")
	}
	return b.WaitCQ(ref.QP.SendCQ(), ref.target)
}

// after posts w on q to follow prev (signaled) by the package's gating rule.
func (b *Builder) after(prev StepRef, q *rnic.QP, w wqe.WQE) StepRef {
	if !q.SQ().Managed() {
		b.Post(q, wqe.WQE{Op: wqe.OpWait, Peer: prev.QP.SendCQ().CQN(), Count: prev.target})
	}
	return b.Post(q, w)
}

// ExpectRecv posts a RECV on qp with the given scatter entries (encoded
// into the queue's list ring), for the instance of op context ctx, and
// returns the WAIT target for its arrival. RedN triggers chains with
// WaitRecv after this.
func (b *Builder) ExpectRecv(qp *rnic.QP, id uint64, entries []wqe.ScatterEntry, ctx *telemetry.OpContext) uint64 {
	cq := qp.RecvCQ()
	b.expect[cq.CQN()]++
	target := b.expect[cq.CQN()]
	var addr uint64
	if len(entries) > 0 {
		addr = b.listSlot(cq, target)
		var list [recvListBytes]byte
		n := len(entries) * wqe.ScatterEntrySize
		wqe.EncodeScatter(list[:], entries)
		if err := b.Dev.Mem().Write(addr, list[:n]); err != nil {
			panic(err) // listSlot addresses come from Alloc
		}
	}
	qp.PostRecv(id, addr, len(entries), true, ctx)
	return target
}

// WaitRecv appends a WAIT for the recvTarget returned by ExpectRecv.
func (b *Builder) WaitRecv(qp *rnic.QP, recvTarget uint64) StepRef {
	return b.WaitCQ(qp.RecvCQ(), recvTarget)
}

// Run rings the control queue's doorbell, starting (or resuming) the
// posted chain. Pre-posted WAITs keep the chain dormant until
// triggered, so Run is typically called once at offload setup.
func (b *Builder) Run() { b.Ctrl.RingSQ() }

// Expected returns the current expected-completion target for cq
// (useful for composing custom WAIT counts).
func (b *Builder) Expected(cq *rnic.CQ) uint64 { return b.expect[cq.CQN()] }

// RegisterCodeRegion registers a QP's ring memory for RDMA access, as
// RedN does for code regions (§3.5): WQE self-modification requires the
// rings to be remotely addressable, protected by rkeys.
func (b *Builder) RegisterCodeRegion(qp *rnic.QP) (*mem.Region, error) {
	wq := qp.SQ()
	return b.Dev.Mem().Register(wq.Base(), wq.Capacity()*wqe.Size, mem.RemoteAll)
}
