package rnic

import (
	"repro/internal/sim"
	"repro/internal/wqe"
)

// kick ensures the work queue's execution loop is running.
func (w *WorkQueue) kick() {
	if w.active || w.errored || w.qp.dev.frozen {
		return
	}
	w.active = true
	w.qp.dev.eng.After(0, w.stepFn)
}

// hostEnable applies the oldest pending EnableSQFromHost. Doorbells
// all take the same time, so they land in the order they were rung.
func (w *WorkQueue) hostEnable() {
	if limit := w.hostLimits.Pop(); limit > w.fetchLimit {
		w.fetchLimit = limit
	}
	w.kick()
}

// bound returns the absolute index below which execution may proceed.
// Unmanaged queues execute up to the doorbell (producer). Managed
// queues execute up to the ENABLE-granted fetch limit — which may
// exceed the producer index: that is WQ recycling (§3.4), where the
// ring wraps and already-executed WQEs run again.
func (w *WorkQueue) bound() uint64 {
	if w.managed {
		return w.fetchLimit
	}
	return w.producer
}

// step is the per-WQ execution loop. Exactly one step chain is active
// per queue (guarded by w.active).
func (w *WorkQueue) step() {
	dev := w.qp.dev
	if w.errored || dev.frozen {
		w.active = false
		return
	}
	if w.consumer >= w.bound() {
		w.active = false
		return
	}

	// Per-WQ rate limiter (isolation, §3.5).
	if !w.admitted && w.qp.limiter != nil {
		t := w.qp.limiter.Admit()
		w.admitted = true
		if t > dev.eng.Now() {
			dev.eng.At(t, w.stepFn)
			return
		}
	}

	if w.managed {
		// One serialized on-demand fetch through the port's shared
		// fetch unit; the WR's run record carries it from here.
		fs, end := w.qp.port.fetchUnit.Acquire(dev.prof.FetchManaged)
		w.qp.grant(dev, w.qp.port.fetchUnit, dev.eng.Now(), fs, end)
		dev.takeRun(w.qp, w.consumer).sched(end, stageFetched)
		return
	}
	w.fetchStreamAndExec()
}

// fetchStreamAndExec services unmanaged queues: the NIC prefetches
// ahead, snapshotting WQEs up to PrefetchWindow beyond the consumer.
// A cold pipeline pays FetchLatency for the first delivery; a hot
// stream delivers at FetchPipelined spacing. Because snapshots happen
// at prefetch time, later modifications to prefetched WQEs are NOT
// observed — the incoherence the paper works around with managed
// queues and doorbell ordering.
func (w *WorkQueue) fetchStreamAndExec() {
	dev := w.qp.dev
	now := dev.eng.Now()
	// Top up the prefetch buffer (snapshots taken now).
	for w.buf.Len() < dev.prof.PrefetchWindow {
		idx := w.consumer + uint64(w.buf.Len())
		if idx >= w.bound() {
			break
		}
		var buf [wqe.Size]byte
		if err := dev.mem.ReadInto(w.SlotAddr(idx), buf[:]); err != nil {
			w.fail(dev.takeRun(w.qp, idx), StatusLocalProtErr)
			return
		}
		var ready sim.Time
		if w.lastFetchDone+dev.prof.FetchLatency >= now {
			// Stream is hot: next delivery pipelines behind the last.
			ready = w.lastFetchDone + dev.prof.FetchPipelined
			if ready < now {
				ready = now
			}
		} else {
			ready = now + dev.prof.FetchLatency
		}
		w.lastFetchDone = ready
		f := w.buf.Push()
		f.idx, f.ready = idx, ready
		f.w.Decode(buf[:])
	}
	next := w.buf.Peek()
	if next.ready > now {
		dev.eng.At(next.ready, w.stepFn)
		return
	}
	r := dev.takeRun(w.qp, next.idx)
	r.v = next.w
	w.buf.Pop()
	w.exec(r)
}

// advance moves past the executed WQE and continues the loop.
func (w *WorkQueue) advance() {
	w.consumer++
	w.executed++
	w.admitted = false
	w.qp.dev.eng.After(0, w.stepFn)
}

// fail completes a WR with an error status and freezes the queue,
// matching verbs semantics (the QP transitions to the error state).
func (w *WorkQueue) fail(r *wrRun, st Status) {
	w.errored = true
	w.active = false
	w.complete(r, st, true)
}

// complete schedules completion effects: WAIT-visible counter advance
// after CQInternal, host-visible CQE after CQEDeliver. Unsignaled WQEs
// produce neither (unless forced by an error) — which is exactly how
// RedN's break construct stops a loop: it rewrites the next iteration's
// final WR to drop its signaled flag, so the WAIT gating the following
// iteration never fires. Either way the run record is done with its
// data stages: it goes back to the free list here, or after delivering
// the CQE.
func (w *WorkQueue) complete(r *wrRun, st Status, force bool) {
	if !r.v.Signaled() && !force {
		r.release()
		return
	}
	dev := w.qp.dev
	r.st = st
	dev.eng.After(dev.prof.CQInternal, w.qp.scq.advanceFn)
	r.sched(dev.eng.Now()+dev.prof.CQEDeliver, stageDeliver)
}

// traceWR records one WR's PU occupancy span on the owning device's
// tracer, attributed to the op tagged on this QP (0 = unattributed,
// e.g. batched SENDs on a shared trigger QP).
func (w *WorkQueue) traceWR(op wqe.Opcode, start, end sim.Time) {
	d := w.qp.dev
	if d.tracer.Enabled() {
		d.tracer.Exec(d.label, d.resName(w.qp.pu), op.String(), start, end, w.qp.traceOp)
	}
}

// grant attributes one resource acquisition — wait behind the
// reservation horizon [ready, start), execution [start, end) — to the
// profiler of the device owning the resource and to the receipt of
// the op riding this QP. owner may differ from q's device: one-sided
// verbs acquire the responder's PCIe and atomic units. The disabled
// path is two loads and a branch, no allocation.
func (q *QP) grant(owner *Device, r *sim.Resource, ready, start, end sim.Time) {
	if owner.profiler == nil && q.rcpt == nil {
		return
	}
	name := owner.resName(r)
	if owner.profiler != nil {
		owner.profiler.Grant(q.profClass, name, start-ready, end-start)
	}
	q.rcpt.AddRes(name, start-ready, end-start)
}

// puSpan traces one WR's PU occupancy and attributes the grant. The
// ready floor is now: PU acquisition happens synchronously at issue.
func (w *WorkQueue) puSpan(op wqe.Opcode, start, end sim.Time) {
	w.traceWR(op, start, end)
	w.qp.grant(w.qp.dev, w.qp.pu, w.qp.dev.eng.Now(), start, end)
}

// exec dispatches one fetched WQE. The queue advances to the next WQE
// when the verb has been issued (PU occupancy end); the verb's later
// stages (run.go) run asynchronously, so independent verbs pipeline
// within a queue, while WAIT provides completion ordering when programs
// need it.
func (w *WorkQueue) exec(r *wrRun) {
	dev := w.qp.dev
	prof := &dev.prof
	switch r.v.Op {
	case wqe.OpNoop:
		// NOOPs never touch the wire; they complete locally.
		w.issueLocal(r, prof.NoopOccupancy)

	case wqe.OpWait:
		if dev.CQByNum(r.v.Peer) == nil {
			w.fail(r, StatusBadOpcode)
			return
		}
		w.issueLocal(r, prof.SyncOccupancy)

	case wqe.OpEnable:
		if dev.QPByNum(r.v.Peer) == nil {
			w.fail(r, StatusBadOpcode)
			return
		}
		w.issueLocal(r, prof.SyncOccupancy)

	case wqe.OpSend:
		if w.qp.remote == nil {
			w.fail(r, StatusBadOpcode)
			return
		}
		w.issueData(r, prof.CopyOccupancy)

	case wqe.OpWrite, wqe.OpWriteImm, wqe.OpRead, wqe.OpMax, wqe.OpMin:
		// Vendor Calc verbs (MAX/MIN) are copy-class: full 63 M/s
		// throughput (Table 3).
		w.issueData(r, prof.CopyOccupancy)

	case wqe.OpCAS, wqe.OpAdd:
		// True atomics hold their PU for the long AtomicOccupancy (the
		// PCIe synchronization cost that caps CAS throughput at
		// ~8.4 M/s) but the request hits the wire after the ordinary
		// issue time, so latency stays ~1.8 us (Fig 7).
		w.issueData(r, prof.AtomicOccupancy)

	default:
		// OpRecv in a send queue, or garbage written over an opcode.
		w.fail(r, StatusBadOpcode)
	}
}

// issueLocal occupies the PU for a verb that completes on this NIC
// (NOOP, WAIT, ENABLE); its effect and the queue's advance happen
// together when the occupancy ends.
func (w *WorkQueue) issueLocal(r *wrRun, occ sim.Time) {
	start, end := w.qp.pu.Acquire(occ)
	w.puSpan(r.v.Op, start, end)
	r.sched(end, stageIssued)
}

// issueData occupies the PU for a verb that leaves the NIC: the queue
// moves on when the occupancy ends, while the request travels to the
// responder on its own.
func (w *WorkQueue) issueData(r *wrRun, occ sim.Time) {
	q, dev := w.qp, w.qp.dev
	prof := &dev.prof
	v := &r.v
	start, end := q.pu.Acquire(occ)
	w.puSpan(v.Op, start, end)
	dev.eng.At(end, w.advanceFn)
	r.n = int(v.Len)

	switch v.Op {
	case wqe.OpRead:
		// Request travels to the responder (header only).
		r.sched(end+q.oneWay, stageAtResponder)

	case wqe.OpCAS, wqe.OpAdd, wqe.OpMax, wqe.OpMin:
		r.sched(start+prof.CopyOccupancy+q.oneWay, stageAtResponder)

	default:
		// WRITE and SEND gather their payload at the requester first.
		t := end
		if v.Inline() {
			if r.n > 8 {
				r.n = 8
			}
			r.loadInline(r.n)
		} else {
			gs, ge := dev.pcie.TransferAt(t, r.n)
			q.grant(dev, &dev.pcie.Resource, t, gs, ge)
			t = ge + prof.GatherLatency
			if err := r.load(dev.mem, v.Src, v.Len); err != nil {
				r.st = StatusLocalProtErr
				r.sched(t, stageFailed)
				return
			}
		}
		r.sched(q.wireDelay(t, r.n), stageAtResponder)
	}
}

// remoteDev returns the device owning the memory this QP's one-sided
// verbs operate on.
func (q *QP) remoteDev() *Device {
	if q.remote == nil {
		return q.dev // self-connected convenience
	}
	return q.remote.dev
}

// wireDelay models moving n payload bytes to the peer starting at t:
// serialization on the port egress link plus propagation. Loopback
// pairs (oneWay 0) skip the wire entirely.
func (q *QP) wireDelay(t sim.Time, n int) sim.Time {
	if q.oneWay == 0 {
		return t
	}
	ls, end := q.port.link.TransferAt(t, n)
	q.grant(q.dev, &q.port.link.Resource, t, ls, end)
	return end + q.oneWay
}

// arrival is a SEND waiting for its peer to post a RECV
// (receiver-not-ready, simplified to an unbounded queue).
type arrival struct {
	from     *wrRun   // the sender's parked record; its payload is the message
	queuedAt sim.Time // when the arrival joined pendingArrivals
}

// handleArrival matches an incoming SEND with a posted RECV, or queues
// it until one is posted.
func (q *QP) handleArrival(from *wrRun) {
	if q.dev.frozen {
		return // silently dropped; peers observe a hang, as with real dead hosts
	}
	if q.rq.consumer >= q.rq.producer {
		if q.pendingArrivals.Len() == 0 {
			q.dev.backlogged = append(q.dev.backlogged, q)
		}
		*q.pendingArrivals.Push() = arrival{from: from, queuedAt: q.dev.eng.Now()}
		return
	}
	q.consumeRecv(from, false)
}
