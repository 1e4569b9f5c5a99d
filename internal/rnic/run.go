package rnic

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/wqe"
)

// stage names one continuation in a work request's life. A run record
// has exactly one continuation outstanding at a time — an engine event,
// a slot in a CQ's waiter list, or a SEND parked on its receiver — and
// r.next says which, so a continuation that fires on a record that was
// released (or released and taken again) panics instead of silently
// shifting a timestamp.
type stage uint8

const (
	stageFree        stage = iota // on the device's free list
	stageExec                     // taken; being dispatched synchronously
	stageFetched                  // managed queue: the on-demand WQE fetch is done
	stageIssued                   // NOOP/WAIT/ENABLE: PU occupancy is over
	stageWaited                   // WAIT: the awaited completion count was reached
	stageAtResponder              // the request has crossed the wire
	stageApplied                  // the responder's memory access is done
	stageParked                   // SEND: held by the receiver until it acks
	stageAcked                    // the response is back at the requester
	stageLanded                   // READ: the response is scattered locally
	stageFailed                   // a gather error surfaces at its modeled time
	stageDeliver                  // the CQE becomes host-visible
	stageRecvStart                // RECV: a deferred arrival claims its WQE
	stageRecvFetched              // RECV: the WQE fetch is done
	stageRecvApplied              // RECV: the payload is in host memory
	stageRecvDeliver              // RECV: the CQE becomes host-visible
	numStages
)

var stageNames = [numStages]string{"free", "exec", "fetched", "issued", "waited", "atResponder",
	"applied", "parked", "acked", "landed", "failed", "deliver",
	"recvStart", "recvFetched", "recvApplied", "recvDeliver"}

func (s stage) String() string { return stageNames[s] }

// wrRun is the NIC-side state of one in-flight work request: what the
// closures of a per-WR continuation chain would capture, held in one
// record that is taken from the device's free list when the WR is
// fetched and returned at its last stage. Its continuations are method
// values bound once, when the record is first made, so scheduling a
// stage allocates nothing.
type wrRun struct {
	q    *QP     // the queue pair running the WR (the receiver's, for a RECV)
	idx  uint64  // absolute ring index of the WQE
	v    wqe.WQE // the WQE as fetched
	next stage

	n       int    // payload bytes on the wire
	payload []byte // the bytes in flight, a view of buf
	buf     []byte // reusable backing store for payload
	list    []byte // the scatter list as fetched; its array is reused
	old     uint64 // atomics: the value found at the target
	st      Status // completion status
	from    *wrRun // RECV: the sender's record, until it is acked

	fns [numStages]func()
}

func newRun() *wrRun {
	r := &wrRun{}
	r.fns = [numStages]func(){
		stageFetched:     r.fetched,
		stageIssued:      r.issued,
		stageWaited:      r.waited,
		stageAtResponder: r.atResponder,
		stageApplied:     r.applied,
		stageAcked:       r.acked,
		stageLanded:      r.landed,
		stageFailed:      r.failed,
		stageDeliver:     r.deliver,
		stageRecvStart:   r.recvStart,
		stageRecvFetched: r.recvFetched,
		stageRecvApplied: r.recvApplied,
		stageRecvDeliver: r.recvDeliver,
	}
	return r
}

// takeRun hands out a record for the WQE at idx of one of q's rings.
func (d *Device) takeRun(q *QP, idx uint64) *wrRun {
	var r *wrRun
	if n := len(d.freeRuns); n > 0 {
		r = d.freeRuns[n-1]
		d.freeRuns = d.freeRuns[:n-1]
	} else {
		r = newRun()
		d.runsMade++
	}
	r.q, r.idx, r.v, r.st, r.next = q, idx, wqe.WQE{}, StatusOK, stageExec
	return r
}

// release returns the record to its device. Every path that ends a WR
// without scheduling a further stage releases; a message dropped by a
// frozen receiver never acks, so its sender's record is simply lost to
// the garbage collector.
func (r *wrRun) release() {
	if r.next == stageFree {
		panic("rnic: run record released twice")
	}
	r.next = stageFree
	r.from = nil
	d := r.q.dev
	d.freeRuns = append(d.freeRuns, r)
}

// enter asserts that s is the continuation this record is waiting for.
func (r *wrRun) enter(s stage) {
	if r.next != s {
		panic(fmt.Sprintf("rnic: stage %v ran on a run record expecting %v", s, r.next))
	}
}

// sched makes s the record's outstanding continuation, due at t.
func (r *wrRun) sched(t sim.Time, s stage) {
	r.next = s
	r.q.dev.eng.At(t, r.fns[s])
}

// fill resizes *store to n bytes, reusing its array when it is large
// enough, and reads them from addr. The size check comes first so a
// garbage length fails as a bounds error, as mem.Read would, instead
// of allocating.
func fill(m *mem.Memory, store *[]byte, addr, n uint64) error {
	if n > m.Size() {
		*store = (*store)[:0]
		return &mem.AccessError{Addr: addr, Len: n, Op: "read", Why: "out of bounds"}
	}
	if uint64(cap(*store)) < n {
		*store = make([]byte, n)
	}
	*store = (*store)[:n]
	return m.ReadInto(addr, *store)
}

// load makes n bytes at addr of m the record's payload.
func (r *wrRun) load(m *mem.Memory, addr, n uint64) error {
	err := fill(m, &r.buf, addr, n)
	r.payload = r.buf
	return err
}

// loadInline makes the low n bytes of the WQE's big-endian Cmp field
// the payload.
func (r *wrRun) loadInline(n int) {
	if cap(r.buf) < 8 {
		r.buf = make([]byte, 8)
	}
	b := r.buf[:8]
	binary.BigEndian.PutUint64(b, r.v.Cmp)
	r.payload = b[8-n:]
}

// loadList snapshots the n-entry scatter list at addr.
func (r *wrRun) loadList(m *mem.Memory, addr, n uint64) error {
	return fill(m, &r.list, addr, n*wqe.ScatterEntrySize)
}

// scatter spreads payload over the snapshotted scatter list.
func (r *wrRun) scatter(m *mem.Memory, payload []byte) error {
	for e := r.list; len(e) >= wqe.ScatterEntrySize && len(payload) > 0; e = e[wqe.ScatterEntrySize:] {
		addr, k := binary.BigEndian.Uint64(e), binary.BigEndian.Uint64(e[8:])
		if k > uint64(len(payload)) {
			k = uint64(len(payload))
		}
		if err := m.Write(addr, payload[:k]); err != nil {
			return err
		}
		payload = payload[k:]
	}
	return nil
}

// ---- send side ----

// fetched runs when a managed queue's on-demand fetch completes. The
// WQE snapshot is taken now, so modifications made before the
// ENABLE-granted fetch are observed — the property RedN's
// doorbell-ordered self-modifying code depends on.
func (r *wrRun) fetched() {
	r.enter(stageFetched)
	w, dev := r.q.sq, r.q.dev
	if w.errored || dev.frozen {
		w.active = false
		r.release()
		return
	}
	var buf [wqe.Size]byte
	if err := dev.mem.ReadInto(w.SlotAddr(r.idx), buf[:]); err != nil {
		w.fail(r, StatusLocalProtErr)
		return
	}
	r.v.Decode(buf[:])
	w.exec(r)
}

// issued runs at the end of a NOOP/WAIT/ENABLE's PU occupancy.
func (r *wrRun) issued() {
	r.enter(stageIssued)
	w, dev := r.q.sq, r.q.dev
	switch r.v.Op {
	case wqe.OpWait:
		r.next = stageWaited
		dev.CQByNum(r.v.Peer).waitFor(r.v.Count, r.fns[stageWaited])
		return
	case wqe.OpEnable:
		target := dev.QPByNum(r.v.Peer)
		if r.v.Count > target.sq.fetchLimit {
			target.sq.fetchLimit = r.v.Count
		}
		target.sq.kick()
	}
	w.complete(r, StatusOK, false)
	w.advance()
}

// waited runs when the CQ a WAIT watches reaches its target count.
func (r *wrRun) waited() {
	r.enter(stageWaited)
	w := r.q.sq
	w.complete(r, StatusOK, false)
	w.advance()
}

// atResponder runs when the request reaches the peer.
func (r *wrRun) atResponder() {
	r.enter(stageAtResponder)
	q, dev := r.q, r.q.dev
	prof, now := &dev.prof, dev.eng.Now()
	switch r.v.Op {
	case wqe.OpSend:
		r.next = stageParked
		q.remote.handleArrival(r)

	case wqe.OpWrite, wqe.OpWriteImm:
		rdev := q.remoteDev()
		ws, we := rdev.pcie.TransferAt(now, r.n)
		q.grant(rdev, &rdev.pcie.Resource, now, ws, we)
		r.sched(we+prof.RemoteWriteLatency, stageApplied)

	case wqe.OpRead:
		// Responder DMA-reads the payload.
		rdev := q.remoteDev()
		rs, re := rdev.pcie.TransferAt(now, r.n)
		q.grant(rdev, &rdev.pcie.Resource, now, rs, re)
		r.sched(re+prof.RemoteReadLatency, stageApplied)

	default:
		// CAS/ADD serialize through the responder's atomic unit; Calc
		// verbs execute on the ordinary datapath (Table 3: MAX runs at
		// full copy-verb rate).
		if r.v.Op == wqe.OpMax || r.v.Op == wqe.OpMin {
			r.sched(now+prof.AtomicUnitLatency, stageApplied)
			return
		}
		rdev := q.remoteDev()
		as, ao := rdev.atomicUnit.Acquire(prof.AtomicUnitOccupancy)
		q.grant(rdev, rdev.atomicUnit, now, as, ao)
		r.sched(ao+(prof.AtomicUnitLatency-prof.AtomicUnitOccupancy), stageApplied)
	}
}

// applied runs when the responder's memory access takes effect.
func (r *wrRun) applied() {
	r.enter(stageApplied)
	q, dev := r.q, r.q.dev
	w, rmem, now := q.sq, q.remoteDev().mem, dev.eng.Now()
	v := &r.v
	switch v.Op {
	case wqe.OpWrite, wqe.OpWriteImm:
		if err := rmem.Write(v.Dst, r.payload); err != nil {
			w.fail(r, StatusRemoteAccessErr)
			return
		}
		r.sched(now+q.oneWay, stageAcked) // ack

	case wqe.OpRead:
		if err := r.load(rmem, v.Src, v.Len); err != nil {
			w.fail(r, StatusRemoteAccessErr)
			return
		}
		// Payload returns over the wire, then scatters locally.
		r.sched(q.wireDelay(now, r.n), stageAcked)

	default:
		var err error
		switch v.Op {
		case wqe.OpCAS:
			r.old, err = rmem.CompareAndSwap(v.Dst, v.Cmp, v.Swap)
		case wqe.OpAdd:
			r.old, err = rmem.FetchAdd(v.Dst, v.Cmp)
		case wqe.OpMax:
			r.old, err = rmem.Max(v.Dst, v.Cmp)
		case wqe.OpMin:
			r.old, err = rmem.Min(v.Dst, v.Cmp)
		}
		if err != nil {
			w.fail(r, StatusRemoteAccessErr)
			return
		}
		r.sched(now+q.oneWay+dev.prof.ResultLatency, stageAcked)
	}
}

// ackSend is the receiver telling a parked SEND it was consumed.
func (r *wrRun) ackSend() {
	r.enter(stageParked)
	r.sched(r.q.dev.eng.Now()+r.q.oneWay, stageAcked)
}

// acked runs when the response (ack, READ payload or atomic result) is
// back at the requester.
func (r *wrRun) acked() {
	r.enter(stageAcked)
	q, dev := r.q, r.q.dev
	w := q.sq
	switch r.v.Op {
	case wqe.OpRead:
		now := dev.eng.Now()
		ss, se := dev.pcie.TransferAt(now, r.n)
		q.grant(dev, &dev.pcie.Resource, now, ss, se)
		r.sched(se+dev.prof.ScatterLatency, stageLanded)
		return
	case wqe.OpCAS, wqe.OpAdd, wqe.OpMax, wqe.OpMin:
		if r.v.Src != 0 {
			if err := dev.mem.PutU64(r.v.Src, r.old); err != nil {
				w.fail(r, StatusLocalProtErr)
				return
			}
		}
	}
	w.complete(r, StatusOK, false)
}

// landed runs when a READ's response has been DMA-written locally.
func (r *wrRun) landed() {
	r.enter(stageLanded)
	w, m := r.q.sq, r.q.dev.mem
	v := &r.v
	var err error
	if v.Flags&wqe.FlagScatterDst != 0 {
		// Multi-SGE response: Dst is a scatter list of Count entries.
		if err = r.loadList(m, v.Dst, v.Count); err == nil {
			err = r.scatter(m, r.payload)
		}
	} else {
		err = m.Write(v.Dst, r.payload)
	}
	if err != nil {
		w.fail(r, StatusLocalProtErr)
		return
	}
	w.complete(r, StatusOK, false)
}

// failed surfaces an error found while gathering, at the time the
// gather would have finished.
func (r *wrRun) failed() {
	r.enter(stageFailed)
	r.q.sq.fail(r, r.st)
}

// deliver makes the completion host-visible; it is a signaled (or
// failed) WR's last stage.
func (r *wrRun) deliver() {
	r.enter(stageDeliver)
	q, dev := r.q, r.q.dev
	now := dev.eng.Now()
	q.scq.deliver(CQE{WRID: r.v.ID, QPN: q.qpn, Op: r.v.Op, Status: r.st, Len: r.v.Len, At: now,
		Backlog: dev.BacklogWatermark(now)})
	r.release()
}

// ---- receive side ----

// consumeRecv matches an arrived SEND with the next posted RECV: now,
// or — when a newly posted RECV or an unfreeze releases a queued
// arrival — in an event of its own at this same instant. RECV WQEs and
// scatter lists are read fresh from host memory at consume time, so
// offloads may rewrite them between messages.
func (q *QP) consumeRecv(from *wrRun, deferred bool) {
	r := q.dev.takeRun(q, 0)
	r.from = from
	if deferred {
		r.sched(q.dev.eng.Now(), stageRecvStart)
		return
	}
	r.next = stageRecvStart
	r.recvStart()
}

// recvStart claims the RECV WQE and fetches it on demand through the
// port fetch unit.
func (r *wrRun) recvStart() {
	r.enter(stageRecvStart)
	q, dev := r.q, r.q.dev
	r.idx = q.rq.consumer
	q.rq.consumer++
	fs, fe := q.port.fetchUnit.Acquire(dev.prof.FetchManaged)
	q.grant(dev, q.port.fetchUnit, dev.eng.Now(), fs, fe)
	r.sched(fe, stageRecvFetched)
}

// recvFetched decodes the RECV, snapshots its scatter list and DMAs
// the payload toward host memory. A RECV the NIC cannot read drops the
// message: the sender never hears back.
func (r *wrRun) recvFetched() {
	r.enter(stageRecvFetched)
	q, dev := r.q, r.q.dev
	var buf [wqe.Size]byte
	if err := dev.mem.ReadInto(q.rq.SlotAddr(r.idx), buf[:]); err != nil {
		r.release()
		return
	}
	r.v.Decode(buf[:])
	r.list = r.list[:0]
	if n := int(r.v.Len); n > 0 {
		if err := r.loadList(dev.mem, r.v.Src, uint64(n)); err != nil {
			r.release()
			return
		}
	}
	r.n = len(r.from.payload)
	now := dev.eng.Now()
	ws, we := dev.pcie.TransferAt(now, r.n)
	q.grant(dev, &dev.pcie.Resource, now, ws, we)
	r.sched(we+dev.prof.RemoteWriteLatency, stageRecvApplied)
}

// recvApplied scatters the payload, completes the RECV (internal
// counter for WAIT triggers, then the host-visible CQE) and acks the
// sender, whose buffer held the payload until now.
func (r *wrRun) recvApplied() {
	r.enter(stageRecvApplied)
	q, dev := r.q, r.q.dev
	if err := r.scatter(dev.mem, r.from.payload); err != nil {
		r.release()
		return
	}
	dev.eng.After(dev.prof.CQInternal, q.rcq.advanceFn)
	signaled := r.v.Signaled()
	if signaled {
		r.sched(dev.eng.Now()+dev.prof.CQEDeliver, stageRecvDeliver)
	}
	r.from.ackSend()
	r.from = nil
	if !signaled {
		r.release()
	}
}

func (r *wrRun) recvDeliver() {
	r.enter(stageRecvDeliver)
	q := r.q
	q.rcq.deliver(CQE{WRID: r.v.ID, QPN: q.qpn, Op: wqe.OpRecv, Status: StatusOK,
		Len: uint64(r.n), At: q.dev.eng.Now()})
	r.release()
}
