package rnic

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/wqe"
)

// stage names one continuation in a work request's life. A run record
// has exactly one continuation outstanding at a time — an engine event,
// a slot in a CQ's waiter list, or a SEND parked on its receiver — and
// r.next says which, so a continuation that fires on a record that was
// released (or released and taken again) panics instead of silently
// shifting a timestamp. One that fires after its queue pair was reset
// drops the WR (drop).
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
	q     *QP     // the queue pair running the WR (the receiver's, for a RECV)
	idx   uint64  // absolute ring index of the WQE
	v     wqe.WQE // the WQE as fetched
	next  stage
	epoch uint32 // q's epoch when the record was taken

	n       int    // payload bytes on the wire
	payload []byte // the bytes in flight, a view of buf
	buf     []byte // reusable backing store for payload, small's until a longer one
	small   [16]byte
	list    []byte // the scatter list as fetched; its array is reused
	old     uint64 // atomics: the value found at the target
	st      Status // completion status
	from    *wrRun // RECV: the sender's record, until it is acked

	fns [numStages]func()
}

// newRun makes a record whose payloads of up to 16 bytes (an ack, an
// atomic's operand) never allocate, whatever WRs it served before.
func newRun() *wrRun {
	r := &wrRun{}
	r.buf = r.small[:0]
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
	r.q, r.idx, r.v, r.st, r.next, r.epoch = q, idx, wqe.WQE{}, StatusOK, stageExec, q.epoch
	return r
}

// release returns the record to its device. Every path that ends a WR
// without scheduling a further stage releases — a message a frozen
// receiver drops included: its sender never hears back.
func (r *wrRun) release() {
	if r.next == stageFree {
		panic("rnic: run record released twice")
	}
	r.next = stageFree
	r.from = nil
	d := r.q.dev
	d.freeRuns = append(d.freeRuns, r)
}

// enter asserts that s is the continuation this record is waiting for
// and reports whether the WR is still live; one whose queue pair was
// reset since it was taken is dropped instead.
func (r *wrRun) enter(s stage) bool {
	if r.next != s || r.stale() {
		return r.misfire(s)
	}
	return true
}

// misfire is enter's rare case, kept out of line so enter inlines.
func (r *wrRun) misfire(s stage) bool {
	if r.next != s {
		panic(fmt.Sprintf("rnic: stage %v ran on a run record expecting %v", s, r.next))
	}
	r.drop()
	return false
}

// stale reports whether r's queue pair was reset since r was taken.
func (r *wrRun) stale() bool { return r.epoch != r.q.epoch }

// drop ends a WR of a reset queue pair's old incarnation where it
// stands, with no effect. A fetch or a local issue held its queue's
// loop: the loop restarts on the reset queue. A RECV's sender, parked
// on it, is released too.
func (r *wrRun) drop() {
	if r.next == stageFetched || r.next == stageIssued || r.next == stageWaited {
		w := r.q.sq
		w.stale, w.active = false, false
		w.kick()
	}
	if r.from != nil {
		r.from.release()
	}
	r.release()
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
	b := r.buf[:8]
	binary.BigEndian.PutUint64(b, r.v.Cmp)
	r.payload = b[8-n:]
}

// gather makes the entries of the WQE's Count-entry gather list at Src,
// in list order, the record's payload. An entry the memory cannot serve,
// address 0 included, fails it.
func (r *wrRun) gather(m *mem.Memory) error {
	r.payload = r.buf[:0]
	err := r.loadList(m, r.v.Src, r.v.Count)
	for e := r.list; err == nil && len(e) >= wqe.ScatterEntrySize; e = e[wqe.ScatterEntrySize:] {
		addr, k, n := binary.BigEndian.Uint64(e), binary.BigEndian.Uint64(e[8:]), len(r.payload)
		if k > m.Size()-uint64(n) {
			return &mem.AccessError{Addr: addr, Len: k, Op: "gather", Why: "out of bounds"}
		}
		r.payload = slices.Grow(r.payload, int(k))[:n+int(k)]
		err = m.ReadInto(addr, r.payload[n:])
	}
	r.buf, r.n = r.payload, len(r.payload)
	return err
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
	if !r.enter(stageFetched) {
		return
	}
	w, dev := r.q.sq, r.q.dev
	if w.errored || dev.frozen {
		w.active = false
		r.release()
		return
	}
	var buf [wqe.Size]byte
	if err := dev.mem.ReadInto(w.SlotAddr(r.idx), buf[:]); err != nil {
		w.halt(r, StatusLocalProtErr)
		return
	}
	r.v.Decode(buf[:])
	w.exec(r)
}

// issued runs at the end of a NOOP/WAIT/ENABLE's PU occupancy.
func (r *wrRun) issued() {
	if !r.enter(stageIssued) {
		return
	}
	w, dev := r.q.sq, r.q.dev
	switch r.v.Op {
	case wqe.OpWait:
		r.next = stageWaited
		dev.CQByNum(r.v.Peer).waitFor(r.v.Count, r)
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
	w := r.q.sq
	w.wait = nil
	if !r.enter(stageWaited) {
		return
	}
	w.complete(r, StatusOK, false)
	w.advance()
}

// atResponder runs when the request reaches the peer.
func (r *wrRun) atResponder() {
	if !r.enter(stageAtResponder) {
		return
	}
	q, dev := r.q, r.q.dev
	prof, now := &dev.prof, dev.eng.Now()
	switch r.v.Op {
	case wqe.OpSend:
		r.next = stageParked
		q.remote.handleArrival(r)

	case wqe.OpWrite, wqe.OpWriteImm:
		rdev := q.remoteDev()
		ws, we := rdev.pcie.TransferAt(now, r.n)
		grant(q.ctx, rdev, &rdev.pcie.Resource, now, ws, we)
		r.sched(we+prof.RemoteWriteLatency, stageApplied)

	case wqe.OpRead:
		// Responder DMA-reads the payload; a frozen one drops it, as a SEND.
		rdev := q.remoteDev()
		if rdev.frozen {
			r.release()
			return
		}
		rs, re := rdev.pcie.TransferAt(now, r.n)
		grant(q.ctx, rdev, &rdev.pcie.Resource, now, rs, re)
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
		grant(q.ctx, rdev, rdev.atomicUnit, now, as, ao)
		r.sched(ao+(prof.AtomicUnitLatency-prof.AtomicUnitOccupancy), stageApplied)
	}
}

// applied runs when the responder's memory access takes effect.
func (r *wrRun) applied() {
	if !r.enter(stageApplied) {
		return
	}
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
	if !r.enter(stageParked) {
		return
	}
	r.sched(r.q.dev.eng.Now()+r.q.oneWay, stageAcked)
}

// acked runs when the response (ack, READ payload or atomic result) is
// back at the requester.
func (r *wrRun) acked() {
	if !r.enter(stageAcked) {
		return
	}
	q, dev := r.q, r.q.dev
	w := q.sq
	switch r.v.Op {
	case wqe.OpRead:
		now := dev.eng.Now()
		ss, se := dev.pcie.TransferAt(now, r.n)
		grant(q.ctx, dev, &dev.pcie.Resource, now, ss, se)
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
	if !r.enter(stageLanded) {
		return
	}
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
	if !r.enter(stageFailed) {
		return
	}
	r.q.sq.fail(r, r.st)
}

// deliver makes the completion host-visible; it is a signaled (or
// failed) WR's last stage.
func (r *wrRun) deliver() {
	if !r.enter(stageDeliver) {
		return
	}
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
	if !r.enter(stageRecvStart) {
		return
	}
	if r.from.stale() {
		// The sender was reset while its message queued here: it is
		// gone before it claims a RECV.
		r.drop()
		return
	}
	q, dev := r.q, r.q.dev
	r.idx = q.rq.consumer
	q.rq.consumer++
	fs, fe := q.port.fetchUnit.Acquire(dev.prof.FetchManaged)
	c := q.rq.ctxs[r.idx%q.rq.capacity]
	if c == nil {
		c = q.ctx
	}
	grant(c, dev, q.port.fetchUnit, dev.eng.Now(), fs, fe)
	r.sched(fe, stageRecvFetched)
}

// recvFetched decodes the RECV, snapshots its scatter list and DMAs
// the payload toward host memory. A RECV the NIC cannot read drops the
// message: the sender never hears back.
func (r *wrRun) recvFetched() {
	if !r.enter(stageRecvFetched) {
		return
	}
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
	grant(q.ctx, dev, &dev.pcie.Resource, now, ws, we)
	r.sched(we+dev.prof.RemoteWriteLatency, stageRecvApplied)
}

// recvApplied scatters the payload, completes the RECV (internal
// counter for WAIT triggers, then the host-visible CQE) and acks the
// sender, whose buffer held the payload until now.
func (r *wrRun) recvApplied() {
	if !r.enter(stageRecvApplied) {
		return
	}
	q, dev := r.q, r.q.dev
	if err := r.scatter(dev.mem, r.from.payload); err != nil {
		r.release()
		return
	}
	q.rcq.completed()
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
	if !r.enter(stageRecvDeliver) {
		return
	}
	q := r.q
	q.rcq.deliver(CQE{WRID: r.v.ID, QPN: q.qpn, Op: wqe.OpRecv, Status: StatusOK,
		Len: uint64(r.n), At: q.dev.eng.Now()})
	r.release()
}
