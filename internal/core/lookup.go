package core

import (
	"repro/internal/hopscotch"
	"repro/internal/rnic"
	"repro/internal/telemetry"
	"repro/internal/wqe"
)

// The hash-lookup offload (§5.2, Fig 9).
//
// A client get is one SEND carrying the key (pre-encoded as CAS
// operands), the candidate bucket address(es), the requested length and
// the client's response buffer address. The server's RNIC — with no CPU
// involvement — scatters those arguments into posted WQEs, READs the
// bucket (landing the stored key directly in the response WQE's id
// field and the value pointer in its src field), CASes the response's
// control word to flip NOOP to WRITE iff the keys match, and the WRITE
// returns the value in the same network round trip.

// LookupMode selects the collision-handling strategy of Fig 11.
type LookupMode int

// Lookup modes.
const (
	// LookupSingle probes only H1(x) — the no-collision case (Fig 10).
	LookupSingle LookupMode = iota
	// LookupSeq probes H1 then H2 sequentially in one chain (RedN-Seq).
	// Both probes always run: an early exit after a probe-1 hit was sized
	// and rejected (CHANGES.md, PR 21) — a run-time decision costs >= 2
	// managed WQEs (the prefetched control queue's ENABLEs cannot be
	// rewritten) and a stalled WAIT, to save <= 1 fetch on hits only.
	LookupSeq
	// LookupParallel probes H1 and H2 on independent WQs pinned to
	// different NIC PUs (RedN-Parallel); costs an extra response QP,
	// the parallelism trade-off of §5.2.2.
	LookupParallel
)

func (m LookupMode) String() string {
	switch m {
	case LookupSingle:
		return "single"
	case LookupSeq:
		return "seq"
	default:
		return "parallel"
	}
}

// GetIndex is the hash-table geometry the offload and its clients need:
// candidate bucket addresses per key. Both hopscotch.Table (FaRM-style,
// §5.2) and cuckoo.Table (Memcached/MemC3, §5.4) implement it with the
// same bucket byte layout, so one offload serves both.
type GetIndex interface {
	HashAddr(key uint64, fn int) uint64
}

// LookupOffload is an armed hash-get offload for one client connection.
type LookupOffload struct {
	B     *Builder
	Mode  LookupMode
	Table GetIndex

	// Trig is the server side of the client connection: its RQ
	// receives triggers, its (managed) SQ holds response WQEs.
	Trig *rnic.QP
	// Resp, when set, holds response WQEs on a dedicated managed QP
	// instead of Trig's SQ. Pool contexts need this: response rings
	// must not be shared between independently sequenced chains, or
	// one context's ENABLE (which grants every earlier WQE on the
	// ring) would prematurely release another's un-CASed response.
	Resp *rnic.QP
	// Resp2 is the second response QP for LookupParallel (nil otherwise).
	Resp2 *rnic.QP

	w2    *rnic.QP // managed chain queue, bucket 1
	w2b   *rnic.QP // managed chain queue, bucket 2 (parallel)
	ctrlB *rnic.QP // second control queue (parallel)

	armed uint64
	trig  triggerBuf
}

// SetTraceOp tags this context's private rings (control, chain,
// response) so the WRs of the instance armed next attribute to op in
// traces. The shared trigger QP stays untagged: its batched SENDs
// interleave ops.
func (o *LookupOffload) SetTraceOp(op uint64) {
	o.B.Ctrl.SetTraceOp(op)
	o.w2.SetTraceOp(op)
	if o.w2b != nil && o.w2b != o.w2 {
		o.w2b.SetTraceOp(op)
	}
	if o.ctrlB != nil {
		o.ctrlB.SetTraceOp(op)
	}
	if o.Resp != nil {
		o.Resp.SetTraceOp(op)
	}
	if o.Resp2 != nil {
		o.Resp2.SetTraceOp(op)
	}
}

// SetProfClass tags every QP this context executes WRs through —
// including the shared trigger QP, which serves only this op class —
// for profiler attribution. Static; call once at wiring.
func (o *LookupOffload) SetProfClass(class string) {
	o.B.Ctrl.SetProfClass(class)
	o.w2.SetProfClass(class)
	if o.w2b != nil && o.w2b != o.w2 {
		o.w2b.SetProfClass(class)
	}
	if o.ctrlB != nil {
		o.ctrlB.SetProfClass(class)
	}
	if o.Resp != nil {
		o.Resp.SetProfClass(class)
	}
	if o.Resp2 != nil {
		o.Resp2.SetProfClass(class)
	}
	if o.Trig != nil {
		o.Trig.SetProfClass(class)
	}
}

// SetReceipt rides a latency receipt on this context's private rings
// (the same set SetTraceOp tags) so the next armed instance's resource
// grants fold into it. nil clears.
func (o *LookupOffload) SetReceipt(r *telemetry.Receipt) {
	o.B.Ctrl.SetReceipt(r)
	o.w2.SetReceipt(r)
	if o.w2b != nil && o.w2b != o.w2 {
		o.w2b.SetReceipt(r)
	}
	if o.ctrlB != nil {
		o.ctrlB.SetReceipt(r)
	}
	if o.Resp != nil {
		o.Resp.SetReceipt(r)
	}
	if o.Resp2 != nil {
		o.Resp2.SetReceipt(r)
	}
}

// NewLookupOffload builds the offload. trig must be the server-side QP
// of a client connection with a managed SQ. resp2 (parallel mode only)
// is a second server-side client-connected managed QP. chainDepth sizes
// the internal chain rings: it must cover the instances outstanding at
// once (rings wrap as requests complete; pre-arming N instances up
// front needs chainDepth >= 2N).
func NewLookupOffload(b *Builder, trig *rnic.QP, resp2 *rnic.QP, table GetIndex, mode LookupMode, chainDepth int) *LookupOffload {
	if chainDepth <= 0 {
		chainDepth = 4096
	}
	o := &LookupOffload{B: b, Mode: mode, Table: table, Trig: trig, Resp2: resp2,
		w2: b.NewManagedQP(chainDepth)}
	if mode == LookupParallel {
		if resp2 == nil {
			panic("core: parallel lookup needs a second response QP")
		}
		o.w2b = b.NewManagedQP(chainDepth)
		o.ctrlB = b.NewQP(2 * chainDepth)
	} else if mode == LookupSeq {
		o.w2b = o.w2
	}
	return o
}

// resp1 returns the queue holding probe-1 (and, for LookupSeq,
// probe-2) response WQEs.
func (o *LookupOffload) resp1() *rnic.QP {
	if o.Resp != nil {
		return o.Resp
	}
	return o.Trig
}

// probeChain posts one bucket probe: a READ (src injected) copying the
// bucket's [keyCtrl, valAddr] onto the response WQE's [ctrl, src], and
// the conditional CAS (operands injected). It returns the refs needed
// for the RECV scatter list and the ctrl sequencing.
type probeRefs struct {
	read StepRef // Src <- bucket address
	cas  StepRef // Cmp <- NOOP|x, Swap <- WRITE|x
	resp StepRef // Len, Dst <- client-provided
}

func (o *LookupOffload) postProbe(chainQP, respQP *rnic.QP) probeRefs {
	b := o.B
	resp := b.Post(respQP, wqe.WQE{Op: wqe.OpNoop, Flags: wqe.FlagSignaled})
	read := b.Post(chainQP, wqe.WQE{
		Op:    wqe.OpRead,
		Dst:   resp.FieldAddr(wqe.OffCtrl),
		Len:   16, // [keyCtrl, valAddr] -> [ctrl, src]
		Flags: wqe.FlagSignaled,
	})
	cas := b.Post(chainQP, wqe.WQE{
		Op:    wqe.OpCAS,
		Dst:   resp.FieldAddr(wqe.OffCtrl),
		Flags: wqe.FlagSignaled,
	})
	return probeRefs{read: read, cas: cas, resp: resp}
}

// sequence emits the ctrl verbs ordering one probe after recv/previous.
func (o *LookupOffload) sequence(ctrl *Builder, p probeRefs) {
	ctrl.Enable(p.read)
	ctrl.WaitStep(p.read)
	ctrl.Enable(p.cas)
	ctrl.WaitStep(p.cas)
	ctrl.Enable(p.resp)
}

// Arm posts one request instance. Each armed instance serves exactly
// one get; servers re-arm from completion callbacks (unrolled mode) or
// pre-arm many instances ahead of time — pre-arming is what lets the
// offload keep serving across host crashes (§5.6).
func (o *LookupOffload) Arm() {
	b := o.B
	o.armed++
	switch o.Mode {
	case LookupSingle:
		p := o.postProbe(o.w2, o.resp1())
		recvTarget := b.ExpectRecv(o.Trig, o.armed, []wqe.ScatterEntry{
			{Addr: p.cas.FieldAddr(wqe.OffCmp), Len: 8},
			{Addr: p.cas.FieldAddr(wqe.OffSwap), Len: 8},
			{Addr: p.read.FieldAddr(wqe.OffSrc), Len: 8},
			{Addr: p.resp.FieldAddr(wqe.OffLen), Len: 8},
			{Addr: p.resp.FieldAddr(wqe.OffDst), Len: 8},
		})
		b.WaitRecv(o.Trig, recvTarget)
		o.sequence(b, p)

	case LookupSeq:
		p1 := o.postProbe(o.w2, o.resp1())
		p2 := o.postProbe(o.w2b, o.resp1())
		recvTarget := b.ExpectRecv(o.Trig, o.armed, []wqe.ScatterEntry{
			{Addr: p1.cas.FieldAddr(wqe.OffCmp), Len: 8},
			{Addr: p1.cas.FieldAddr(wqe.OffSwap), Len: 8},
			{Addr: p1.read.FieldAddr(wqe.OffSrc), Len: 8},
			{Addr: p2.cas.FieldAddr(wqe.OffCmp), Len: 8},
			{Addr: p2.cas.FieldAddr(wqe.OffSwap), Len: 8},
			{Addr: p2.read.FieldAddr(wqe.OffSrc), Len: 8},
			{Addr: p1.resp.FieldAddr(wqe.OffLen), Len: 8},
			{Addr: p1.resp.FieldAddr(wqe.OffDst), Len: 8},
			{Addr: p2.resp.FieldAddr(wqe.OffLen), Len: 8},
			{Addr: p2.resp.FieldAddr(wqe.OffDst), Len: 8},
		})
		b.WaitRecv(o.Trig, recvTarget)
		o.sequence(b, p1)
		o.sequence(b, p2)

	case LookupParallel:
		p1 := o.postProbe(o.w2, o.resp1())
		p2 := o.postProbe(o.w2b, o.Resp2)
		recvTarget := b.ExpectRecv(o.Trig, o.armed, []wqe.ScatterEntry{
			{Addr: p1.cas.FieldAddr(wqe.OffCmp), Len: 8},
			{Addr: p1.cas.FieldAddr(wqe.OffSwap), Len: 8},
			{Addr: p1.read.FieldAddr(wqe.OffSrc), Len: 8},
			{Addr: p2.cas.FieldAddr(wqe.OffCmp), Len: 8},
			{Addr: p2.cas.FieldAddr(wqe.OffSwap), Len: 8},
			{Addr: p2.read.FieldAddr(wqe.OffSrc), Len: 8},
			{Addr: p1.resp.FieldAddr(wqe.OffLen), Len: 8},
			{Addr: p1.resp.FieldAddr(wqe.OffDst), Len: 8},
			{Addr: p2.resp.FieldAddr(wqe.OffLen), Len: 8},
			{Addr: p2.resp.FieldAddr(wqe.OffDst), Len: 8},
		})
		// Both control chains fire off the same arrival.
		b.WaitRecv(o.Trig, recvTarget)
		o.sequence(b, p1)
		bb := b.withCtrl(o.ctrlB)
		bb.WaitRecv(o.Trig, recvTarget)
		o.sequence(bb, p2)
	}
	// Newly posted control verbs need a doorbell if the ctrl queue has
	// gone idle since the last request (kicking an active queue is a
	// no-op).
	b.Ctrl.RingSQ()
	if o.ctrlB != nil {
		o.ctrlB.RingSQ()
	}
}

// Armed returns the number of request instances armed so far. Each
// instance serves exactly one get; the difference between Armed and the
// gets completed is the offload's in-flight window.
func (o *LookupOffload) Armed() uint64 { return o.armed }

// ChainWQEsPerGet reports how many WQEs one armed instance posts on
// the busiest internal chain ring — the per-instance budget behind
// chain-ring sizing (a ring holding N overlapping instances needs 2N
// times this, since rings wrap only after requests complete).
func ChainWQEsPerGet(mode LookupMode) int {
	if mode == LookupSeq {
		return 4 // both probes (READ+CAS each) share one chain ring
	}
	return 2 // READ+CAS per ring; parallel splits probes across rings
}

// Run starts the control queue(s). Call once after the first Arm.
func (o *LookupOffload) Run() {
	o.B.Run()
	if o.ctrlB != nil {
		o.ctrlB.RingSQ()
	}
}

// WRsPerGet reports the work requests posted per armed get, the cost
// accounting behind Table 2 and the §5.3 WR-budget discussion.
func (o *LookupOffload) WRsPerGet() (data, sync int) {
	switch o.Mode {
	case LookupSingle:
		return 4, 6 // RECV+READ+CAS+resp; WAIT + 2x(ENABLE,WAIT) + ENABLE
	default:
		return 7, 11
	}
}

// TriggerPayload builds the client SEND payload for a get of key,
// requesting length valLen into the client-side buffer respAddr. The
// field order matches Arm's scatter lists. The result is the context's
// own buffer, overwritten by its next TriggerPayload.
func (o *LookupOffload) TriggerPayload(key, valLen, respAddr uint64) []byte {
	xc := wqe.MakeCtrl(wqe.OpNoop, key&hopscotch.KeyMask)
	xw := wqe.MakeCtrl(wqe.OpWrite, key&hopscotch.KeyMask)
	h1 := o.Table.HashAddr(key, 0)
	h2 := o.Table.HashAddr(key, 1)
	if o.Mode == LookupSingle {
		return o.trig.fill(xc, xw, h1, valLen, respAddr)
	}
	return o.trig.fill(xc, xw, h1, xc, xw, h2, valLen, respAddr, valLen, respAddr)
}

// withCtrl returns a shallow copy of the builder that emits control
// verbs on ctrl instead, sharing completion bookkeeping — used for the
// parallel lookup's second chain.
func (b *Builder) withCtrl(ctrl *rnic.QP) *Builder {
	nb := *b
	nb.Ctrl = ctrl
	return &nb
}
