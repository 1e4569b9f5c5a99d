package core

import (
	"fmt"

	"repro/internal/hopscotch"
	"repro/internal/rnic"
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

// LookupOffload is an armed hash-get offload for one client connection.
type LookupOffload struct {
	chain
	Mode LookupMode
	// Table supplies each key's candidate bucket addresses. The §5.4
	// Memcached index is the same table with a neighborhood of 1 (a
	// two-choice cuckoo table), so one offload serves both.
	Table *hopscotch.Table
	// Resp2 is the second response QP for LookupParallel (nil otherwise).
	Resp2 *rnic.QP

	w2  *rnic.QP // managed chain queue, bucket 1
	w2b *rnic.QP // managed chain queue, bucket 2 (LookupSeq: w2 itself)
}

// NewLookupOffload builds a standalone offload, answering on trig's SQ.
// trig must be the server-side QP of a client connection with a managed
// SQ. resp2 (parallel mode only) is a second server-side
// client-connected managed QP. chainDepth sizes the internal chain
// rings: it must cover the instances outstanding at once (rings wrap as
// requests complete; pre-arming N instances up front needs chainDepth
// >= 2N).
func NewLookupOffload(b *Builder, trig *rnic.QP, resp2 *rnic.QP, table *hopscotch.Table, mode LookupMode, chainDepth int) *LookupOffload {
	if chainDepth <= 0 {
		chainDepth = 4096
	}
	return newLookupOffload(b, trig, nil, resp2, table, mode, chainDepth, 2*chainDepth, 0)
}

// NewLookupPool builds K = len(resp) get contexts over the trig
// connection. resp (and resp2, parallel mode only) are server-side
// managed QPs, each connected back to the client, one per context.
func NewLookupPool(b *Builder, trig *rnic.QP, resp, resp2 []*rnic.QP, table *hopscotch.Table, mode LookupMode) *Pool[*LookupOffload] {
	if mode == LookupParallel && len(resp2) != len(resp) {
		panic(fmt.Sprintf("core: parallel pool needs resp2 per context (%d != %d)", len(resp2), len(resp)))
	}
	// Each context serves one get at a time, so rings stay small: a
	// chain ring holds one instance's probes — READ+CAS per probe, both
	// probes on one ring for LookupSeq — and ring wrap needs 2x.
	chainDepth := 2*2 + 8
	if mode == LookupSeq {
		chainDepth = 2*4 + 8
	}
	return newPool(b, trig, resp, func(i int, cb *Builder, r *rnic.QP) *LookupOffload {
		var r2 *rnic.QP
		if mode == LookupParallel {
			r2 = resp2[i]
		}
		return newLookupOffload(cb, trig, r, r2, table, mode, chainDepth, poolCtrlDepth, -1)
	})
}

// newLookupOffload places the chain rings (and, for LookupParallel, the
// second control queue) on PU pu, -1 round-robining.
func newLookupOffload(b *Builder, trig, resp, resp2 *rnic.QP, table *hopscotch.Table, mode LookupMode, chainDepth, ctrlDepth, pu int) *LookupOffload {
	o := &LookupOffload{chain: newChain(b, trig, resp), Mode: mode, Table: table, Resp2: resp2}
	o.w2 = o.ring(chainDepth, pu)
	switch mode {
	case LookupSeq:
		o.w2b = o.w2
	case LookupParallel:
		if resp2 == nil {
			panic("core: parallel lookup needs a second response QP")
		}
		o.w2b = o.ring(chainDepth, pu)
		o.b2 = b.subBuilder(ctrlDepth, pu)
		o.tag(o.b2.Ctrl)
	}
	if resp2 != nil {
		o.tag(resp2)
	}
	return o
}

// lookupLayout is the get's trigger layout: each probe's conditional
// operands and bucket, then each response's length and destination. A
// LookupSingle instance posts no second probe, so its trigger is the
// first probe's three slots and the first response's two.
var lookupLayout = []slot{
	{pCAS, wqe.OffCmp, opNoop}, {pCAS, wqe.OffSwap, opWrite}, {pRead, wqe.OffSrc, opBucket},
	{probe2 + pCAS, wqe.OffCmp, opNoop}, {probe2 + pCAS, wqe.OffSwap, opWrite}, {probe2 + pRead, wqe.OffSrc, opBucket2},
	{pResp, wqe.OffLen, opLen}, {pResp, wqe.OffDst, opResp},
	{probe2 + pResp, wqe.OffLen, opLen}, {probe2 + pResp, wqe.OffDst, opResp},
}

// Arm posts one request instance: a probe per candidate bucket, each
// READ copying the bucket's [keyCtrl, valAddr] onto its response's
// [ctrl, src]. Each armed instance serves exactly one get; servers
// re-arm from completion callbacks (unrolled mode) or pre-arm many
// instances ahead of time — pre-arming is what lets the offload keep
// serving across host crashes (§5.6).
func (o *LookupOffload) Arm() {
	resp := o.Resp
	if resp == nil {
		resp = o.Trig
	}
	var in instance
	o.inject(&in, pRead, o.w2, resp, 16, 0)
	switch o.Mode {
	case LookupSingle:
		o.fire(lookupLayout, &in, in.steps[:probe2])
	case LookupSeq:
		o.inject(&in, probe2, o.w2b, resp, 16, 0)
		o.fire(lookupLayout, &in, in.steps[:2*probe2])
	default:
		// Both control chains fire off the same arrival.
		o.inject(&in, probe2, o.w2b, o.Resp2, 16, 0)
		o.fire(lookupLayout, &in, in.steps[:probe2], in.steps[probe2:2*probe2])
	}
}

// Run starts the control queue(s). Call once after the first Arm.
func (o *LookupOffload) Run() {
	o.B.Run()
	if o.b2 != nil {
		o.b2.Ctrl.RingSQ()
	}
}

// TriggerPayload builds the client SEND payload for a get of key,
// requesting length valLen into the client-side buffer respAddr. The
// result is the context's own buffer, overwritten by its next
// TriggerPayload.
func (o *LookupOffload) TriggerPayload(key, valLen, respAddr uint64) []byte {
	return o.payload(lookupLayout, key, operands{opBucket: o.Table.HashAddr(key, 0), opBucket2: o.Table.HashAddr(key, 1),
		opLen: valLen, opResp: respAddr})
}
