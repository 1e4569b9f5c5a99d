package core

import (
	"repro/internal/hopscotch"
	"repro/internal/rnic"
	"repro/internal/telemetry"
	"repro/internal/wqe"
)

// The version-probe offload: the repair subsystem's cheap sibling of
// the lookup chain.
//
// Replica convergence needs a way for a coordinator to ask a replica
// "what version of key x do you hold?" without burning a host RPC per
// question — the whole point of RedN is that the NIC can answer. A
// probe is one SEND scattered into a pre-armed three-verb chain:
//
//	RECV  scatter cond operands + bucket addr + response addrs
//	read  READ 8B bucket.keyCtrl -> resp.ctrl   (inject the occupant)
//	cas   resp.ctrl: NOOP|key -> WRITE|key      (flip iff it is key)
//	resp  WRITE 8B bucket.version -> client     (the answer)
//
// This is the lookup chain's injection idiom aimed at the version word
// instead of the value: the probe READ copies the bucket's key/control
// word verbatim onto the response WQE, the CAS flips NOOP to WRITE
// exactly when the bucket holds the probed key, and the armed WRITE
// returns the bucket's 8-byte version word — stamping the key into the
// completion's id field for client-side demultiplexing. A bucket that
// holds another key, a tombstone, or a pending word fails the compare
// and the chain falls through: no response, and the client times out —
// the same no-negative-acknowledgement discipline as gets. The version
// word sits outside the 16 bytes lookup probes inject, so probes and
// lookups share one bucket layout without interference.
//
// Cost per armed probe: 4 data WRs (RECV, READ, CAS, WRITE) and 6 sync
// WRs (WAIT on the trigger, ENABLE+WAIT around READ and CAS, ENABLE of
// the response) — under half a lookup, and no host involvement at all,
// which is what makes read-repair affordable on every replicated get.

// ProbeTarget names the bucket a probe interrogates. The coordinator
// computes it from its view of the replica's table, exactly as set and
// delete claims are computed; a stale view fails the CAS harmlessly and
// the probe times out.
type ProbeTarget struct {
	BucketAddr uint64
}

// ProbeOffload is an armed version-probe offload for one request slot
// of a client connection's probe path.
type ProbeOffload struct {
	B *Builder
	// Trig is the server side of the connection's probe-trigger QP; its
	// RQ receives probe SENDs, shared by every slot of the pool.
	Trig *rnic.QP
	// Resp is the slot's dedicated managed QP back to the client (one
	// per slot: an ENABLE grants every earlier WQE on a ring).
	Resp *rnic.QP

	w2 *rnic.QP // managed chain ring: read + conditional

	armed uint64
	trig  triggerBuf
}

// SetTraceOp tags this context's private rings (control, chain,
// response) so the next armed instance's WRs attribute to op in
// traces; the shared trigger QP stays untagged.
func (o *ProbeOffload) SetTraceOp(op uint64) {
	o.B.Ctrl.SetTraceOp(op)
	o.w2.SetTraceOp(op)
	o.Resp.SetTraceOp(op)
}

// SetProfClass tags every QP this context executes WRs through
// (including the shared trigger QP — it serves only this op class)
// for profiler attribution. Static; call once at wiring.
func (o *ProbeOffload) SetProfClass(class string) {
	o.B.Ctrl.SetProfClass(class)
	o.w2.SetProfClass(class)
	o.Resp.SetProfClass(class)
	if o.Trig != nil {
		o.Trig.SetProfClass(class)
	}
}

// SetReceipt rides a latency receipt on this context's private rings
// (the same set SetTraceOp tags). nil clears.
func (o *ProbeOffload) SetReceipt(r *telemetry.Receipt) {
	o.B.Ctrl.SetReceipt(r)
	o.w2.SetReceipt(r)
	o.Resp.SetReceipt(r)
}

// probeChainWQEs is the busiest-ring WQE budget of one instance (w2):
// the injection READ and the conditional CAS.
const probeChainWQEs = 2

// NewProbeOffload builds one probe context. trig is the server-side QP
// of the client's probe connection (managed RQ); resp a server-side
// managed QP connected back to the client for the version response.
func NewProbeOffload(b *Builder, trig, resp *rnic.QP) *ProbeOffload {
	o := &ProbeOffload{B: b, Trig: trig, Resp: resp,
		w2: b.NewManagedQPOnPU(2*probeChainWQEs+4, -1)}
	o.w2.SendCQ().SetAutoDrain(true)
	return o
}

// Arm posts one probe instance. Re-arming models the client rewriting
// the registered code region over RDMA (§3.5), exactly like the other
// chains — so probes, too, survive host failures that leave the NIC
// alive.
func (o *ProbeOffload) Arm() {
	b := o.B
	o.armed++

	resp := b.Post(o.Resp, wqe.WQE{Op: wqe.OpNoop, Len: 8, Flags: wqe.FlagSignaled})
	read := b.Post(o.w2, wqe.WQE{Op: wqe.OpRead,
		Dst: resp.FieldAddr(wqe.OffCtrl), Len: 8, Flags: wqe.FlagSignaled})
	cas := b.Post(o.w2, wqe.WQE{Op: wqe.OpCAS,
		Dst: resp.FieldAddr(wqe.OffCtrl), Flags: wqe.FlagSignaled})

	recvTarget := b.ExpectRecv(o.Trig, o.armed, []wqe.ScatterEntry{
		{Addr: cas.FieldAddr(wqe.OffCmp), Len: 8},
		{Addr: cas.FieldAddr(wqe.OffSwap), Len: 8},
		{Addr: read.FieldAddr(wqe.OffSrc), Len: 8},
		{Addr: resp.FieldAddr(wqe.OffSrc), Len: 8},
		{Addr: resp.FieldAddr(wqe.OffDst), Len: 8},
	})
	b.WaitRecv(o.Trig, recvTarget)
	b.Enable(read)
	b.WaitStep(read)
	b.Enable(cas)
	b.WaitStep(cas)
	b.Enable(resp)
	b.Ctrl.RingSQ()
}

// Armed returns the number of probe instances armed so far.
func (o *ProbeOffload) Armed() uint64 { return o.armed }

// ProbeWRsPerOp reports the work requests one armed probe posts — the
// repair path's Table 2-style budget.
func ProbeWRsPerOp() (data, sync int) { return 4, 6 }

// TriggerPayload builds the client SEND payload for a probe of key at
// target, answering 8 bytes (the bucket's version word) into the
// client-side respAddr. Field order matches Arm's scatter list. The
// result is the context's own buffer, overwritten by its next
// TriggerPayload.
func (o *ProbeOffload) TriggerPayload(key uint64, target ProbeTarget, respAddr uint64) []byte {
	k := key & hopscotch.KeyMask
	return o.trig.fill(
		wqe.MakeCtrl(wqe.OpNoop, k),  // expected occupant
		wqe.MakeCtrl(wqe.OpWrite, k), // armed response word
		target.BucketAddr,
		target.BucketAddr+hopscotch.OffVersion, // response source
		respAddr,
	)
}

// ProbePool is a pool of K independent probe contexts sharing one
// client connection's trigger RQ, mirroring SetPool and DeletePool:
// per-slot private control queues and chain rings spread over the
// port's PUs, WAITs targeting absolute arrival counts of the shared
// trigger CQ so the j-th armed chain fires on the j-th probe SEND.
type ProbePool struct {
	Trig *rnic.QP
	Ctxs []*ProbeOffload
}

// NewProbePool builds K = len(resp) probe contexts over the trig
// connection. resp are server-side managed QPs connected back to the
// client, one per context, carrying the version responses.
func NewProbePool(b *Builder, trig *rnic.QP, resp []*rnic.QP) *ProbePool {
	if len(resp) == 0 {
		panic("core: ProbePool needs at least one response QP")
	}
	p := &ProbePool{Trig: trig}
	const ctrlDepth = 64
	for i := range resp {
		cb := b.SubBuilder(ctrlDepth, -1)
		p.Ctxs = append(p.Ctxs, NewProbeOffload(cb, trig, resp[i]))
	}
	return p
}

// Depth returns the number of contexts (max overlapping probes).
func (p *ProbePool) Depth() int { return len(p.Ctxs) }

// Arm arms one instance on context i. Triggers must go out in global
// arm order — arrival order sequences the shared trigger CQ.
func (p *ProbePool) Arm(i int) { p.Ctxs[i].Arm() }
