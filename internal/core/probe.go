package core

import (
	"repro/internal/hopscotch"
	"repro/internal/rnic"
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

// ProbeOffload is an armed version-probe offload for one request slot
// of a client connection's probe path; its Resp carries the answer.
type ProbeOffload struct {
	chain
	w2 *rnic.QP // managed chain ring: read + conditional
}

// A probe's steps, in sequencing order (see chain.inject); a lookup's
// second probe follows its first at probe2.
const (
	pRead = iota
	pCAS
	pResp
	probe2
)

// probeLayout is the version probe's trigger layout.
var probeLayout = []slot{
	{pCAS, wqe.OffCmp, opNoop}, {pCAS, wqe.OffSwap, opWrite}, // flip iff the occupant is key
	{pRead, wqe.OffSrc, opBucket},
	{pResp, wqe.OffSrc, opVerAddr}, {pResp, wqe.OffDst, opResp},
}

// NewProbePool builds K = len(resp) probe contexts over the trig
// connection; resp carry the version responses.
func NewProbePool(b *Builder, trig *rnic.QP, resp []*rnic.QP) *Pool[*ProbeOffload] {
	return newPool(b, trig, resp, func(_ int, cb *Builder, r *rnic.QP) *ProbeOffload {
		o := &ProbeOffload{chain: newChain(cb, trig, r)}
		o.w2 = o.ring(2*2+4, -1) // READ + CAS per instance; ring wrap needs 2x
		return o
	})
}

// TriggerPayload posts and fires a probe of key in the bucket at bucket,
// answering 8 bytes (the bucket's version word) into the client-side
// respAddr, and returns the SEND payload that drives it: the context's
// own buffer, overwritten by its next TriggerPayload. Re-posting models
// the client rewriting the registered code region over RDMA (§3.5), so
// probes, too, survive host failures that leave the NIC alive. The
// coordinator computes the bucket from its view of the replica's table,
// as set and delete claims are computed; a stale view fails the CAS
// harmlessly and the probe times out.
func (o *ProbeOffload) TriggerPayload(key, bucket, respAddr uint64) []byte {
	var in instance
	o.inject(&in, pRead, o.w2, o.Resp, 8, 8)
	o.fire(probeLayout, &in, in.steps[:probe2])
	return o.payload(probeLayout, key, operands{opBucket: bucket, opVerAddr: bucket + hopscotch.OffVersion,
		opResp: respAddr})
}
