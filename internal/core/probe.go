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
// probe is one SEND scattered into a pre-armed one-verb chain:
//
//	RECV  scatter bucket addr + response addr onto the WRITE
//	resp  WRITE 32B bucket -> client   ([keyCtrl, valAddr, valLen, version])
//
// The NIC decides nothing: the WRITE returns the whole bucket, stamped
// with the probed key in its id field for client-side demultiplexing,
// and the client compares the bucket's key/control word with
// ClaimCtrl(key) itself. A bucket that holds another key, a tombstone
// or a pending word answers too, so a probe miss is known in one round
// trip instead of at the client's deadline. A 32 B read is not atomic
// against a racing write, so the key word and the version may come from
// two writes; the version is a hint, which the coordinator re-checks
// against its own view before it repairs anything.
//
// Cost per armed probe: 2 data WRs (RECV, WRITE), both managed fetches,
// and 2 sync WRs (WAIT on the trigger, ENABLE of the response) — half a
// hinted get's fetches, and no host involvement at all, which is what
// makes read-repair affordable on replicated gets.

// ProbeOffload is an armed version-probe offload for one request slot
// of a client connection's probe path; its Resp carries the answer.
type ProbeOffload struct {
	chain
}

// probeLayout is the version probe's trigger layout: the one step's
// source (the bucket) and destination (the client's answer buffer).
var probeLayout = []slot{{0, wqe.OffSrc, opBucket}, {0, wqe.OffDst, opResp}}

// NewProbePool builds K = len(resp) probe contexts over the trig
// connection; resp carry the answers, and must be managed: the trigger
// rewrites the WRITE they hold.
func NewProbePool(b *Builder, trig *rnic.QP, resp []*rnic.QP) *Pool[*ProbeOffload] {
	return newPool(b, trig, resp, func(_ int, cb *Builder, r *rnic.QP) *ProbeOffload {
		return &ProbeOffload{chain: newChain(cb, trig, r)}
	})
}

// TriggerPayload posts and fires a probe of key in the bucket at bucket,
// answering the whole bucket into the client-side respAddr,
// and returns the SEND payload that drives it: the context's own
// buffer, overwritten by its next TriggerPayload. Re-posting models the
// client rewriting the registered code region over RDMA (§3.5), so
// probes, too, survive host failures that leave the NIC alive. The
// coordinator computes the bucket from its view of the replica's table,
// as set and delete claims are computed; a stale view answers a bucket
// whose key word is not the key's.
func (o *ProbeOffload) TriggerPayload(key, bucket, respAddr uint64) []byte {
	var in instance
	in.steps[0] = o.B.Post(o.Resp, wqe.WQE{Op: wqe.OpWrite, ID: key & hopscotch.KeyMask, Len: hopscotch.BucketSize,
		Flags: wqe.FlagSignaled})
	o.fire(probeLayout, &in, in.steps[:1])
	return o.payload(probeLayout, key, operands{opBucket: bucket, opResp: respAddr})
}
