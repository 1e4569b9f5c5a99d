package core

import (
	"repro/internal/extent"
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
//	RECV  scatter bucket addr + header addr onto the WRITE's gather list
//	resp  WAIT for the trigger's arrival
//	      WRITE [bucket 16B | header 16B] -> client
//	      ([keyCtrl, valAddr, version, valLen])
//
// The NIC decides nothing: the WRITE gathers the bucket's key word and
// value pointer, then the [version, length] header stored just before
// the value extent the coordinator expects the bucket to name (Extent),
// stamped with the probed key in its id field for client-side
// demultiplexing. The client accepts the version iff the key word is
// ClaimCtrl(key) and the pointer is Extent: the bucket is gathered
// first, so a bucket that names Extent named it before the header was
// read. A bucket that holds another key, a tombstone, a pending word or
// another extent answers too, so a probe miss is known in one round
// trip instead of at the client's deadline. The version is a hint,
// which the coordinator re-checks against its own view before it
// repairs anything.
//
// The WRITE is final when posted, so it waits for its trigger on its
// own unmanaged queue: 2 data WRs (RECV, WRITE), only the RECV a managed
// fetch, and 1 sync WR — half a hinted get's fetches and no host
// involvement, which is what makes read-repair affordable.

// ProbeOffload is an armed version-probe offload for one request slot
// of a client connection's probe path; its Resp carries the answer.
type ProbeOffload struct {
	chain
	// Extent is the value extent the next TriggerPayload expects the
	// probed bucket to name: the probe gathers the header before it.
	Extent uint64
	lists  uint64 // the instances' gather lists (chain.argsBuf)
}

// A probe's gather list is two entries: {bucket, 16}, the bucket's
// [keyCtrl, valAddr], then {header, 16}. The trigger scatters both
// addresses; the lengths are carved in.
const probeListBytes = 32

// probeLayout is the version probe's trigger layout: the two addresses
// its one step gathers.
var probeLayout = []slot{{argsWord, 0, opBucket}, {argsWord, 16, opExtent}}

// NewProbePool builds K = len(resp) probe contexts over the trig
// connection; resp carry the answers, and must be unmanaged: each WRITE
// they hold is final when posted and waits for its trigger itself.
func NewProbePool(b *Builder, trig *rnic.QP, resp []*rnic.QP) *Pool[*ProbeOffload] {
	return newPool(b, trig, resp, func(_ int, cb *Builder, r *rnic.QP) *ProbeOffload {
		o := &ProbeOffload{chain: newChain(cb, trig, r)}
		o.lists = o.newArgs(probeListBytes)
		for list := o.lists; list < o.lists+argsRing*probeListBytes; list += probeListBytes {
			cb.Dev.Mem().PutU64(list+8, 16)
			cb.Dev.Mem().PutU64(list+24, extent.HeadBytes)
		}
		return o
	})
}

// TriggerPayload posts and fires a probe of key in the bucket at bucket,
// answering [keyCtrl, valAddr, version, valLen] — the bucket's first two
// words and the header of the value at Extent — into the client-side
// respAddr, and returns the SEND payload that drives it: the context's
// own buffer, overwritten by its next TriggerPayload. Re-posting models
// the client rewriting the registered code region over RDMA (§3.5), so
// probes, too, survive host failures that leave the NIC alive. The
// coordinator computes the bucket and its extent from its view of the
// replica's table, as set and delete claims are computed; a stale view
// answers a bucket whose key word is not the key's or that names
// another extent.
func (o *ProbeOffload) TriggerPayload(key, bucket, respAddr uint64) []byte {
	in := instance{args: o.argsBuf(o.lists, probeListBytes)}
	arrival := o.Trig.RecvCQ() // the WAIT targets the RECV posted next
	o.B.Post(o.Resp, wqe.WQE{Op: wqe.OpWait, Peer: arrival.CQN(), Count: o.B.Expected(arrival) + 1})
	in.steps[0] = o.B.Post(o.Resp, wqe.WQE{Op: wqe.OpWrite, ID: key & hopscotch.KeyMask, Src: in.args, Count: 2,
		Dst: respAddr, Flags: wqe.FlagSignaled | wqe.FlagGatherSrc})
	o.recv(probeLayout, &in)
	o.Resp.RingSQ()
	return o.payload(probeLayout, key, operands{opBucket: bucket, opExtent: o.Extent - extent.HeadBytes})
}
