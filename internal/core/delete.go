package core

import (
	"repro/internal/extent"
	"repro/internal/hopscotch"
	"repro/internal/rnic"
	"repro/internal/wqe"
)

// The hash-delete offload: the retirement sibling of the set chain.
//
// A delete must do three things atomically with respect to other
// fabric writers: take the key out of the table, hand its value extent
// to the allocator, and tell the client — and RedN's self-modifying
// machinery covers all three without the host CPU. A client delete is
// one SEND whose payload is scattered into a chain posted for it:
//
//	RECV      scatter claim/cond operands + bucket addrs
//	claimCAS  bucket.keyCtrl: NOOP|key -> TOMBSTONE   (the delete claim)
//	          old bucket word -> unlink.ctrl          (the CAS's own result)
//	condCAS   unlink.ctrl: NOOP|key -> WRITE|key      (arm iff claimed)
//	unlink    WRITE [PENDING|key | bucket.[valAddr, valLen]] -> to-free ring slot
//	freeRead  READ unlink.ctrl -> freeWr.ctrl         (copy the verdict)
//	freeWr    WRITE [FreePtr, 0] -> bucket.[valAddr, valLen] (iff claimed)
//	WAIT      freeWr                                  (on the ack's queue)
//	ack       WRITE unlink.ctrl -> client ack buffer  (the verdict)
//
// The claim tombstones the bucket at once, so gets miss from then on —
// they linearize after the delete. Its result buffer is the unlink
// WQE's control word, so the bucket's OLD word lands there, and condCAS
// flips it to an executable WRITE exactly when it is the live occupant
// NOOP|key — when the claim succeeded — the set chain's conditional
// idiom, safe for the same reason: every key word a bucket can hold has
// the NOOP opcode (hopscotch's "inert under injection" rule). A failed
// claim (key absent, already tombstoned, or a racing writer) leaves
// that inert word in place and the chain falls through to its ack: no
// unlink, no free pointer, a refusal the client reads one round trip
// later. Until freeWr lands, the tombstone still names the deleted
// extent, not hopscotch.FreePtr, which holds the bucket as a claim in
// flight would: no fresh claim's pointer CAS can take it, and no host
// write places into it.
//
// The unlink WRITE gathers the deleted key's pending word (a tag the
// instance's args carry) and the bucket's [valAddr, valLen] onto a slot
// of the server's to-free ring; the host GC drains the ring into the
// extent arena at its leisure, using the tag to verify the extent still
// belongs to the deleted key before freeing. So a straggling chain from
// a timed-out delete that deposits an extent a newer chain already
// deposited is a counted stale no-op — whether the address is already
// gone or recycled to another key.
//
// freeWr leaves the bucket the words hopscotch.Table.Remove leaves,
// [FreePtr, 0], once the unlink has copied the old pointer out, armed
// like the unlink: freeRead copies unlink.ctrl onto its control word.
// A delete carries no version (its caller records the sequence). The
// ack is the set chain's: an unconditional WRITE of unlink's control
// word — WRITE|key, or the word that refused the claim — posted whole,
// so TriggerPayload posts the instance, as the set's.

// deleteRingSlots is the per-context depth of the to-free ring: one
// delete is in flight per context, so a few slots absorb stragglers
// until the next drain.
const deleteRingSlots = 8

// DeleteOffload is an armed conditional-delete offload for one request
// slot of a client connection's delete path; its Resp carries the ack.
type DeleteOffload struct {
	chain
	// Ring is the to-free ring unlink WRITEs target, shared by the pool;
	// slotBase is this context's first slot within it.
	Ring     *extent.FreeRing
	slotBase uint64

	w2 *rnic.QP // managed chain ring: claim, conditional arm, verdict copy
	w3 *rnic.QP // managed ring for the unlink + free WRITEs

	args uint64 // the instances' args buffers (chain.argsBuf, delArgs)
}

// A delete's steps after the claim and its conditional, in sequencing
// order.
const (
	dlUnlink = iota + wCond + 1
	dlFreeRead
	dlFreeWr
	dlAck
)

// A delete instance's args buffer: freeWr's source [FreePtr, 0], the
// unlink's tag, and the unlink's gather list, {tag, 8} then the
// bucket's {[valAddr, valLen], 16}.
const (
	delTag   = 16
	delList  = 24
	delArgs  = 56
	delValAt = delList + 16 // the gather entry the trigger aims at the bucket
)

// deleteLayout is the delete's trigger layout. The claim expects
// NOOP|key (the live occupant) and installs the tombstone.
var deleteLayout = []slot{
	{wClaim, wqe.OffCmp, opNoop}, {wClaim, wqe.OffSwap, opTomb}, {wClaim, wqe.OffDst, opBucket},
	// The conditional arm compares against the word a successful claim REPLACED.
	{wCond, wqe.OffCmp, opNoop}, {wCond, wqe.OffSwap, opWrite},
	{argsWord, delValAt, opValAddr}, {dlFreeWr, wqe.OffDst, opValAddr},
}

// NewDeletePool builds K = len(resp) delete contexts over the trig
// connection, carving one to-free ring in the server's memory and
// giving context i its slots [i, i+1) × deleteRingSlots.
func NewDeletePool(b *Builder, trig *rnic.QP, resp []*rnic.QP) *Pool[*DeleteOffload] {
	ring := extent.NewFreeRing(b.Dev.Mem(), deleteRingSlots*len(resp))
	return newPool(b, trig, resp, func(i int, cb *Builder, r *rnic.QP) *DeleteOffload {
		o := &DeleteOffload{chain: newChain(cb, trig, r), Ring: ring, slotBase: uint64(i) * deleteRingSlots}
		o.args = o.newArgs(delArgs)
		m := cb.Dev.Mem()
		for a := o.args; a < o.args+argsRing*delArgs; a += delArgs {
			m.PutU64(a, hopscotch.FreePtr)
			m.PutU64(a+delList, a+delTag)
			m.PutU64(a+delList+8, 8)
			m.PutU64(a+delValAt+8, 16)
		}
		// w2 holds claim, conditional arm and verdict copy, w3 unlink and
		// freeWr; ring wrap needs 2x.
		o.w2 = o.ring(2*3+4, -1)
		o.w3 = o.ring(16, -1)
		return o
	})
}

// TriggerPayload posts and fires a delete of key in the bucket at
// bucket, acking the 8-byte verdict into the client-side ackAddr, and returns the SEND payload that drives it: the context's
// own buffer, overwritten by its next TriggerPayload. Re-posting models
// the client rewriting the registered code region over RDMA (§3.5),
// exactly like sets.
func (o *DeleteOffload) TriggerPayload(key, bucket, ackAddr uint64) []byte {
	b := o.B
	ringSlot := o.Ring.SlotAddr(o.slotBase + o.armed%deleteRingSlots)
	// unlink gathers the key's tag and the bucket's [valAddr, valLen]
	// onto the ring slot; its control word is the verdict (see claim),
	// which freeRead copies onto freeWr, the bucket's free words.
	in := instance{args: o.argsBuf(o.args, delArgs)}
	b.Dev.Mem().PutU64(in.args+delTag, hopscotch.PendingCtrl(key))
	s := &in.steps
	s[dlUnlink] = b.Post(o.w3, wqe.WQE{Op: wqe.OpNoop, Src: in.args + delList, Count: 2, Dst: ringSlot,
		Flags: wqe.FlagSignaled | wqe.FlagGatherSrc})
	s[dlFreeWr] = b.Post(o.w3, wqe.WQE{Op: wqe.OpNoop, Src: in.args, Len: 16, Flags: wqe.FlagSignaled})
	o.claim(&in, o.w2, dlUnlink)
	s[dlFreeRead] = b.Post(o.w2, wqe.WQE{Op: wqe.OpRead, Src: s[dlUnlink].FieldAddr(wqe.OffCtrl),
		Dst: s[dlFreeWr].FieldAddr(wqe.OffCtrl), Len: 8, Flags: wqe.FlagSignaled})
	o.ack(&in, dlAck, dlUnlink, key, ackAddr)
	o.fire(deleteLayout, &in, s[:dlAck+1])
	return o.payload(deleteLayout, key, operands{opBucket: bucket, opValAddr: bucket + hopscotch.OffValAddr})
}
