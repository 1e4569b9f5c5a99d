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
// one SEND whose payload is scattered into a pre-armed chain:
//
//	RECV      scatter claim/cond operands + bucket addr + ack addrs
//	claimCAS  bucket.keyCtrl: NOOP|key -> PENDING|key (the delete claim)
//	          old bucket word -> unlink.ctrl          (the CAS's own result)
//	condCAS   unlink.ctrl: NOOP|key -> WRITE|key      (arm iff claimed)
//	unlink    WRITE bucket.[keyCtrl,valAddr,valLen] -> to-free ring slot
//	verRead   READ unlink.ctrl -> verWr.ctrl          (copy the verdict)
//	verWr     WRITE 8B version -> bucket.version      (iff claimed)
//	tombCAS   bucket.keyCtrl: PENDING|key -> TOMBSTONE (finalize)
//	ack       WRITE unlink.ctrl -> client ack buffer  (the verdict)
//
// The claim parks the bucket on the per-key PENDING word
// (hopscotch.PendingCtrl) — the same claimed-but-unpublished marker
// fresh set claims use, and for the same reason: a lookup chain's
// probe READ injects bucket words verbatim into its response WQE, so
// the parked word must stay an inert NOOP or a concurrent get would
// execute it and serve the extent being retired. The claim's result
// buffer is the unlink WQE's control word, so the bucket's OLD word
// lands there, and condCAS flips it to an executable WRITE exactly when
// it is the live occupant NOOP|key — when the claim succeeded — the set
// chain's conditional idiom, safe for the same reason: every word a
// bucket can hold has the NOOP opcode (hopscotch's "inert under
// injection" rule). A failed claim (key absent, already tombstoned, or
// a racing writer) leaves that inert word in place and the chain falls
// through to its ack: no unlink, no version stamp, a refusal the client
// reads one round trip later. Gets during the pending window miss —
// they linearize after the delete.
//
// The unlink WRITE copies the bucket's first three words — the claimed
// (pending) key word plus [valAddr, valLen] — onto a slot of the
// server's to-free ring before tombCAS retires the bucket; the host GC
// drains the ring into the extent arena at its leisure, using the key
// word to verify the extent still belongs to the deleted key before
// freeing (a straggler's double-deposit of a since-recycled address is
// dropped as stale).
//
// One hazard survives: a straggling chain from a delete the client
// already timed out can deposit the same extent a newer chain just
// deposited. The drain's key-word verification makes the duplicate a
// counted stale no-op — whether the address is already gone or has
// been recycled to another key — not corruption.
//
// verRead/verWr stamp the delete's version (the coordinator's quorum
// sequence, scattered into a per-instance args word) onto the bucket's
// version word, so a tombstone is ordered against live replicas: the
// repair subsystem compares versions to decide whether an absent key
// means "deleted at seq v" or "never saw the write". The WRITE is
// conditionally armed exactly like the unlink — verRead copies
// unlink.ctrl (WRITE|key iff the claim succeeded, an inert NOOP-family
// word otherwise) onto verWr's control word — so a failed claim stamps
// nothing. The ack is the set chain's: an unconditional WRITE of
// unlink's control word — WRITE|key, or the word that refused the claim.

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

	w2 *rnic.QP // managed chain ring: claim, conditional arm, verdict copy, tombstone
	w3 *rnic.QP // managed ring for the unlink + version WRITEs

	args [argsRing]uint64 // the instances' version words (chain.argsBuf)
}

// A delete's steps after the claim and its conditional, in sequencing
// order.
const (
	dlUnlink = iota + wCond + 1
	dlVerRead
	dlVerWr
	dlTomb
	dlAck
)

// deleteLayout is the delete's trigger layout. The claim expects
// NOOP|key (the live occupant) and installs the per-key pending word
// (opNew), which the tombstone CAS then retires.
var deleteLayout = []slot{
	{wClaim, wqe.OffCmp, opNoop}, {wClaim, wqe.OffSwap, opNew}, {wClaim, wqe.OffDst, opBucket},
	// The conditional arm compares against the word a successful claim REPLACED.
	{wCond, wqe.OffCmp, opNoop}, {wCond, wqe.OffSwap, opWrite},
	{dlUnlink, wqe.OffSrc, opBucket}, // [keyCtrl, valAddr, valLen]
	{argsWord, 0, opVer}, {dlVerWr, wqe.OffDst, opVerAddr},
	{dlTomb, wqe.OffCmp, opNew}, {dlTomb, wqe.OffSwap, opTomb}, {dlTomb, wqe.OffDst, opBucket},
	{dlAck, wqe.OffCtrl, opWrite}, {dlAck, wqe.OffDst, opResp}, {dlAck, wqe.OffLen, opAckLen},
}

// NewDeletePool builds K = len(resp) delete contexts over the trig
// connection, carving one to-free ring in the server's memory and
// partitioning it across the contexts.
func NewDeletePool(b *Builder, trig *rnic.QP, resp []*rnic.QP) *Pool[*DeleteOffload] {
	ring := extent.NewFreeRing(b.Dev.Mem(), deleteRingSlots*len(resp))
	return newPool(b, trig, resp, func(i int, cb *Builder, r *rnic.QP) *DeleteOffload {
		return newDeleteOffload(cb, trig, r, ring, uint64(i)*deleteRingSlots)
	})
}

// newDeleteOffload builds one delete context over ring slots
// [slotBase, slotBase+deleteRingSlots) of ring.
func newDeleteOffload(b *Builder, trig, resp *rnic.QP, ring *extent.FreeRing, slotBase uint64) *DeleteOffload {
	o := &DeleteOffload{chain: newChain(b, trig, resp), Ring: ring, slotBase: slotBase}
	// w2 holds four WQEs per instance (claim, conditional arm, verdict
	// copy, tombstone), w3 two (unlink, verWr); ring wrap needs 2x.
	o.w2 = o.ring(2*4+4, -1)
	o.w3 = o.ring(16, -1)
	return o
}

// Arm posts one delete instance. Re-arming models the client rewriting
// the registered code region over RDMA (§3.5), exactly like sets.
func (o *DeleteOffload) Arm() {
	b := o.B
	ringSlot := o.Ring.SlotAddr(o.slotBase + o.armed%deleteRingSlots)
	// unlink copies the bucket's [keyCtrl, valAddr, valLen] onto the ring
	// slot; its control word is the verdict (see claim). verWr stamps the
	// delete's version (scattered into args) onto the bucket's version
	// word; verRead arms it with the verdict, so it fires only on a
	// successful claim.
	in := instance{args: o.argsBuf(&o.args, 8)}
	s := &in.steps
	s[dlUnlink] = b.Post(o.w3, wqe.WQE{Op: wqe.OpNoop, Dst: ringSlot, Len: 24, Flags: wqe.FlagSignaled})
	s[dlVerWr] = b.Post(o.w3, wqe.WQE{Op: wqe.OpNoop, Src: in.args, Len: 8, Flags: wqe.FlagSignaled})
	o.claim(&in, o.w2, dlUnlink, dlAck)
	s[dlVerRead] = b.Post(o.w2, wqe.WQE{Op: wqe.OpRead, Src: s[dlUnlink].FieldAddr(wqe.OffCtrl),
		Dst: s[dlVerWr].FieldAddr(wqe.OffCtrl), Len: 8, Flags: wqe.FlagSignaled})
	s[dlTomb] = b.cond(o.w2, 0, 0, 0, 0)
	o.fire(deleteLayout, &in, s[:dlAck+1])
}

// TriggerPayload builds the client SEND payload for a delete of key in
// the bucket at bucket with version ver, acking the 8-byte verdict into
// the client-side ackAddr. The result is the context's own buffer,
// overwritten by its next TriggerPayload.
func (o *DeleteOffload) TriggerPayload(key, bucket, ver, ackAddr uint64) []byte {
	return o.payload(deleteLayout, key, operands{opNew: hopscotch.PendingCtrl(key), opBucket: bucket,
		opVerAddr: bucket + hopscotch.OffVersion, opVer: ver, opResp: ackAddr})
}
