package core

import (
	"repro/internal/extent"
	"repro/internal/hopscotch"
	"repro/internal/rnic"
	"repro/internal/wqe"
)

// The hash-set offload: the write-path sibling of the lookup chain.
//
// RedN's lookup (Fig 9) proves the NIC can run a conditional get; the
// same self-modifying machinery runs a conditional *put*. A client set
// is two work requests on one connection: an RDMA WRITE landing the
// value bytes in a server-side staging extent, then a SEND whose
// payload is scattered into the armed chain. The chain claims the key's
// bucket with a CAS against its key/control word — the hopscotch bucket
// layout *is* a WQE control word, so one 64-bit CAS checks the expected
// occupant and installs the new key — and only on a successful claim
// repoints the bucket at the staged value. The host CPU never runs, and
// the chain always answers: a refusal costs a round trip, not a timeout.
//
// Chain shape, per instance (managed rings, ctrl-sequenced):
//
//	RECV      scatter claim/cond operands + bucket addrs + value len
//	claimCAS  bucket.keyCtrl: Expect -> New      (the bucket claim)
//	          old bucket word -> valWr.ctrl      (the CAS's own result)
//	condCAS   valWr.ctrl: Expect -> WRITE|key    (flip iff claimed)
//	valWr     WRITE [stagingAddr, valLen, version]
//	          -> bucket.[valAddr, valLen, version]
//	pubCAS    bucket.keyCtrl: New -> NOOP|key    (fresh claims only)
//	ack       WRITE valWr.ctrl -> client ack buffer (the verdict)
//
// The claim's result buffer is valWr's control word, so the claim
// succeeded exactly when that word is now claim.Expect, and condCAS
// compares against Expect to flip valWr into a WRITE. (Stricter than
// checking that the bucket holds New afterwards: a fresh claim that lost
// to a straggler's leftover PENDING|key finds New there and did not
// install it.) A refused claim leaves the bucket's old word as valWr's
// control word, safe only because every word a bucket can hold — zero,
// tombstone, pending, resident NOOP|key — has the NOOP opcode
// (hopscotch's "inert under injection" rule): valWr runs as a NOOP. The
// ack WRITEs valWr's control word as it stands last: WRITE|key for an
// applied set, else the word that refused the claim.
//
// The claim word New decides the shape. An overwrite of a resident key
// claims NOOP|key -> NOOP|key: the bucket stays readable throughout (a
// lookup landing mid-chain serves the old value, linearizing before the
// overwrite), and no pubCAS is posted — it would swap NOOP|key for
// itself. A FRESH claim (an empty or tombstoned bucket) must not be
// readable before the repoint: its [valAddr, valLen] words still carry
// the previous occupant's extent, which a concurrent lookup would serve.
// It installs the PENDING word (hopscotch.PendingCtrl: a NOOP with a
// reserved id bit — inert if a probe READ injects it, matched by no
// lookup) and pubCAS publishes NOOP|key after valWr has landed.
//
// Values live in staging extents from the server's extent arena (see
// internal/extent and delete.go); without one, the raw bump allocator
// leaks every overwrite — kept for standalone core tests.

// SetClaim names the bucket a set claims and the CAS operands that
// claim it: Expect is the bucket's current key/control word (0, the
// tombstone, or NOOP|key for an overwrite) and New the word installed on
// success — NOOP|key for an overwrite, the pending word (ClaimPendingCtrl)
// for a fresh claim, which pubCAS publishes. The caller computes it from
// its view of the table; a stale view fails the CAS and the ack says so.
type SetClaim struct {
	BucketAddr uint64
	Expect     uint64
	New        uint64
}

// ClaimCtrl returns the key/control word a published bucket holds:
// exactly the word the lookup offload's conditional compares against.
func ClaimCtrl(key uint64) uint64 {
	return wqe.MakeCtrl(wqe.OpNoop, key&hopscotch.KeyMask)
}

// ClaimPendingCtrl returns the intermediate claimed-but-unpublished
// word a fresh claim installs: lookups miss it (their conditional
// compares against ClaimCtrl, and the reserved id bit matches no key),
// and — critically — it stays a NOOP, because a probe READ injects
// bucket words verbatim into response WQEs: an executable opcode here
// would serve the stale extent pointer the bucket still carries
// mid-repoint.
func ClaimPendingCtrl(key uint64) uint64 {
	return hopscotch.PendingCtrl(key)
}

// SetOffload is an armed conditional-put offload for one request slot
// of a client connection's set path; its Resp carries the ack WRITE.
type SetOffload struct {
	chain
	// MaxVal sizes the per-instance staging extents.
	MaxVal uint64
	// Arena, when set, supplies (and reclaims) staging extents; nil
	// falls back to leak-forever bump allocation.
	Arena *extent.Arena

	w2 *rnic.QP // managed chain ring: claim, conditional flip, publish
	w3 *rnic.QP // managed ring for the bucket-pointer WRITE

	args    [argsRing]uint64 // the instances' args buffers (chain.argsBuf)
	staging uint64           // staging extent of the most recently armed instance
}

// A set's steps after the claim and its conditional, in sequencing
// order. The publish CAS is the template's one optional step: posted
// only when the claim is fresh.
const (
	stValWr = iota + wCond + 1
	stPub
	stAck
)

// setLayout is the set's trigger layout. The publish CAS's slots come
// last, so an overwrite's payload is a prefix of a fresh claim's.
var setLayout = []slot{
	{wClaim, wqe.OffCmp, opExpect}, {wClaim, wqe.OffSwap, opNew}, {wClaim, wqe.OffDst, opBucket},
	// The conditional flip compares against the word a successful claim
	// REPLACED (the CAS returned it onto valWr) and arms the WRITE.
	{wCond, wqe.OffCmp, opExpect}, {wCond, wqe.OffSwap, opWrite},
	// valWr's destination, the bucket's pointer words, and the value
	// length and version that follow the staging address in args.
	{stValWr, wqe.OffDst, opValAddr}, {argsWord, 8, opLen}, {argsWord, 16, opVer},
	{stAck, wqe.OffCtrl, opWrite}, {stAck, wqe.OffDst, opResp}, {stAck, wqe.OffLen, opAckLen},
	{stPub, wqe.OffCmp, opNew}, {stPub, wqe.OffSwap, opNoop}, {stPub, wqe.OffDst, opBucket},
}

// NewSetPool builds K = len(resp) set contexts over the trig
// connection; resp carry the acks. arena supplies staging extents for
// every context (nil: bump allocation).
func NewSetPool(b *Builder, trig *rnic.QP, resp []*rnic.QP, maxVal uint64, arena *extent.Arena) *Pool[*SetOffload] {
	return newPool(b, trig, resp, func(_ int, cb *Builder, r *rnic.QP) *SetOffload {
		return newSetOffload(cb, trig, r, maxVal, arena)
	})
}

func newSetOffload(b *Builder, trig, resp *rnic.QP, maxVal uint64, arena *extent.Arena) *SetOffload {
	o := &SetOffload{chain: newChain(b, trig, resp), MaxVal: maxVal, Arena: arena}
	// Rings hold one in-flight instance (ring wrap needs 2x); w2 is the
	// busiest, with three WQEs per instance.
	o.w2 = o.ring(2*3+4, -1)
	o.w3 = o.ring(8, -1)
	return o
}

// Arm reserves the staging extent of one set instance, the target of the
// client's value WRITE; cookie tags it in the arena (the service passes
// the key, which compaction surfaces to find the bucket). TriggerPayload,
// the first call that sees the claim, posts the instance. Re-arming
// models the client rewriting the registered code region over RDMA
// (§3.5), so sets survive host failures that leave the NIC alive.
func (o *SetOffload) Arm(cookie uint64) (staging uint64) {
	if o.Arena != nil {
		staging = o.Arena.Alloc(o.MaxVal, cookie)
	} else {
		staging = o.B.Dev.Mem().Alloc(o.MaxVal, 8)
	}
	o.staging = staging
	return staging
}

// post posts and fires the armed instance, with the publish CAS iff
// fresh. Its args buffer holds the 24 bytes valWr copies over the
// bucket's [valAddr, valLen, version]: the staging address plus the
// value length and the write's version, both scattered in by the
// trigger. Landing the version in the same WRITE as the repoint keeps
// [pointer, length, version] a single atomic publication — a probe
// chain can never observe the new version with the old extent.
func (o *SetOffload) post(fresh bool) {
	b := o.B
	in := instance{args: o.argsBuf(&o.args, 24)}
	b.Dev.Mem().PutU64(in.args, o.staging)
	in.steps[stValWr] = b.Post(o.w3, wqe.WQE{Op: wqe.OpNoop, Src: in.args, Len: 24, Flags: wqe.FlagSignaled})
	o.claim(&in, o.w2, stValWr, stAck)
	if fresh {
		in.steps[stPub] = b.cond(o.w2, 0, 0, 0, 0)
	}
	o.fire(setLayout, &in, in.steps[:stAck+1])
}

// ReleaseStaging retires the most recently armed instance's staging
// extent back to the arena — the client calls it when the chain's ack
// reports a refused claim (the bucket was taken), at which point the
// staged bytes can never become the bucket's value. Slots
// that time out WITHOUT executing keep their extent: a straggling
// chain could still repoint the bucket at it, so reclaiming would risk
// handing live bytes to the next set (those rare extents leak instead,
// bounded by wedge events).
func (o *SetOffload) ReleaseStaging() {
	if o.Arena != nil && o.staging != 0 {
		o.Arena.Free(o.staging)
	}
	o.staging = 0
}

// TriggerPayload posts and fires the instance Arm reserved — a set of key
// under claim, landing valLen staged bytes and version ver in one WRITE
// and acking the verdict into the client-side ackAddr — and returns the
// SEND payload that drives it. A claim that installs NOOP|key (a
// resident overwrite) runs without the publish CAS; a fresh one's swaps
// claim.New for NOOP|key. The result is the context's own buffer,
// overwritten by the next call.
func (o *SetOffload) TriggerPayload(key uint64, claim SetClaim, valLen, ver, ackAddr uint64) []byte {
	o.post(claim.New != ClaimCtrl(key))
	return o.payload(setLayout, key, operands{opExpect: claim.Expect, opNew: claim.New, opBucket: claim.BucketAddr,
		opValAddr: claim.BucketAddr + hopscotch.OffValAddr, opLen: valLen, opVer: ver, opResp: ackAddr})
}
