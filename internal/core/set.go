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
// payload is scattered into a pre-armed chain. The chain claims the
// key's bucket with a CAS against the bucket's key/control word — the
// hopscotch table's bucket layout *is* a WQE control word, so one 64-bit
// CAS simultaneously checks the expected occupant and installs the new
// key — and only on a successful claim does it repoint the bucket at
// the staged value. The host CPU never runs, and the chain always
// answers: a refused claim costs the client a round trip, not a timeout.
//
// Chain shape, per armed instance (managed rings, ctrl-sequenced):
//
//	RECV      scatter claim/cond operands + bucket addrs + value len
//	claimCAS  bucket.keyCtrl: Expect -> New      (the bucket claim)
//	          old bucket word -> valWr.ctrl      (the CAS's own result)
//	condCAS   valWr.ctrl: Expect -> WRITE|key    (flip iff claimed)
//	valWr     WRITE [stagingAddr, valLen, version]
//	          -> bucket.[valAddr, valLen, version]
//	pubCAS    bucket.keyCtrl: New -> NOOP|key    (publish, fresh claims)
//	ack       WRITE valWr.ctrl -> client ack buffer (the verdict)
//
// An RDMA CAS returns the word it found, and the chain asks for nothing
// more: the claim's result buffer is valWr's control word, so the claim
// succeeded exactly when that word is now claim.Expect, and condCAS
// compares against Expect to flip valWr into a WRITE. (Stricter than
// checking that the bucket holds New afterwards: a fresh claim that
// lost to a straggler's leftover PENDING|key finds New there and did
// not install it.) A refused claim leaves the bucket's old word as
// valWr's control word, safe only because every word a bucket can hold
// — zero, tombstone, pending, resident NOOP|key — has the NOOP opcode
// (hopscotch's "inert under injection" rule): valWr runs as a NOOP. The
// ack is an unconditional WRITE (its control word, WRITE|key, comes with
// the trigger) of valWr's control word as it stands after pubCAS:
// WRITE|key for an applied set, else the word that refused the claim.
//
// The claim word New depends on the claim kind. An overwrite of a
// resident key claims NOOP|key -> NOOP|key: the bucket stays readable
// throughout, and a concurrent lookup that lands mid-chain serves the
// old value (it linearizes before the overwrite). A FRESH claim — an
// empty or tombstoned bucket — must not do that: the bucket's
// [valAddr, valLen] words still carry whatever extent the previous
// occupant (or its delete) left behind, so making the bucket readable
// before the repoint would let a concurrent lookup serve resurrected
// bytes through the stale pointer. Fresh claims therefore install the
// PENDING word (hopscotch.PendingCtrl: a NOOP with a reserved id bit —
// inert if a lookup's probe READ injects it, matched by no lookup's
// conditional) and the pubCAS verb publishes NOOP|key only after valWr
// has landed the new pointer. For overwrites pubCAS degenerates to
// NOOP|key -> NOOP|key, a harmless self-swap, so one chain shape
// serves both.
//
// Values live in per-instance staging extents carved from the server's
// extent arena (log-structured writes: an overwrite installs a fresh
// extent and the coordinator retires the old one through the arena;
// compaction evacuates sparse segments — see internal/extent and the
// delete chain in delete.go). Without an arena the offload falls back
// to the raw bump allocator, which leaks every overwrite — the
// pre-lifecycle behavior, kept for standalone core tests.

// SetClaim names the bucket a set claims and the CAS operands that
// claim it: Expect is the bucket's current key/control word (0 for an
// empty bucket, the tombstone for a reclaimed one, NOOP|key for an
// overwrite) and New the word installed on success — NOOP|key for
// overwrites, the NOOP-opcode pending word (ClaimPendingCtrl) for fresh
// claims, published to NOOP|key by the chain's pubCAS only after the
// value pointer is in place. The caller computes it from its view of
// the table — a stale view fails the CAS harmlessly and the ack says
// so.
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

	// args is a small rotating ring of scatter-target buffers (one per
	// in-flight-or-straggling instance) so arming does not grow server
	// memory per set.
	args [argsRing]uint64

	staging uint64 // staging extent of the most recently armed instance
}

// argsRing is the depth of the per-context args-buffer rotation: one
// instance is in flight per context, so anything past a couple covers
// stragglers from timed-out instances.
const argsRing = 8

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

// Arm posts one set instance and returns the staging extent the
// client's value WRITE must target. cookie tags the extent in the
// arena (the service passes the key, which compaction later surfaces
// to find the owning bucket). Each instance serves exactly one set;
// re-arming models the client rewriting the registered code region
// over RDMA (§3.5), so the set path — like pre-armed lookups —
// survives host failures that leave the NIC alive.
func (o *SetOffload) Arm(cookie uint64) (staging uint64) {
	b := o.B
	m := b.Dev.Mem()
	if o.Arena != nil {
		staging = o.Arena.Alloc(o.MaxVal, cookie)
	} else {
		staging = m.Alloc(o.MaxVal, 8)
	}
	o.staging = staging
	// args holds the 24 bytes valWr copies over the bucket's
	// [valAddr, valLen, version]: the staging address (known now) plus
	// the value length and the write's version, both scattered in by the
	// trigger. Landing the version in the same WRITE as the repoint
	// keeps [pointer, length, version] a single atomic publication — a
	// probe chain can never observe the new version with the old extent.
	// Buffers rotate through a fixed ring — one live instance per
	// context — instead of growing server memory per set.
	slot := o.armed % argsRing
	if o.args[slot] == 0 {
		o.args[slot] = m.Alloc(24, 8)
	}
	args := o.args[slot]
	m.PutU64(args, staging)

	valWr := b.Post(o.w3, wqe.WQE{Op: wqe.OpNoop, Src: args, Len: 24, Flags: wqe.FlagSignaled})
	// valWr's control word is the claim's result buffer (the bucket's old
	// word, a NOOP whatever it held) and then the ack's payload.
	verdict := valWr.FieldAddr(wqe.OffCtrl)
	ack := b.Post(o.Resp, wqe.WQE{Op: wqe.OpNoop, Src: verdict, Flags: wqe.FlagSignaled})
	claim := b.Post(o.w2, wqe.WQE{Op: wqe.OpCAS, Src: verdict, Flags: wqe.FlagSignaled})
	condCAS := b.Post(o.w2, wqe.WQE{Op: wqe.OpCAS, Dst: verdict, Flags: wqe.FlagSignaled})
	pubCAS := b.Post(o.w2, wqe.WQE{Op: wqe.OpCAS, Flags: wqe.FlagSignaled})

	o.fire([]wqe.ScatterEntry{
		{Addr: claim.FieldAddr(wqe.OffCmp), Len: 8},
		{Addr: claim.FieldAddr(wqe.OffSwap), Len: 8},
		{Addr: claim.FieldAddr(wqe.OffDst), Len: 8},
		{Addr: condCAS.FieldAddr(wqe.OffCmp), Len: 8},
		{Addr: condCAS.FieldAddr(wqe.OffSwap), Len: 8},
		{Addr: valWr.FieldAddr(wqe.OffDst), Len: 8},
		{Addr: args + 8, Len: 8},
		{Addr: args + 16, Len: 8},
		{Addr: pubCAS.FieldAddr(wqe.OffCmp), Len: 8},
		{Addr: pubCAS.FieldAddr(wqe.OffSwap), Len: 8},
		{Addr: pubCAS.FieldAddr(wqe.OffDst), Len: 8},
		{Addr: ack.FieldAddr(wqe.OffCtrl), Len: 8},
		{Addr: ack.FieldAddr(wqe.OffDst), Len: 8},
		{Addr: ack.FieldAddr(wqe.OffLen), Len: 8},
	}, []StepRef{claim, condCAS, valWr, pubCAS, ack})
	return staging
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

// TriggerPayload builds the client SEND payload for a set of key under
// claim, writing valLen staged bytes at version ver and acking the
// 8-byte verdict into the client-side ackAddr. Field order matches
// Arm's scatter list. The publish CAS's operands derive from the claim:
// it swaps claim.New for the published NOOP|key — a real transition for
// fresh claims, a harmless self-swap for overwrites. ver lands in the
// bucket's version word through the same WRITE as the repoint. The
// result is the context's own buffer, overwritten by the next call.
func (o *SetOffload) TriggerPayload(key uint64, claim SetClaim, valLen, ver, ackAddr uint64) []byte {
	xc := wqe.MakeCtrl(wqe.OpNoop, key&hopscotch.KeyMask)
	xw := wqe.MakeCtrl(wqe.OpWrite, key&hopscotch.KeyMask)
	return o.trig.fill(
		claim.Expect, claim.New, claim.BucketAddr, // claim CAS
		// The conditional flip compares against the word a successful
		// claim REPLACED (the CAS returned it onto valWr) and arms the WRITE.
		claim.Expect, xw,
		claim.BucketAddr+hopscotch.OffValAddr, valLen, ver, // bucket repoint + version
		claim.New, xc, claim.BucketAddr, // publish CAS
		xw, ackAddr, 8, // ack control word, destination and length
	)
}
