package core

import (
	"errors"

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
// value bytes in a server-side staging extent, headed by the value's
// [version, length] words (extent.HeadBytes), then a SEND that triggers
// the chain posted for it. A value is self-describing, so a
// set publishes it by swapping one 8-byte pointer word: the bucket's
// valAddr. The host CPU never runs, and the chain always answers: a
// refusal costs a round trip, not a timeout.
//
// Every CAS a set runs is final when posted — its operands are the
// claim's — so it runs from an unmanaged ring behind a WAIT on the
// trigger's arrival, with no managed fetch (WQ order, §3.1 and Fig 8).
// Only a WRITE whose control word a CAS rewrites is managed, fetched once
// the control lane has waited for that CAS. The RECV scatters only into
// the args buffer: the NIC snapshots an unmanaged WQE when it prefetches
// it, so a scatter into one would be lost.
//
// A claim that names the pointer the bucket should hold
// (SetClaim.Extent) runs one of two pointer-CAS shapes:
//
//	RECV      scatters nothing
//	WAIT      the trigger's arrival                 (on the CAS's queue)
//	ptrCAS    bucket.valAddr: Extent -> stagingAddr (unmanaged; a
//	          delete's: -> FreedPtr(key))
//	          old pointer -> args, or -> pubWr.ctrl (a fresh claim)
//	pubWr     WRITE NOOP|key -> bucket.keyCtrl      (a fresh claim only;
//	          managed, posted a NOOP, armed by the word ptrCAS found)
//	WAIT      the last step                         (on the ack's queue)
//	ack       WRITE the word ptrCAS found -> client ack buffer (the verdict)
//
// The hinted overwrite: the caller knows the extent the key's bucket
// names — the service, whose per-key write slot orders a key's writes
// on an owner — and the one CAS is the whole write: one managed fetch,
// the RECV's, and the ack carries the pointer the CAS found, the
// expected extent iff it applied. The compared word names one write,
// not just the key: a straggler armed before a newer write of the key
// finds the newer extent and is refused, changing nothing. Its extent
// cannot come back meanwhile (ABA) while the straggler is armed,
// because an armed hinted overwrite holds a mark of the server's retire
// queue, as a get does, until its chain has run.
//
// A delete is the same one CAS, swapping the extent for
// hopscotch.FreedPtr(key) and staging nothing. It names the write it
// deletes: a straggler delete armed before a newer write of the key is
// refused and changes no word. The bucket keeps its key word, and gets
// miss from then on. The caller captured the unlinked extent under the
// key's write slot and retires it on the applied ack. The deleted key's
// re-insert is that CAS again, expecting FreedPtr(key) beside the key
// word the delete kept: one managed fetch, with no publish.
//
// The fresh claim, of an empty bucket (key word 0), expects
// hopscotch.FreePtr. The pointer CAS is the claim: of the chains that
// expect a bucket free, one wins it, and no host write or other claim
// touches a bucket whose pointer is an address. Its result lands on
// pubWr's control word, posted a NOOP: the free pointer's opcode is a
// WRITE, so the winner's pubWr runs and publishes NOOP|key, after the
// pointer landed — the Fig 9 idiom, a CAS whose returned word decides
// what runs next. A loser's CAS returns an address, a NOOP, or another
// key's freed pointer, a MAX of zero: its pubWr changes no word. The
// ack carries that word: FreePtr iff the key was published. Two managed
// fetches, the RECV's and pubWr's.
//
// A zero Extent runs the key claim, which needs no pointer knowledge
// (bench's ladder and the standalone client's overwrites):
//
//	RECV      scatter the value length -> args
//	WAIT      the trigger's arrival              (on the CASes' queue)
//	claimCAS  bucket.keyCtrl: Expect -> New      (unmanaged; NOOP|key ->
//	                                              NOOP|key)
//	          old bucket word -> valWr.ctrl      (the CAS's own result)
//	WAIT      claimCAS
//	condCAS   valWr.ctrl: Expect -> WRITE|key    (unmanaged; flip iff claimed)
//	valWr     WRITE [stagingAddr, valLen] -> bucket.[valAddr, valLen]
//	          (managed)
//	WAIT      valWr                              (on the ack's queue)
//	ack       WRITE valWr.ctrl -> client ack buffer (the verdict)
//
// The claim's result buffer is valWr's control word, so the claim
// succeeded exactly when that word is now claim.Expect, and condCAS
// compares against Expect to flip valWr into a WRITE. A refused claim
// leaves the bucket's old word as valWr's control word, safe only
// because every key word a bucket can hold — zero or NOOP|key — has the
// NOOP opcode (hopscotch's "inert under injection" rule): valWr runs as
// a NOOP. The ack, posted whole behind its own WAIT, WRITEs valWr's
// control word as it stands last: WRITE|key for an applied set, else
// the word that refused the claim. The bucket stays readable throughout
// (a lookup landing mid-chain serves the old value, linearizing before
// the overwrite). Two managed fetches, the RECV's and valWr's.
//
// Values live in staging extents from the server's extent arena (see
// internal/extent); without one, the raw bump allocator leaks every
// overwrite — kept for standalone core tests.

// SetClaim names the bucket a set claims and the operands that claim
// it. A nonzero Extent is the pointer the bucket must hold: the key's
// current extent (a hinted overwrite or a delete), hopscotch.FreePtr (a
// fresh claim) or hopscotch.FreedPtr(key) (a re-insert). New
// hopscotch.FreedPtr(key) makes it a delete; any other New is unused. A
// zero Extent runs the key claim: Expect is the bucket's current key
// word and New the word installed on success, both NOOP|key. The caller
// computes it from its view of the table; a stale view fails the CAS
// and the ack says so.
type SetClaim struct {
	BucketAddr uint64
	Expect     uint64
	New        uint64
	Extent     uint64
}

// ClaimCtrl returns the key/control word a published bucket holds:
// exactly the word the lookup offload's conditional compares against.
func ClaimCtrl(key uint64) uint64 {
	return wqe.MakeCtrl(wqe.OpNoop, key&hopscotch.KeyMask)
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

	w2 *rnic.QP // unmanaged ring: every CAS, each behind its WAITs
	w3 *rnic.QP // managed ring: the WRITE a CAS arms (valWr, or a fresh claim's publish)

	args    uint64 // the instances' args buffers (chain.argsBuf), argsBytes each
	staging uint64 // staging extent of the most recently armed instance
	key     uint64 // that instance's key and claim
	claimed SetClaim
}

// A key claim's steps, in sequencing order.
const (
	kClaim = iota
	kCond
	kValWr
	kAck
)

// setLayout is the key claim's trigger layout: the value length that
// follows the pointer valWr copies in args.
var setLayout = []slot{{argsWord, 8, opLen}}

// argsBytes is a set context's args buffer: the pointer words valWr
// copies, the NOOP|key a fresh claim publishes, or the pointer a hinted
// overwrite's CAS found.
const argsBytes = 16

// A pointer-CAS set's steps: the pointer CAS, a fresh claim's publish,
// then the ack. Its trigger fills nothing.
const (
	ptCAS = iota
	ptPub
	ptAck
)

// NewSetPool builds K = len(resp) set contexts over the trig
// connection; resp carry the acks. arena supplies staging extents for
// every context (nil: bump allocation).
func NewSetPool(b *Builder, trig *rnic.QP, resp []*rnic.QP, maxVal uint64, arena *extent.Arena) *Pool[*SetOffload] {
	return newPool(b, trig, resp, func(_ int, cb *Builder, r *rnic.QP) *SetOffload {
		o := &SetOffload{chain: newChain(cb, trig, r), MaxVal: maxVal, Arena: arena}
		o.args = o.newArgs(argsBytes)
		// Rings hold one in-flight instance (ring wrap needs 2x); w2 is
		// the busiest, with a key claim's four WQEs.
		o.w2 = o.ring(2*4+4, false, -1)
		o.w3 = o.ring(8, true, -1)
		return o
	})
}

// Arm reserves the staging extent of one set instance, the target of the
// client's value WRITE, and returns the address of its value bytes (the
// WRITE lands the [version, length] header before them). cookie is
// unused (bench's ladder passes one). TriggerPayload, the first call
// that sees the claim, posts the instance. Re-arming models the client
// rewriting the registered code region over RDMA (§3.5), so sets
// survive host failures that leave the NIC alive.
func (o *SetOffload) Arm(cookie uint64) (staging uint64) {
	if o.Arena != nil {
		staging = o.Arena.Alloc(o.MaxVal, cookie)
	} else {
		staging = o.B.Dev.Mem().Alloc(extent.HeadBytes+o.MaxVal, 8) + extent.HeadBytes
	}
	o.staging = staging
	return staging
}

// post posts and fires the armed instance as a key claim, acking into
// ackAddr. Its args buffer holds the 16 bytes valWr copies over the
// bucket's [valAddr, valLen]: the staging address and the value length
// the trigger scatters in.
func (o *SetOffload) post(ackAddr uint64) {
	b, c := o.B, o.claimed
	in := instance{args: o.argsBuf(o.args, argsBytes)}
	b.Dev.Mem().PutU64(in.args, o.staging)
	in.steps[kValWr] = b.Post(o.w3, wqe.WQE{Op: wqe.OpNoop, Src: in.args, Dst: c.BucketAddr + hopscotch.OffValAddr,
		Len: 16, Flags: wqe.FlagSignaled})
	verdict := in.steps[kValWr].FieldAddr(wqe.OffCtrl)
	o.waitArrival(o.w2)
	in.steps[kClaim] = b.cond(o.w2, c.BucketAddr, c.Expect, c.New, verdict)
	in.steps[kCond] = b.after(in.steps[kClaim], o.w2, wqe.WQE{Op: wqe.OpCAS, Dst: verdict, Cmp: c.Expect,
		Swap: wqe.MakeCtrl(wqe.OpWrite, o.key&hopscotch.KeyMask), Flags: wqe.FlagSignaled})
	o.ack(&in, kAck, o.key, verdict, ackAddr)
	o.fire(setLayout, &in, in.steps[:kAck+1])
}

// postPtr posts and fires the armed instance as a pointer CAS installing
// swap, with the publish iff fresh, acking into ackAddr the word the CAS
// found: in the args buffer, or on the publish's control word, whose
// NOOP|key source the args buffer holds.
func (o *SetOffload) postPtr(fresh bool, swap, ackAddr uint64) {
	b, c := o.B, o.claimed
	in := instance{args: o.argsBuf(o.args, argsBytes)}
	found := in.args
	if fresh {
		b.Dev.Mem().PutU64(in.args, ClaimCtrl(o.key))
		in.steps[ptPub] = b.Post(o.w3, wqe.WQE{Op: wqe.OpNoop, Src: in.args, Dst: c.BucketAddr, Len: 8, Flags: wqe.FlagSignaled})
		found = in.steps[ptPub].FieldAddr(wqe.OffCtrl)
	}
	o.waitArrival(o.w2)
	in.steps[ptCAS] = b.cond(o.w2, c.BucketAddr+hopscotch.OffValAddr, c.Extent, swap, found)
	o.ack(&in, ptAck, o.key, found, ackAddr)
	o.fire(nil, &in, in.steps[:ptAck+1])
}

// ReleaseStaging retires the most recently armed instance's staging
// extent back to the arena once the staged bytes can no longer become
// the bucket's value: the chain's ack reported a refused claim (the
// bucket was taken), or the connection was reset (Pool.Reset) before the
// chain ran. A chain a reset cut short after its pointer landed has
// already made the extent the bucket's value, so an extent the claimed
// bucket names under the key's word stays; if it was a hinted
// overwrite, the extent it replaced is returned, for the caller to
// retire (0 otherwise: a fresh claim or a re-insert replaced a free
// pointer). A fresh claim cut short before its publish gives the bucket
// its free pointer back. Slots that merely time out WITHOUT executing
// keep their extent: a straggling chain could still repoint the bucket
// at it.
func (o *SetOffload) ReleaseStaging() (replaced uint64) {
	m, b, e := o.B.Dev.Mem(), o.claimed.BucketAddr, o.claimed.Extent
	ctrl, _ := m.U64(b + hopscotch.OffKeyCtrl)
	va, _ := m.U64(b + hopscotch.OffValAddr)
	switch {
	case o.staging == 0:
	case va == o.staging && ctrl == ClaimCtrl(o.key):
		if e != hopscotch.FreePtr && e != hopscotch.FreedPtr(o.key) {
			replaced = e
		}
	default:
		if va == o.staging {
			// A fresh claim cut short between its pointer and its
			// publish: the bucket is free again.
			m.PutU64(b+hopscotch.OffValAddr, hopscotch.FreePtr)
		}
		if o.Arena != nil {
			if err := o.Arena.Free(o.staging); errors.Is(err, extent.ErrDoubleFree) {
				panic(err)
			}
		}
	}
	o.staging = 0
	return replaced
}

// TriggerPayload posts and fires the instance Arm reserved — a set of key
// under claim, acking the verdict into the client-side ackAddr — and
// returns the SEND payload that drives it. A claim naming an Extent runs
// a pointer CAS (the hinted overwrite, a delete, the re-insert at the
// key's freed bucket, or the fresh claim of a bucket naming
// hopscotch.FreePtr), whose trigger is empty, and valLen travels in the
// staged header; a key claim lands it in the bucket with the pointer,
// in one WRITE. ver is unused: the staged header carries the write's
// version. The result is the context's own buffer, overwritten by the
// next call.
//
// A delete stages nothing, so it drops the staging extent a set armed
// on this context before: that set's verdict already decided the
// extent, and ReleaseStaging after a delete must free nothing.
func (o *SetOffload) TriggerPayload(key uint64, claim SetClaim, valLen, ver, ackAddr uint64) []byte {
	o.key, o.claimed = key, claim
	if claim.Extent == 0 {
		o.post(ackAddr)
		return o.payload(setLayout, key, operands{opLen: valLen})
	}
	swap := o.staging
	if claim.New == hopscotch.FreedPtr(key) {
		o.staging, swap = 0, claim.New
	}
	o.postPtr(claim.Extent == hopscotch.FreePtr, swap, ackAddr)
	return o.payload(nil, key, operands{})
}

// Unstage drops the staging extent a set armed on this context before,
// as a delete does, for a request of its slot that runs no chain here
// (a version probe, two client READs): ReleaseStaging then frees nothing.
func (o *SetOffload) Unstage() { o.staging = 0 }
