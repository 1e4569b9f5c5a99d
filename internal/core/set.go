package core

import (
	"repro/internal/extent"
	"repro/internal/hopscotch"
	"repro/internal/rnic"
	"repro/internal/telemetry"
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
// of a client connection's set path.
type SetOffload struct {
	B *Builder
	// Trig is the server side of the connection's set-trigger QP; its
	// RQ receives set SENDs, shared by every slot of the pool.
	Trig *rnic.QP
	// Resp is the slot's dedicated managed QP back to the client; the
	// ack WRITE lives on its ring (per-slot, because an ENABLE grants
	// every earlier WQE on a ring).
	Resp *rnic.QP
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

	armed   uint64
	trig    triggerBuf
	staging uint64 // staging extent of the most recently armed instance
}

// SetTraceOp tags this context's private rings (control, chain,
// pointer-write, response) so the next armed instance's WRs attribute
// to op in traces; the shared trigger QP stays untagged.
func (o *SetOffload) SetTraceOp(op uint64) {
	o.B.Ctrl.SetTraceOp(op)
	o.w2.SetTraceOp(op)
	o.w3.SetTraceOp(op)
	o.Resp.SetTraceOp(op)
}

// SetProfClass tags every QP this context executes WRs through
// (including the shared trigger QP — it serves only this op class)
// for profiler attribution. Static; call once at wiring.
func (o *SetOffload) SetProfClass(class string) {
	o.B.Ctrl.SetProfClass(class)
	o.w2.SetProfClass(class)
	o.w3.SetProfClass(class)
	o.Resp.SetProfClass(class)
	if o.Trig != nil {
		o.Trig.SetProfClass(class)
	}
}

// SetReceipt rides a latency receipt on this context's private rings
// (the same set SetTraceOp tags). nil clears.
func (o *SetOffload) SetReceipt(r *telemetry.Receipt) {
	o.B.Ctrl.SetReceipt(r)
	o.w2.SetReceipt(r)
	o.w3.SetReceipt(r)
	o.Resp.SetReceipt(r)
}

// argsRing is the depth of the per-context args-buffer rotation: one
// instance is in flight per context, so anything past a couple covers
// stragglers from timed-out instances.
const argsRing = 8

// NewSetOffload builds one set context. trig is the server-side QP of
// the client's set connection (managed RQ); resp a server-side managed
// QP connected back to the client for the ack. arena supplies staging
// extents (nil: bump allocation).
func NewSetOffload(b *Builder, trig, resp *rnic.QP, maxVal uint64, arena *extent.Arena) *SetOffload {
	// Per-slot rings hold one in-flight instance (ring wrap needs 2x).
	o := &SetOffload{B: b, Trig: trig, Resp: resp, MaxVal: maxVal, Arena: arena,
		w2: b.NewManagedQPOnPU(2*setChainWQEs+4, -1),
		w3: b.NewManagedQPOnPU(8, -1)}
	// Chain verbs are posted signaled to gate the WAITs; nothing polls
	// their CQs, so drain at delivery.
	o.w2.SendCQ().SetAutoDrain(true)
	o.w3.SendCQ().SetAutoDrain(true)
	return o
}

// setChainWQEs is the busiest-ring WQE budget of one instance (w2):
// claim, conditional flip, publish.
const setChainWQEs = 3

// Arm posts one set instance and returns the staging extent the
// client's value WRITE must target. cookie tags the extent in the
// arena (the service passes the key, which compaction later surfaces
// to find the owning bucket). Each instance serves exactly one set;
// re-arming models the client rewriting the registered code region
// over RDMA (§3.5), so the set path — like pre-armed lookups —
// survives host failures that leave the NIC alive.
func (o *SetOffload) Arm(cookie uint64) (staging uint64) {
	b := o.B
	o.armed++
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
	slot := (o.armed - 1) % argsRing
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

	recvTarget := b.ExpectRecv(o.Trig, o.armed, []wqe.ScatterEntry{
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
	})
	b.WaitRecv(o.Trig, recvTarget)
	for _, step := range []StepRef{claim, condCAS, valWr, pubCAS} {
		b.Enable(step)
		b.WaitStep(step)
	}
	b.Enable(ack)
	b.Ctrl.RingSQ()
	return staging
}

// Armed returns the number of set instances armed so far.
func (o *SetOffload) Armed() uint64 { return o.armed }

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

// SetWRsPerOp reports the work requests one armed set posts — the
// write path's Table 2-style budget: RECV + 5 data verbs (claim, flip,
// repoint, publish, ack), and the WAIT and ENABLE verbs sequencing them.
func SetWRsPerOp() (data, sync int) { return 6, 10 }

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

// SetPool is a pool of K independent set contexts sharing one client
// connection's trigger RQ — the server-side substrate of the pipelined
// write path, mirroring LookupPool: per-slot private control queues
// and chain rings spread over the port's PUs, WAITs targeting absolute
// arrival counts of the shared trigger CQ so the j-th armed chain
// fires on the j-th set SEND regardless of which slot owns it.
type SetPool struct {
	Trig *rnic.QP
	Ctxs []*SetOffload
}

// NewSetPool builds K = len(resp) set contexts over the trig
// connection. resp are server-side managed QPs connected back to the
// client, one per context, carrying the acks. arena
// supplies staging extents for every context (nil: bump allocation).
func NewSetPool(b *Builder, trig *rnic.QP, resp []*rnic.QP, maxVal uint64, arena *extent.Arena) *SetPool {
	if len(resp) == 0 {
		panic("core: SetPool needs at least one response QP")
	}
	p := &SetPool{Trig: trig}
	const ctrlDepth = 64
	for i := range resp {
		cb := b.SubBuilder(ctrlDepth, -1)
		p.Ctxs = append(p.Ctxs, NewSetOffload(cb, trig, resp[i], maxVal, arena))
	}
	return p
}

// Depth returns the number of contexts (max overlapping sets).
func (p *SetPool) Depth() int { return len(p.Ctxs) }

// Arm arms one instance on context i and returns its staging extent.
// As with LookupPool, the caller must send triggers in global arm
// order — arrival order sequences the shared trigger CQ.
func (p *SetPool) Arm(i int, cookie uint64) (staging uint64) { return p.Ctxs[i].Arm(cookie) }
