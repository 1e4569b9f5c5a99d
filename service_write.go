package redn

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/hopscotch"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The fabric write path.
//
// A Service write is one mutation — a key, its per-key quorum sequence,
// and either the value a set stores or the tombstone a delete leaves —
// fanned out to the key's LookupN replica owners. Sets and deletes are
// the same state machine; "value or tombstone" only picks the chain an
// owner runs. For a value the coordinator computes a bucket claim from
// its view of that owner's table — overwrite in place when the key
// already sits at a candidate bucket, claim the first empty candidate
// otherwise — and issues it through the owner's Client.SetAsync
// pipeline, where the NIC's CAS-claim chain (core.SetOffload) installs
// the key and repoints the bucket at the staged value. For a tombstone
// it claims the key's resident bucket with the NIC delete chain
// (core.DeleteOffload — CAS tombstone, conditional unlink of the value
// extent onto the owner's to-free ring, ack). Keys that need cuckoo-kick
// relocation (both candidates taken) or that live in spilled
// neighborhood slots fall back to the host CPU at a modeled two-sided
// RPC cost; a claim refused by the CAS (a racing writer won the bucket)
// says so in its ack and rolls forward on the host the same way.
//
// The write acknowledges to the caller once W = WriteQuorum owners
// have applied it. Owners that fail — frozen NIC, host down, suspected
// dead — receive a handoff hint instead: the newest mutation that owner
// is missing. Hints drain when the owner proves reachable again (crash
// recovery's OnUp, or a successful get through it) and are applied
// exactly once; a newer write to the same key supersedes a pending
// hint, so a drain can never resurrect a stale value — and because a
// tombstone hint lives in the same per-key slot and sequence order as
// value hints, a recovering owner can never resurrect a key deleted
// while it was down. Quorum failures (more than N-W owners down)
// surface as *QuorumError, with the owners that did apply left in
// place and the missing ones rolled forward via hints — never rolled
// back.
//
// Same-key writes are serialized per owner (inflightSet): the
// coordinator is the single write path, so per-key order is issue
// order everywhere, which is what the sequence numbers certify.

// hostSetLat models the cost of a write that must involve the owner's
// CPU: a two-sided RPC (SEND + handler + response) plus the insert
// itself — the §5.4 "writes stay on the CPU path" cost the fabric
// claim chain avoids.
const hostSetLat = 2500 * sim.Nanosecond

// hostDeleteLat models a delete that must involve the owner's CPU: a
// two-sided RPC plus the neighborhood scan and tombstone — the same
// cost shape as hostSetLat.
const hostDeleteLat = hostSetLat

// ErrReservedKey reports a write or delete of a key in the reserved
// pending/tombstone id space (hopscotch.PendingBit set): the fabric
// claim machinery depends on those words never being resident keys, so
// the async paths reject them exactly as the tables' host-side inserts
// do.
var ErrReservedKey = errors.New("redn: key uses the reserved pending/tombstone id space")

// ErrValueTooLarge reports a set whose value exceeds the service's
// MaxValLen: the per-slot staging buffers every owner connection stages
// values through are sized for it, so the write is refused at admission,
// before any owner — or any coordinator state — sees it.
var ErrValueTooLarge = errors.New("redn: value exceeds the service's MaxValLen")

// QuorumError reports a write that could not reach its W-of-N quorum.
// Replicas that did apply are rolled forward via hinted handoff; the
// write may still complete after the down owners recover.
type QuorumError struct {
	Key    uint64
	Acks   int // owners that applied before the quorum was declared dead
	Need   int // W, the configured write quorum
	Owners int
}

func (e *QuorumError) Error() string {
	return fmt.Sprintf("redn: write quorum failed for key %#x: %d/%d acks (W=%d)",
		e.Key, e.Acks, e.Owners, e.Need)
}

// ErrOverload reports a write or delete shed by admission control:
// too few replica owners' NICs had queue headroom to admit it while
// still reaching the W-of-N quorum. Nothing was applied anywhere — no
// sequence number was issued and no owner saw the op — so the caller
// can safely back off and retry the identical request.
type ErrOverload struct {
	Key   uint64
	Admit int // owners that could have admitted the op
	Need  int // W, the configured write quorum
}

func (e *ErrOverload) Error() string {
	return fmt.Sprintf("redn: overload: key %#x shed, %d of %d required owners can admit",
		e.Key, e.Admit, e.Need)
}

// admitWrite counts owners with admission headroom and sheds the op
// when a quorum cannot be formed from them. Returns true when the
// write may proceed; on false the typed *ErrOverload has already been
// scheduled onto cb and no coordinator state was touched.
func (s *Service) admitWrite(key uint64, cb func(lat Duration, err error)) bool {
	if !s.cfg.Admission {
		return true
	}
	admit := 0
	for _, id := range s.owners(key) {
		if !s.overloaded(s.shards[id]) {
			admit++
		}
	}
	if admit >= s.cfg.WriteQuorum {
		return true
	}
	s.shedWrites++
	s.rejectWrite(cb, &ErrOverload{Key: key, Admit: admit, Need: s.cfg.WriteQuorum})
	return false
}

// rejectWrite schedules a refused write's typed error onto cb — from
// the simulation, never synchronously, like every other completion.
func (s *Service) rejectWrite(cb func(lat Duration, err error), err error) {
	s.tb.clu.Eng.After(0, func() {
		if cb != nil {
			cb(0, err)
		}
	})
}

// mutation is one write as every owner applies it: key at quorum
// sequence seq becomes val — or, when del, a tombstone. It is what the
// fan-out hands each owner leg, what a hint parks for a down owner, and
// what repair and migration re-derive from the winning replica;
// allocated once per write and shared by pointer, never copied per leg.
type mutation struct {
	key, seq uint64
	val      []byte
	del      bool
}

// hint is one queued handoff write: the newest mutation an unreachable
// owner is missing. Tombstones and values share the per-key slot and
// its sequence order, so a delete hint supersedes any older value hint
// and a drain replays it as a delete. queued: the key waits in the
// shard's drain queue or a drain lane holds it; draining: a lane is
// replaying this hint.
type hint struct {
	*mutation
	op       *setOp
	queued   bool
	draining bool
	settled  bool
}

// setOp tracks one client-visible write — its mutation and the quorum
// accounting across its owner fan-out. It is a pooled record: writeAsync
// takes one (the value is copied into its reusable buffer) and it goes
// back when the last owner has settled — settleLeft reaches 0, which a
// hint can hold off across a whole outage — and nothing is still
// replaying its mutation (pins). Accounting on a released record
// panics.
type setOp struct {
	mutation
	live         bool
	need, owners int
	acks, fails  int
	start        sim.Time
	cb           func(lat Duration, err error)
	done         bool
	settleLeft   int
	traceOp      uint64

	// pins counts continuations that still read the record after its
	// last settle may have happened: a leg's own completion while it
	// runs (its hint can settle before its fail is counted), and a hint
	// drain in flight (DropHints or a redirect can retire the hint under
	// it, and the drain still applies, or falls back to the host with,
	// this mutation).
	pins int

	// Latency provenance (nil with it off): the op's phase ledger. At
	// the quorum-completing ack the critical leg's receipt is adopted
	// into it and the coordinator remainder (fan-out dispatch, per-key
	// write-slot queueing, quorum stitching) becomes the coord phase.
	// lastAckAt times the previous ack so the quorum ack can report
	// the straggler gap it spent waiting on its slowest counted leg.
	rcpt      *telemetry.Receipt
	lastAckAt sim.Time
}

// takeSet hands out a zeroed write record; its value buffer keeps its
// capacity.
func (s *Service) takeSet() *setOp {
	op, _ := s.sets.take()
	val := op.val[:0]
	*op = setOp{live: true}
	op.val = val
	return op
}

// mustBeLive panics when quorum accounting reaches a released record:
// it would count toward whichever write holds the record now.
func (op *setOp) mustBeLive() {
	if !op.live {
		panic("redn: write record used after its release")
	}
}

// unpin drops one pin; the record goes back to the service once every
// owner has settled and nothing pins it.
func (op *setOp) unpin(s *Service) {
	op.pins--
	op.releaseIfDone(s)
}

func (op *setOp) releaseIfDone(s *Service) {
	if op.settleLeft != 0 || op.pins != 0 {
		return
	}
	op.live = false
	op.cb = nil
	s.sets.put(op)
}

// traceName is the op span name this write opened under: deletes and
// sets share setOp, so the quorum-settling OpEnd must pick the right
// pair.
func (op *setOp) traceName() string {
	if op.del {
		return "del"
	}
	return "set"
}

func (op *setOp) ack(s *Service) {
	op.mustBeLive()
	op.acks++
	now := s.tb.Now()
	if !op.done && op.acks >= op.need {
		op.done = true
		s.tr.OpEnd(op.traceOp, op.traceName())
		if op.rcpt != nil {
			// This ack completed the quorum, so the leg whose callback
			// is running is the critical leg: adopt its phase ledger
			// and charge everything it doesn't cover — fan-out
			// dispatch, per-key write-slot queueing, quorum stitching
			// — to the coord phase, keeping the partition exact.
			r := op.rcpt
			if s.legValid {
				r.AdoptLeg(&s.legRcpt)
			}
			if coord := (now - op.start) - r.PhaseSum(); coord > 0 {
				r.AddPhase(telemetry.PhaseCoord, coord)
			}
			if op.lastAckAt != 0 {
				r.Straggler = now - op.lastAckAt
			}
			r.Total = r.PhaseSum()
			s.prov.Record(r)
		}
		if op.cb != nil {
			op.cb(now-op.start, nil)
		}
	}
	op.lastAckAt = now
}

func (op *setOp) fail(s *Service) {
	op.mustBeLive()
	op.fails++
	if !op.done && op.fails > op.owners-op.need {
		op.done = true
		s.tr.OpEnd(op.traceOp, op.traceName())
		s.quorumFails++
		now := s.tb.Now()
		if op.rcpt != nil {
			// Quorum dead: no critical leg to adopt — the whole span
			// was coordinator-side waiting on owners that never came.
			r := op.rcpt
			r.Censored = true
			if coord := (now - op.start) - r.PhaseSum(); coord > 0 {
				r.AddPhase(telemetry.PhaseCoord, coord)
			}
			r.Total = r.PhaseSum()
			s.prov.Record(r)
		}
		if op.cb != nil {
			op.cb(now-op.start, &QuorumError{
				Key: op.key, Acks: op.acks, Need: op.need, Owners: op.owners})
		}
	}
}

// noteLegReceipt stages one owner leg's client receipt for the quorum
// accounting that may consume it synchronously (setOp.ack). nil (dead
// connection, no slot reached) clears the stage.
func (s *Service) noteLegReceipt(r *telemetry.Receipt) {
	if s.prov == nil {
		return
	}
	if r == nil {
		s.legValid = false
		return
	}
	s.legRcpt = *r
	s.legValid = true
}

// noteHostLeg stages a synthesized ledger for an owner leg that ran on
// the host CPU path: the whole leg is one host phase of the modeled
// RPC latency.
func (s *Service) noteHostLeg(lat Duration) {
	if s.prov == nil {
		return
	}
	now := s.tb.Now()
	s.legRcpt.Reset(0, telemetry.ClassSet, now-lat)
	s.legRcpt.AddPhase(telemetry.PhaseHost, lat)
	s.legRcpt.Total = lat
	s.legValid = true
}

// clearLegReceipt invalidates the staged leg ledger; apply paths with
// no measurable leg (a trivially-absent delete) call it so the quorum
// ack cannot adopt an earlier leg's stale note.
func (s *Service) clearLegReceipt() { s.legValid = false }

// settleOne records that one more owner has resolved this write
// (applied, drained, or superseded); when the last one does, the
// write's value can no longer appear anywhere it has not already, and
// the key becomes cache-admissible again.
func (op *setOp) settleOne(s *Service) {
	op.mustBeLive()
	op.settleLeft--
	if op.settleLeft != 0 {
		return
	}
	if s.unsettled[op.key]--; s.unsettled[op.key] <= 0 {
		delete(s.unsettled, op.key)
	}
	if s.settleHook != nil {
		s.settleHook(op.key, op.seq)
	}
	op.releaseIfDone(s)
}

// SetAsync stores key -> value on its replica owners through the
// fabric and returns immediately; cb runs when the W-of-N quorum has
// acknowledged (err == nil) or can no longer be reached (err is a
// *QuorumError). Sets have real modeled latency — a NIC CAS-claim
// chain per owner — and pipeline like gets; call Flush after posting a
// batch. The write-through cache and the key's write epoch update at
// issue time, so a reader of this coordinator observes its own writes
// immediately and a racing get can never install a stale cache entry.
func (s *Service) SetAsync(key uint64, value []byte, cb func(lat Duration, err error)) {
	s.writeAsync(key, value, false, cb)
}

// DeleteAsync removes key from its replica owners through the fabric
// and returns immediately; cb runs when the W-of-N quorum has
// tombstoned it (err == nil) or can no longer be reached (err is a
// *QuorumError). Deletes have real modeled latency — a NIC tombstone
// chain per owner — and pipeline like sets; call Flush after posting a
// batch. The client-side hot-value cache entry is invalidated and the
// key's write epoch bumped at issue time, so no reader of this
// coordinator can see the deleted value from the cache afterward, and
// no in-flight get can re-admit it.
func (s *Service) DeleteAsync(key uint64, cb func(lat Duration, err error)) {
	s.writeAsync(key, nil, true, cb)
}

// writeAsync is the one W-of-N write state machine behind SetAsync and
// DeleteAsync: admit, issue the key's next sequence, update the cache,
// then fan the mutation out over the key's owners.
func (s *Service) writeAsync(key uint64, value []byte, del bool, cb func(lat Duration, err error)) {
	key &= hopscotch.KeyMask
	s.sentinelKick()
	// Admission: every refusal is scheduled onto cb before any
	// coordinator state is touched, so a refused write leaves no
	// sequence number, unsettled count or cache entry behind.
	if key&hopscotch.PendingBit != 0 || key == 0 {
		// The reserved id space (pending/tombstone words) would void the
		// claim chain's published/unpublished distinction, and key 0's
		// control word is the empty-bucket marker; reject both on the
		// fabric path exactly as the tables do on the host path.
		s.rejectWrite(cb, ErrReservedKey)
		return
	}
	if uint64(len(value)) > s.cfg.MaxValLen {
		s.rejectWrite(cb, ErrValueTooLarge)
		return
	}
	if !s.admitWrite(key, cb) {
		return
	}
	ops, class := &s.setOps, uint8(telemetry.ClassSet)
	if del {
		ops, class = &s.delOps, telemetry.ClassDel
	}
	*ops++
	s.nextSeq[key]++
	s.unsettled[key]++
	if s.cache != nil {
		s.setEpoch[key]++
		if del {
			delete(s.cache, key)
		} else if _, ok := s.cache[key]; ok {
			s.cache[key] = append([]byte(nil), value...)
		}
	}
	op := s.takeSet()
	op.key, op.seq, op.del = key, s.nextSeq[key], del
	op.val = append(op.val, value...)
	op.need, op.start, op.cb = s.cfg.WriteQuorum, s.tb.Now(), cb
	op.traceOp = s.tr.OpBegin(op.traceName(), key)
	// Dual-write extras (resharding handover) ride the same fan-out as
	// auxiliary legs: the quorum is counted over the post-change owners
	// exclusively — a departing owner's outcome only settles, so it can
	// neither ack a write the new owners lost nor fail one they hold. No
	// hint on failure either: the new owners are the write's future, and
	// the dual-read fallback such a leg serves reaches them first.
	owners := s.ownerNodes(key)
	extras := s.dualWriteExtras(owners, key)
	op.owners, op.settleLeft = len(owners), len(owners)+len(extras)
	if s.prov != nil {
		op.rcpt = &telemetry.Receipt{}
		op.rcpt.Reset(op.traceOp, class, op.start)
		op.rcpt.Legs = uint8(len(owners))
	}
	for idx, ni := range owners {
		s.startLeg(op, s.ringShards[ni], idx, true)
	}
	for i, sh := range extras {
		s.startLeg(op, sh, len(owners)+i, false)
	}
}

// startLeg starts one owner leg of op's fan-out: the apply queues for
// the (owner, key) write slot, so per-key order survives the pipelined
// fabric — a delete can never overtake, or be overtaken by, a write to
// the same key — and resolves into legDone.
func (s *Service) startLeg(op *setOp, sh *serviceShard, idx int, votes bool) {
	if s.tr.Enabled() {
		s.tr.AsyncBegin("leg", op.traceOp<<4|uint64(idx), sh.legTrack(votes), op.traceOp)
	}
	r := s.takeRun(sh, &op.mutation, op.traceOp)
	r.done = r.legFn
	r.op, r.idx, r.votes, r.slotted = op, idx, votes, true
	s.armAntiEntropy()
	r.next = runSlot
	s.withKeySlot(sh, op.key, r.slotFn)
}

// legTrack is the shard's trace track for a voting or auxiliary leg.
func (sh *serviceShard) legTrack(votes bool) string {
	if votes {
		return sh.trLeg
	}
	return sh.trAux
}

// legDone resolves one leg of a fan-out into the write's quorum
// accounting.
func (r *ownerRun) legDone(st ownerWriteStatus) {
	s, sh, op := r.s, r.sh, r.op
	// The leg's hint can settle the write before its failure is counted.
	op.pins++
	if s.tr.Enabled() {
		s.tr.AsyncEnd("leg", op.traceOp<<4|uint64(r.idx), sh.legTrack(r.votes), op.traceOp)
	}
	if st == ownerApplied {
		s.noteOwnerApplied(sh, &op.mutation)
	}
	switch {
	case !r.votes:
		op.settleOne(s)
	case st == ownerApplied:
		if op.rcpt != nil {
			op.rcpt.Leg = uint8(r.idx)
		}
		op.ack(s)
		op.settleOne(s)
	case st == ownerUnreachable:
		s.queueHint(sh, op)
		op.fail(s)
	default:
		// ownerRejected: a definitive refusal — but not a silent
		// divergence: the repair queue records the laggard so
		// read-repair or anti-entropy rolls it forward once
		// capacity frees. (Deletes have no capacity to run out of;
		// they never land here.)
		s.queueRepair(sh, op.key, op.seq)
		op.fail(s)
		op.settleOne(s)
	}
	op.unpin(s)
}

// noteOwnerApplied is the bookkeeping every successful owner apply —
// fan-out leg, drained hint, repair or migration copy — owes: the
// per-replica apply log (tests), the owner's tombstone version, and
// retiring any pending hint the apply made redundant.
func (s *Service) noteOwnerApplied(sh *serviceShard, m *mutation) {
	if s.applyHook != nil {
		s.applyHook(sh.id, m.key, m.seq)
	}
	if m.del {
		sh.noteDeleted(m.key, m.seq)
	} else {
		sh.noteApplied(m.key, m.seq)
	}
	s.dropHint(sh, m.key, m.seq)
}

// withKeySlot serializes same-key work on one owner: run executes
// immediately if the (owner, key) write slot is free, else it queues
// behind the in-flight write. Every run must end by calling setNext.
func (s *Service) withKeySlot(sh *serviceShard, key uint64, run func()) {
	if q, busy := sh.inflightSet[key]; busy {
		*q.Push() = run
		sh.inflightSet[key] = q
		return
	}
	sh.inflightSet[key] = ring.Queue[func()]{}
	run()
}

// setNext releases the per-(owner,key) write slot and issues the next
// queued same-key write, if any.
func (s *Service) setNext(sh *serviceShard, key uint64) {
	if q := sh.inflightSet[key]; q.Len() > 0 {
		next := q.Pop()
		sh.inflightSet[key] = q
		next()
		return
	}
	delete(sh.inflightSet, key)
}

// ownerWriteStatus classifies one owner write's outcome. The
// distinction matters for handoff: an unreachable owner gets a hint
// (the write applies at recovery), a definitive rejection — the table
// refused the insert — does not: deferring a capacity failure would
// resurrect a write its caller was told failed.
type ownerWriteStatus int

const (
	ownerApplied ownerWriteStatus = iota
	ownerUnreachable
	ownerRejected
)

// runStage names the one continuation an owner-apply record has
// outstanding.
type runStage uint8

const (
	runFree runStage = iota // on the service's free list
	runExec                 // taken; being dispatched synchronously
	runSlot                 // queued for the (owner, key) write slot
	runHop                  // a zero-cost hop delivers an outcome decided at dispatch
	runAck                  // the NIC chain is in flight
	runHost                 // the host RPC's modeled latency is elapsing
)

// ownerRun is one owner-level apply in flight — a fan-out leg, a hint
// drain or a converge: what ownerApplyNow's continuations would capture,
// in one pooled record. The continuations are method values bound once,
// when the record is made; next names the single one outstanding, so a
// continuation reaching a record that was released — or released and
// taken again — panics. The record goes back when done has run.
type ownerRun struct {
	s    *Service
	next runStage

	sh   *serviceShard
	m    *mutation
	top  uint64 // trace op id the apply's WRs attribute to
	done func(ownerWriteStatus)
	// slotted: the run holds the (owner, key) write slot and releases
	// it after done. (Drains and converges release it themselves.)
	slotted bool

	cli      *Client          // connection the NIC chain is on
	oldVa    uint64           // the key's extent before this apply
	resident bool             // oldVa is valid
	st       ownerWriteStatus // runHop: the outcome to deliver
	absent   bool             // runHop: a delete of a key this owner never had
	hostLat  Duration         // runHost: the RPC's modeled latency

	// A fan-out leg: the write it is a leg of, its position, whether it
	// votes in the quorum.
	op    *setOp
	idx   int
	votes bool

	slotFn, hopFn, hostFn func()
	ackFn                 func(lat Duration, ok bool)
	legFn                 func(ownerWriteStatus)
}

// takeRun hands out an owner-apply record in the dispatch stage.
func (s *Service) takeRun(sh *serviceShard, m *mutation, top uint64) *ownerRun {
	r, fresh := s.runs.take()
	if fresh {
		r.s = s
		r.slotFn, r.hopFn, r.hostFn, r.ackFn, r.legFn = r.granted, r.hopped, r.hosted, r.acked, r.legDone
	}
	r.next = runExec
	r.sh, r.m, r.top = sh, m, top
	r.slotted, r.absent = false, false
	return r
}

// enter asserts that stage is the continuation this record is waiting
// for, and puts it back in the dispatch stage.
func (r *ownerRun) enter(stage runStage) {
	if r.next != stage {
		panic(fmt.Sprintf("redn: owner-apply continuation %d ran on a record expecting %d", stage, r.next))
	}
	r.next = runExec
}

// finish reports the apply's outcome, returns the record and, for a run
// that holds the (owner, key) slot, passes the slot on.
func (r *ownerRun) finish(st ownerWriteStatus) {
	s, sh, key, slotted := r.s, r.sh, r.m.key, r.slotted
	r.done(st)
	r.next = runFree
	r.sh, r.m, r.done, r.cli, r.op = nil, nil, nil, nil, nil
	s.runs.put(r)
	if slotted {
		s.setNext(sh, key)
	}
}

// granted runs when the (owner, key) write slot is the run's.
func (r *ownerRun) granted() {
	r.enter(runSlot)
	r.apply()
}

// ownerApplyNow routes one owner apply, the caller holding the (owner,
// key) slot: the NIC chain when the fabric can carry it — the CAS-claim
// set chain at a claimable candidate bucket for a value, the tombstone
// chain at the key's resident bucket for a delete — the host CPU
// otherwise, a trivial ack for a delete the owner never had the key
// for, handoff failure when neither can run. m.seq is published into
// the bucket's version word by whichever path applies. done always runs
// asynchronously (from the simulation).
func (s *Service) ownerApplyNow(sh *serviceShard, m *mutation, top uint64, done func(st ownerWriteStatus)) {
	r := s.takeRun(sh, m, top)
	r.done = done
	r.apply()
}

func (r *ownerRun) apply() {
	s, sh, m := r.s, r.sh, r.m
	t := sh.table.table
	var (
		claim  core.SetClaim // a tombstone claims by BucketAddr alone
		fabric bool
	)
	if m.del {
		claim.BucketAddr, fabric = residentBucket(t, sh.mode, m.key)
	} else {
		claim, fabric = claimForTable(t, sh.mode, m.key)
	}
	// The key's current extent, captured under the per-key write slot.
	// An acked fabric set repoints the bucket at the chain's staging
	// extent and retires this one on the ack, to be freed once no get
	// can still read it; a delete that finds nothing resident has
	// nothing to do.
	r.oldVa, _, r.resident = t.Lookup(m.key)
	if m.del && !r.resident {
		// Nothing to retire here: the owner is already at the delete's
		// end state. Applied, at a zero-cost hop.
		r.absent = true
		r.hop(ownerApplied)
		return
	}
	if sh.down() {
		// Circuit breaker: don't burn a MissTimeout per write, or wedge
		// a set slot, on a shard already declared dead. The write hints;
		// a lapsed window sends the shard its probe instead.
		s.probeLapsed(sh, m.key)
		r.hop(ownerUnreachable)
		return
	}
	if !fabric {
		if sh.hostDown {
			r.hop(ownerUnreachable)
			return
		}
		r.host()
		return
	}
	r.cli = sh.setClient(m.key)
	r.next = runAck
	if m.del {
		sh.stats.FabricDeletes++
		r.cli.deleteAsyncClaim(m.key, claim.BucketAddr, m.seq, r.top, r.ackFn)
	} else {
		sh.stats.FabricSets++
		r.cli.setAsyncClaim(m.key, m.val, claim, m.seq, r.top, r.ackFn)
	}
	// Writes issued from completion callbacks run outside the caller's
	// batch; kick them directly, like get retries.
	r.cli.Flush()
}

// hop delivers an outcome decided at dispatch one zero-cost hop later,
// so done never runs synchronously.
func (r *ownerRun) hop(st ownerWriteStatus) {
	r.st = st
	r.next = runHop
	r.s.tb.clu.Eng.After(0, r.hopFn)
}

func (r *ownerRun) hopped() {
	r.enter(runHop)
	if r.absent {
		r.sh.stats.Deletes++
		r.s.clearLegReceipt() // no measurable leg to adopt
	}
	r.finish(r.st)
}

// acked is the NIC chain's completion: its ack, its refusal or its
// timeout.
func (r *ownerRun) acked(_ Duration, ok bool) {
	r.enter(runAck)
	s, sh, m, cli := r.s, r.sh, r.m, r.cli
	op, applied := pipeSet, &sh.stats.Sets
	if m.del {
		op, applied = pipeDelete, &sh.stats.Deletes
	}
	if ok {
		sh.markLive()
		*applied++
		if !m.del && r.resident {
			sh.srv.retire.push(r.oldVa)
		}
		s.noteLegReceipt(cli.lastReceipt(op))
		r.finish(ownerApplied)
		return
	}
	if !cli.lastExecuted(op) {
		// The chain never ran: dead NIC, count toward suspicion.
		s.noteOwnerMiss(sh)
	}
	// Claim refused (a racing writer or relocation took the bucket,
	// or the key is already gone) or the NIC is dead: roll forward
	// on the CPU if the host is up.
	if sh.hostDown {
		r.finish(ownerUnreachable)
		return
	}
	r.host()
}

// host applies the mutation on the owner's host CPU at the modeled
// two-sided RPC cost: the kick path and spilled residents, and the
// roll-forward path for refused claims. Deleting an absent key is still
// applied — the owner is at the end state either way.
func (r *ownerRun) host() {
	r.hostLat = hostSetLat
	if r.m.del {
		r.hostLat = hostDeleteLat
		r.sh.stats.HostDeletes++
	} else {
		r.sh.stats.HostSets++
	}
	r.next = runHost
	r.s.tb.clu.Eng.After(r.hostLat, r.hostFn)
}

func (r *ownerRun) hosted() {
	r.enter(runHost)
	sh, m := r.sh, r.m
	if sh.hostDown {
		// Crashed while the RPC was in flight.
		r.finish(ownerUnreachable)
		return
	}
	if m.del {
		sh.del(m.key, m.seq)
		sh.stats.Deletes++
	} else if err := sh.set(m.key, m.val, m.seq); err != nil {
		// The table itself refused (kick walk and neighborhoods
		// exhausted): a definitive rejection, not unavailability.
		r.finish(ownerRejected)
		return
	}
	r.s.noteHostLeg(r.hostLat)
	r.finish(ownerApplied)
}

// setClient picks the owner connection a key's writes always use —
// deterministic by key, so same-key writes share one ordered QP.
func (sh *serviceShard) setClient(key uint64) *Client {
	return sh.clients[int(key)%len(sh.clients)]
}

// probeReach is how many of a key's candidate buckets a lookup mode's
// offload chains interrogate: single-probe lookups read H1 only, so
// anything placed at H2 would be acknowledged yet permanently
// unreadable.
func probeReach(mode LookupMode) int {
	if mode == LookupSingle {
		return 1
	}
	return 2
}

// residentBucket finds the NIC-addressable bucket holding key: the
// candidate bucket, within the lookup mode's probe reach, whose entry is
// key. It is the only bucket an overwrite claim, a delete chain or a
// version probe can target; ok=false means the key is absent,
// tombstoned, or spilled into a neighborhood slot only the host's scan
// reaches. Shared by the service router and the standalone client so
// the two views cannot drift.
func residentBucket(t *hopscotch.Table, mode LookupMode, key uint64) (addr uint64, ok bool) {
	for fn := 0; fn < probeReach(mode); fn++ {
		b := t.Hash(key, fn)
		if k, _, _, ok := t.EntryAt(b); ok && k == key {
			return t.BucketAddr(b), true
		}
	}
	return 0, false
}

// claimForTable computes key's bucket claim against a table, honoring
// the lookup mode's probe reach. The bool result reports whether the
// fabric can carry this write: false means only the host can run it —
// cuckoo-kick relocation (all reachable candidates taken), or the key
// lives in a spilled neighborhood slot the NIC cannot address (a NIC
// claim would install an unreadable duplicate). Shared by the service
// router and the standalone client, like residentBucket.
func claimForTable(t *hopscotch.Table, mode LookupMode, key uint64) (core.SetClaim, bool) {
	kc := core.ClaimCtrl(key)
	if addr, ok := residentBucket(t, mode, key); ok {
		return core.SetClaim{BucketAddr: addr, Expect: kc, New: kc}, true
	}
	if _, _, ok := t.Lookup(key); ok {
		// Resident but not at a reachable candidate bucket: only the
		// CPU's neighborhood scan can update it.
		return core.SetClaim{}, false
	}
	for fn := 0; fn < probeReach(mode); fn++ {
		b := t.Hash(key, fn)
		if _, _, _, ok := t.EntryAt(b); !ok {
			// A free candidate is either genuinely empty (CAS against
			// zero) or tombstoned by an earlier delete — the claim CAS
			// reclaims the tombstone in place, keeping delete churn on
			// the fabric instead of bouncing every reinsert to the host.
			// Fresh claims install the PENDING word: the bucket still
			// carries its previous occupant's stale [valAddr, valLen],
			// so the chain publishes NOOP|key only after the repoint —
			// otherwise a concurrent lookup could resurrect the old
			// extent through the stale pointer.
			claim := core.SetClaim{BucketAddr: t.BucketAddr(b),
				New: core.ClaimPendingCtrl(key)}
			if t.TombstoneAt(b) {
				claim.Expect = hopscotch.Tombstone
			}
			return claim, true
		}
	}
	return core.SetClaim{}, false
}

// queueHint records op's mutation as the newest state an unreachable
// owner is missing. An older pending hint for the same key is
// superseded (its write is settled — a newer value stands in for it);
// an incoming write older than the pending hint settles immediately.
// Because supersession is purely by sequence number, a tombstone hint
// replaces any older value hint — and a value hint newer than a pending
// tombstone replaces it just as correctly (the delete happened-before
// the new write).
func (s *Service) queueHint(sh *serviceShard, op *setOp) {
	// A leg can resolve after its target left the service entirely (a
	// drain completed while the write was in flight): there is no owner
	// to hand off to, and the new owners carry the write — just settle.
	if s.shards[sh.id] != sh {
		sh.stats.HintsDropped++
		op.settleOne(s)
		return
	}
	// Hints aimed at a shard mid-drain redirect to the key's new
	// primary: the draining owner will be gone before it could drain
	// them, and an acked write must survive its departure.
	if s.draining(sh.id) {
		if to := s.redirectTarget(op.key, sh); to != nil {
			s.migHintsRedirected++
			s.queueHint(to, op)
			return
		}
	}
	queued := false
	if cur, ok := sh.hints[op.key]; ok {
		if cur.seq >= op.seq {
			sh.stats.HintsDropped++
			op.settleOne(s)
			return
		}
		sh.stats.HintsDropped++
		s.settleHint(cur)
		queued = cur.queued // the key keeps its place in the drain
	}
	sh.hints[op.key] = &hint{mutation: &op.mutation, op: op, queued: queued}
	sh.stats.HintsQueued++
	if s.tr.Enabled() {
		s.tr.Instant("coordinator", sh.trHint, op.traceOp)
	}
}

// dropHint discards a pending hint made redundant by a successful
// newer (or equal) write to the same owner.
func (s *Service) dropHint(sh *serviceShard, key, seq uint64) {
	if cur, ok := sh.hints[key]; ok && cur.seq <= seq {
		s.retireHint(sh, cur, &sh.stats.HintsDropped)
	}
}

// retireHint takes h off sh's queue — if it still stands there —
// counting it on c (applied or dropped) and settling its write.
func (s *Service) retireHint(sh *serviceShard, h *hint, c *uint64) {
	if sh.hints[h.key] != h {
		return
	}
	delete(sh.hints, h.key)
	*c++
	s.settleHint(h)
}

// settleHint settles a hint's originating write exactly once.
func (s *Service) settleHint(h *hint) {
	if h.settled {
		return
	}
	h.settled = true
	h.op.settleOne(s)
}

// sortedHintKeys appends the keys of hints — only those not yet
// queued for a drain, when fresh — to keys in key order, growing keys
// at most once.
func sortedHintKeys(keys []uint64, hints map[uint64]*hint, fresh bool) []uint64 {
	start := len(keys)
	for k, h := range hints {
		if fresh && h.queued {
			continue
		}
		if len(keys) == cap(keys) {
			keys = slices.Grow(keys, len(hints))
		}
		keys = append(keys, k)
	}
	slices.Sort(keys[start:])
	return keys
}

// drainHints hands off sh's pending hints once its host is up: the
// ones not yet queued join the shard's drain queue in key order, and
// idle drain lanes take keys off its front.
func (s *Service) drainHints(sh *serviceShard) {
	if len(sh.hints) == 0 || sh.hostDown {
		return
	}
	start := len(sh.drainQ)
	sh.drainQ = sortedHintKeys(sh.drainQ, sh.hints, true)
	for _, k := range sh.drainQ[start:] {
		sh.hints[k].queued = true
	}
	s.pumpDrain(sh)
}

// pumpDrain sets idle lanes to work on the drain queue while sh's host
// is up. A key whose hint is gone (applied, dropped, redirected) or
// already replaying on another lane is skipped.
func (s *Service) pumpDrain(sh *serviceShard) {
	for len(sh.idle) > 0 && len(sh.drainQ) > 0 && !sh.hostDown {
		h := sh.hints[sh.drainQ[0]]
		sh.drainQ = sh.drainQ[1:]
		if h != nil && !h.draining {
			l := sh.idle[len(sh.idle)-1]
			sh.idle = sh.idle[:len(sh.idle)-1]
			l.replay(h)
		}
	}
}

// drainLane replays handoff hints to a recovered owner, one at a time,
// through the ordinary owner apply path. A shard has one lane per write
// slot of its clients, so a recovery holds as many owner applies as
// its set pipelines carry at once, however long the outage was, and a
// user write to the owner queues behind them, not behind the backlog.
// The continuations are bound once, at wiring.
type drainLane struct {
	sh     *serviceShard
	h      *hint // the hint being replayed; nil while idle
	slotFn func()
	doneFn func(ownerWriteStatus)
}

// replay takes h and queues for its (owner, key) write slot. The
// replay reads the write's mutation until it resolves — its bytes are
// the only copy when the quorum failed — whatever happens to the hint
// meanwhile (DropHints, a redirect).
func (l *drainLane) replay(h *hint) {
	l.h = h
	h.queued, h.draining = true, true
	h.op.pins++
	l.sh.svc.withKeySlot(l.sh, h.key, l.slotFn)
}

// granted runs with the write slot held. Staleness is re-checked here:
// a hint dropped or replaced while the lane queued — a newer write
// reached this owner, or superseded the hint — is skipped, so a replay
// never runs an old value over a newer write.
func (l *drainLane) granted() {
	s, sh, h := l.sh.svc, l.sh, l.h
	if sh.hints[h.key] != h {
		l.release(true)
		return
	}
	s.ownerApplyNow(sh, h.mutation, 0, l.doneFn)
}

// done resolves the replay. Applied, the hint retires as applied first
// — left in place, the shared bookkeeping's dropHint would count it
// superseded. Rejected (the recovered table refused it for capacity),
// it retires as dropped: retrying forever would spin. Unreachable (the
// owner died again mid-drain), it stays queued for the next recovery
// and is applied exactly once, when a replay finally succeeds.
func (l *drainLane) done(st ownerWriteStatus) {
	s, sh, h := l.sh.svc, l.sh, l.h
	switch st {
	case ownerApplied:
		s.retireHint(sh, h, &sh.stats.HintsApplied)
		s.noteOwnerApplied(sh, h.mutation)
	case ownerRejected:
		s.retireHint(sh, h, &sh.stats.HintsDropped)
	}
	l.release(st != ownerUnreachable)
}

// release ends the lane's replay and passes the write slot on. With
// the owner reachable the lane moves on to the key's next hint — one
// queued while this replay was in flight — or goes idle and pumps the
// queue. With it unreachable the lane goes idle and the key's hint
// waits for the next drainHints, as does the rest of the queue.
func (l *drainLane) release(reachable bool) {
	s, sh, h, key := l.sh.svc, l.sh, l.h, l.h.key
	h.draining, l.h = false, nil
	h.op.unpin(s)
	s.setNext(sh, key)
	if next := sh.hints[key]; next != nil && !next.draining {
		if reachable {
			l.replay(next)
			return
		}
		next.queued = false
	}
	sh.idle = append(sh.idle, l)
	if reachable {
		s.pumpDrain(sh)
	}
}
