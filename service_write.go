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
// it runs the hinted overwrite's pointer CAS at the key's resident
// bucket, swapping the extent the coordinator captured under the key's
// write slot for the key's freed pointer; the applied ack retires that
// extent, as an overwrite's does. Keys that need cuckoo-kick
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
// Same-key writes are serialized per owner (the ownerKey write slot):
// the coordinator is the single write path, so per-key order is issue
// order everywhere, which is what the sequence numbers certify.

// hostSetLat models the cost of a write that must involve the owner's
// CPU: a two-sided RPC (SEND + handler + response) plus the insert
// itself — the §5.4 "writes stay on the CPU path" cost the fabric
// claim chain avoids.
const hostSetLat = 2500 * sim.Nanosecond

// hostDeleteLat models a delete that must involve the owner's CPU: a
// two-sided RPC plus the neighborhood scan and the bucket's emptying —
// the same cost shape as hostSetLat.
const hostDeleteLat = hostSetLat

// ErrReservedKey reports a write or delete of a key in the reserved id
// space (hopscotch.PendingBit set): the async paths reject them exactly
// as the tables' host-side inserts do.
var ErrReservedKey = errors.New("redn: key uses the reserved id space")

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

// lack is one owner's missing write for one key — the owner lacks the
// key up to seq — a pooled record hung on the key's ownerKey. A hint carries the
// write itself (op, which it settles when it retires) and its replay
// applies op's mutation; a repair (op nil) carries only the floor seq,
// and its replay rolls the owner forward to whatever the winning
// replica holds then (derive). Tombstones and values share
// the per-key slot and its sequence order, so a delete hint supersedes
// any older value hint and a drain replays it as a delete. queued: the
// key waits in the shard's drain queue or a replay holds it; draining:
// a replay run carries this record; tries: the replays of a repair that
// could not land yet (park).
type lack struct {
	op       *setOp
	seq      uint64
	queued   bool
	draining bool
	tries    uint8
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
		s.stats.QuorumFails++
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
	rec := s.keys[op.key]
	rec.unsettled--
	s.keys[op.key] = rec
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
// and returns immediately; cb runs when the W-of-N quorum has freed
// its bucket (err == nil) or can no longer be reached (err is a
// *QuorumError). Deletes have real modeled latency — a NIC pointer CAS
// per owner, freeing the key's bucket — and pipeline like sets; call
// Flush after posting a batch. The client-side hot-value cache entry is
// invalidated and the key's write epoch bumped at issue time, so no
// reader of this coordinator can see the deleted value from the cache
// afterward, and no in-flight get can re-admit it.
func (s *Service) DeleteAsync(key uint64, cb func(lat Duration, err error)) {
	s.writeAsync(key, nil, true, cb)
}

// writeAsync is the one W-of-N write state machine behind SetAsync and
// DeleteAsync: validate, issue the key's next sequence, update the cache,
// then fan the mutation out over the key's owners.
func (s *Service) writeAsync(key uint64, value []byte, del bool, cb func(lat Duration, err error)) {
	key &= hopscotch.KeyMask
	s.sentinelKick()
	// A refused write is scheduled onto cb before any coordinator state
	// is touched, so it leaves no sequence number, unsettled count or
	// cache entry behind.
	if key&hopscotch.PendingBit != 0 || key == 0 {
		// The tables reject the reserved id space, and key 0's control
		// word is the empty-bucket marker; reject both on the fabric
		// path exactly as the tables do on the host path.
		s.rejectWrite(cb, ErrReservedKey)
		return
	}
	if uint64(len(value)) > s.cfg.MaxValLen {
		s.rejectWrite(cb, ErrValueTooLarge)
		return
	}
	ops, class := &s.stats.SetOps, uint8(telemetry.ClassSet)
	if del {
		ops, class = &s.stats.DelOps, telemetry.ClassDel
	}
	*ops++
	rec := s.keys[key]
	rec.seq++
	rec.unsettled++
	rec.epoch++
	rec.del = del
	s.keys[key] = rec
	if s.cache != nil {
		if del {
			delete(s.cache, key)
		} else if _, ok := s.cache[key]; ok {
			s.cache[key] = append([]byte(nil), value...)
		}
	}
	op := s.takeSet()
	op.key, op.seq, op.del = key, rec.seq, del
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
	r.op, r.idx, r.votes = op, idx, votes
	s.armAntiEntropy()
	sh.withKeySlot(r)
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
		// divergence: with the repair subsystem on, a repair records
		// the laggard, and it or the next probe or sweep rolls it
		// forward once capacity frees. (Deletes have no capacity to
		// run out of; they never land here.)
		if s.repairEnabled() {
			s.queueRepair(sh, op.key, op.seq)
		}
		op.fail(s)
		op.settleOne(s)
	}
	op.unpin(s)
}

// keyRec is the coordinator's write state for one key: its newest
// write's sequence and whether it deletes, how many of its writes some
// owner has not resolved yet (applied, drained or superseded), the
// write epoch guarding cache admission and hint learning, and its
// placement hints. Born
// at the key's first write, never deleted.
type keyRec struct {
	seq       uint64
	unsettled int
	epoch     uint64
	del       bool // the newest write issued is a delete
	// placed holds, per replica rank (the first four), 1 + the
	// candidate bucket (H1 or H2) the rank's last applied fabric claim or
	// located hit named, and ext the extent there; 0 is no hint.
	placed [4]uint8
	ext    [4]uint64
}

// placedAt returns 1 + the candidate holding key on sh and the extent
// it names, as the last fabric claim sh applied or located hit found
// them, or 0 when no hint stands and a get locates the key. It reads
// the coordinator's own record only, never the owner's table.
func (s *Service) placedAt(key uint64, sh *serviceShard) (fn int, ext uint64) {
	rec := s.keys[key]
	if r := slices.Index(s.ownerNodes(key), sh.ringIdx); r >= 0 && r < len(rec.placed) {
		return int(rec.placed[r]), rec.ext[r]
	}
	return 0, 0
}

// learnPlaced records that sh applied a fabric claim of key's bucket
// at addr, one of its two candidates (H1 when they coincide), which
// installed the extent ext (a delete: sh's null extent), or a located
// hit found the key there.
func (s *Service) learnPlaced(key uint64, sh *serviceShard, addr, ext uint64) {
	rec := s.keys[key]
	if r := slices.Index(s.ownerNodes(key), sh.ringIdx); r >= 0 && r < len(rec.placed) {
		rec.placed[r], rec.ext[r] = 2, ext
		if addr == sh.table.table.HashAddr(key, 0) {
			rec.placed[r] = 1
		}
		s.keys[key] = rec
	}
}

// dropPlaced forgets key's placement hints: a host-path place, a kick
// walk or a delete may have moved it on some owner.
func (s *Service) dropPlaced(key uint64) {
	if rec, ok := s.keys[key]; ok && rec.placed != [4]uint8{} {
		rec.placed, rec.ext = [4]uint8{}, [4]uint64{}
		s.keys[key] = rec
	}
}

// settled reports whether every owner has resolved every write to key:
// until then a lagging replica may legally serve an older value, so the
// cache admits no read of it and repair reads no skew as divergence.
func (s *Service) settled(key uint64) bool { return s.keys[key].unsettled == 0 }

// ownerKey is one owner's write state for one key, kept on its shard:
// the (owner, key) write slot (while held, the queue of owner runs
// whose head holds it, from the shard's pool), the record of the write
// the owner is missing (a hint or a repair), and the newest delete
// sequence it applied (tomb, 0 for none): the only record of a delete's
// version, since a deleted bucket carries none. An entry lives only
// while it holds one of the three.
type ownerKey struct {
	slot *ring.Queue[*ownerRun]
	lack *lack
	tomb uint64
}

// put stores k as sh's state for key, deleting the entry once it is
// idle: slot free, no record, no tombstone.
func (sh *serviceShard) put(key uint64, k ownerKey) {
	if k.slot == nil && k.lack == nil && k.tomb == 0 {
		delete(sh.keys, key)
		return
	}
	sh.keys[key] = k
}

// withKeySlot serializes same-key work on one owner: r is granted the
// (owner, key) write slot at once if it is free, else it queues behind
// the run holding it, coalescing the queue when it is a fan-out leg. A
// run passes the slot on when it finishes.
func (sh *serviceShard) withKeySlot(r *ownerRun) {
	r.next = runSlot
	k := sh.keys[r.m.key]
	if k.slot == nil {
		k.slot, _ = sh.slots.take()
		sh.keys[r.m.key] = k
	}
	if r.op != nil && k.slot.Len() > 1 {
		sh.coalesce(k.slot)
	}
	*k.slot.Push() = r
	if k.slot.Len() == 1 {
		r.granted()
	}
}

// coalesce settles, unapplied, every queued leg in q of a write already
// past its quorum: a newer write is queueing its leg behind them, so the
// owner ends at its value anyway, and each would otherwise keep its
// write's record until it reached the slot. The holder has issued.
func (sh *serviceShard) coalesce(q *ring.Queue[*ownerRun]) {
	holder := q.Pop()
	*q.Push() = holder // first again once the walk wraps
	for n := q.Len() - 1; n > 0; n-- {
		if r := q.Pop(); r.op == nil || !r.op.done {
			*q.Push() = r
		} else {
			s, op := r.s, r.op
			s.tr.AsyncEnd("leg", op.traceOp<<4|uint64(r.idx), sh.legTrack(r.votes), op.traceOp)
			r.next, r.sh, r.m, r.op = runFree, nil, nil, nil
			s.runs.put(r)
			op.settleOne(s)
		}
	}
}

// setNext drops the finished run at the head of the (owner, key) write
// slot and grants the slot to the next run queued for it, or frees it.
func (sh *serviceShard) setNext(key uint64) {
	k := sh.keys[key]
	k.slot.Pop()
	if k.slot.Len() > 0 {
		(*k.slot.Peek()).granted()
		return
	}
	sh.slots.put(k.slot)
	k.slot = nil
	sh.put(key, k)
}

// lackAt returns the record standing for key on sh, nil for none.
func (sh *serviceShard) lackAt(key uint64) *lack { return sh.keys[key].lack }

// setLack makes l the record standing for key on sh (nil: none),
// keeping the shard's counts of pending hints and repairs.
func (sh *serviceShard) setLack(key uint64, l *lack) {
	k := sh.keys[key]
	if k.lack != nil {
		*sh.pending(k.lack)--
	}
	if l != nil {
		*sh.pending(l)++
	}
	k.lack = l
	sh.put(key, k)
}

// pending is sh's count of the standing records of l's kind.
func (sh *serviceShard) pending(l *lack) *int {
	if l.op != nil {
		return &sh.nHints
	}
	return &sh.nRepairs
}

// noteOwnerApplied is the bookkeeping every successful owner apply —
// fan-out leg, drained hint or repair — owes: the per-replica apply log
// (tests), the owner's tombstone version (a delete raises it, a value
// at or past it clears it), and retiring any pending record the apply
// made redundant.
func (s *Service) noteOwnerApplied(sh *serviceShard, m *mutation) {
	if s.applyHook != nil {
		s.applyHook(sh.id, m.key, m.seq)
	}
	k := sh.keys[m.key]
	tomb := k.tomb
	if m.del {
		tomb = max(tomb, m.seq)
	} else if m.seq >= tomb {
		tomb = 0
	}
	if tomb != k.tomb {
		k.tomb = tomb
		sh.put(m.key, k)
	}
	if l := k.lack; l != nil && l.seq <= m.seq {
		s.retire(sh, m.key, l, ownerCaughtUp)
	}
}

// ownerWriteStatus classifies one owner apply's outcome. The
// distinction matters for handoff: an unreachable owner gets a hint
// (the write applies at recovery), a definitive rejection — the table
// refused the insert — does not: deferring a capacity failure would
// resurrect a write its caller was told failed.
type ownerWriteStatus int

const (
	ownerApplied ownerWriteStatus = iota
	ownerUnreachable
	ownerRejected
	// ownerCaughtUp: nothing left to apply when the run was granted the
	// slot — a replay's record no longer stands, or a repair's derive
	// finds the owner at the winning state already (or the winner's copy
	// deleted).
	ownerCaughtUp
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

// ownerRun is one owner-level apply, from the moment it asks for its
// (owner, key) write slot until it passes the slot on: a fan-out leg
// (op set) or a replay (h set): the only record of its apply, and a
// pooled one. The continuations are method values bound once, when the
// record is made; next names the single one outstanding, so a
// continuation reaching a record that was released — or released and
// taken again — panics.
type ownerRun struct {
	s    *Service
	next runStage

	sh  *serviceShard
	m   *mutation
	top uint64 // trace op id the apply's WRs attribute to

	cli      *Client          // connection the NIC chain is on
	claimAt  uint64           // the bucket a fabric write claims (0: none, it fell back to the host, or a kick walk moved the key)
	oldVa    uint64           // the key's extent before this apply
	resident bool             // oldVa is valid
	st       ownerWriteStatus // runHop: the outcome to deliver
	absent   bool             // runHop: a delete of a key this owner never had
	hostLat  Duration         // runHost: the RPC's modeled latency

	// A fan-out leg: the write it is a leg of, its position, whether it
	// votes in the quorum. A replay: the record (m is a hint's write's);
	// a repair's replay derives the winning state into mut (m points at
	// it) when granted the slot.
	op    *setOp
	idx   int
	votes bool
	h     *lack
	mut   mutation

	hopFn, hostFn func()
	ackFn         func(lat Duration, ok bool)
}

// takeRun hands out an owner-apply record in the dispatch stage.
func (s *Service) takeRun(sh *serviceShard, m *mutation, top uint64) *ownerRun {
	r, fresh := s.runs.take()
	if fresh {
		r.s = s
		r.hopFn, r.hostFn, r.ackFn = r.hopped, r.hosted, r.acked
	}
	r.next = runExec
	r.sh, r.m, r.top = sh, m, top
	r.absent, r.claimAt = false, 0
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

// granted runs when the (owner, key) write slot is the run's. A replay
// re-checks its record here: one dropped or replaced while the run
// queued — a newer write reached this owner, or superseded the record —
// is skipped, so a replay never runs an old value over a newer write. A
// repair that meets a write still in flight parks like a refused one:
// derive must not read a winner a racing write can repoint, and the
// write's own fan-out may not reach this owner (one issued before an
// ownership change). A moving key's last try applies all the same: a
// write wedged on a down pre-change owner's hint stays in flight for the
// whole outage, and dropping the record would seal its segment over the
// lagging new owner. A repair derives what it applies here.
func (r *ownerRun) granted() {
	r.enter(runSlot)
	s, key := r.s, r.m.key
	switch {
	case r.h != nil && r.sh.lackAt(key) != r.h:
		r.finish(ownerCaughtUp)
		return
	case r.h != nil && r.h.op == nil && !s.settled(key) &&
		(r.h.tries+1 < repairMaxTries || s.mig == nil || !s.mig.keyUnsealed(key)):
		r.finish(ownerRejected)
		return
	case r.m == &r.mut:
		if st, ok := r.derive(); !ok {
			r.finish(st)
			return
		}
	}
	r.apply()
}

// finish resolves the run — a leg into its write's quorum accounting, a
// replay into its record — returns the record and passes the slot on. A
// replay's lane moves on only then.
func (r *ownerRun) finish(st ownerWriteStatus) {
	s, sh, key, h := r.s, r.sh, r.m.key, r.h
	if r.op != nil {
		r.legDone(st)
	} else {
		s.replayDone(sh, key, h, r.m, st)
	}
	r.next = runFree
	r.sh, r.m, r.cli, r.op, r.h = nil, nil, nil, nil, nil
	s.runs.put(r)
	sh.setNext(key)
	if h != nil {
		s.replayed(sh, key, st != ownerUnreachable)
	}
}

// apply routes one owner apply, the run holding the (owner, key) slot:
// the NIC chain when the fabric can carry it — for a value, the hinted
// overwrite's pointer CAS when the key is resident at a candidate
// bucket, else the CAS-claim set chain at a claimable candidate; for a
// delete, the same pointer CAS at the key's resident bucket, swapping
// its extent for the key's freed pointer — the host CPU otherwise, a
// trivial ack for a delete the owner never had the key for, handoff
// failure when neither can run. A value's m.seq is published in its
// header by whichever path applies; a tombstone's lives in the owner's
// key record (ownerKey.tomb). A delete keeps the key's placement hint:
// a hinted get then meets the freed pointer, and answers the miss at
// once. The run finishes asynchronously (from the simulation).
func (r *ownerRun) apply() {
	s, sh, m := r.s, r.sh, r.m
	t := sh.table.table
	var (
		claim  core.SetClaim
		fabric bool
	)
	if m.del {
		claim.BucketAddr, _, fabric = residentBucket(t, LookupSeq, m.key)
		claim.New = hopscotch.FreedPtr(m.key)
	} else {
		claim, fabric = claimForTable(t, LookupSeq, m.key)
	}
	// The key's current extent, captured under the per-key write slot,
	// which orders the key's writes on this owner: what an overwrite's
	// or a delete's pointer CAS expects. An acked fabric write — a set
	// repointing the bucket at its staging extent, or a delete freeing
	// its pointer — retires this one on the ack, to be freed once no get
	// can still read it; a delete that finds nothing resident has
	// nothing to do.
	r.oldVa, _, r.resident = t.Lookup(m.key)
	if fabric && claim.Extent == 0 {
		claim.Extent = r.oldVa // a resident overwrite, the hinted one, or a delete
	}
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
	r.claimAt = claim.BucketAddr
	if m.del {
		sh.stats.FabricDeletes++
	} else {
		sh.stats.FabricSets++
	}
	r.cli.setAsyncClaim(m.key, m.val, claim, m.seq, r.top, r.ackFn)
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
	applied := &sh.stats.Sets
	if m.del {
		applied = &sh.stats.Deletes
	}
	if ok {
		sh.markLive()
		*applied++
		if r.resident {
			sh.srv.retire.push(r.oldVa)
			if m.del {
				sh.stats.GCFreed++
			}
		}
		// Every apply teaches the hint, a replay's as well as a leg's: a
		// get after a crash's hint drain reads the extent the drain
		// installed, and a get after a delete reads the freed pointer
		// against the shard's null extent, never the extent the delete
		// retired, which may come back as the key's next value.
		if r.claimAt != 0 {
			ext := cli.staged
			if m.del {
				ext = sh.null
			}
			s.learnPlaced(m.key, sh, r.claimAt, ext)
		}
		s.noteLegReceipt(cli.lastReceipt(pipeSet))
		r.finish(ownerApplied)
		return
	}
	if !cli.lastExecuted(pipeSet) {
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
	r.hostLat, r.claimAt = hostSetLat, 0
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
		sh.del(m.key)
		sh.stats.Deletes++
	} else if err := sh.set(m.key, m.val, m.seq); err != nil {
		if errors.Is(err, hopscotch.ErrClaimed) && r.hostLat < DefaultMissTimeout {
			// The walk met another key's claim, which its chain ends
			// within MissTimeout: walk again one RPC later.
			sh.stats.Sets-- // set counted the attempt; the walk applied nothing
			r.hostLat += hostSetLat
			r.next = runHost
			r.s.tb.clu.Eng.After(hostSetLat, r.hostFn)
			return
		}
		// The table itself refused (neighborhoods exhausted, or a claim
		// held past MissTimeout): a definitive rejection, not unavailability.
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

// residentBucket finds the NIC-addressable bucket holding key — the
// candidate bucket, within the lookup mode's probe reach, whose entry is
// key — and the value extent it names. It is the only bucket an
// overwrite claim, a delete chain or a version probe can target;
// ok=false means the key is absent, deleted, or spilled into a
// neighborhood slot only the host's scan reaches. Shared by the service
// router and the standalone client so the two views cannot drift.
func residentBucket(t *hopscotch.Table, mode LookupMode, key uint64) (addr, va uint64, ok bool) {
	for fn := 0; fn < probeReach(mode); fn++ {
		b := t.Hash(key, fn)
		if k, va, _, ok := t.EntryAt(b); ok && k == key {
			return t.BucketAddr(b), va, true
		}
	}
	return 0, 0, false
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
	if addr, _, ok := residentBucket(t, mode, key); ok {
		return core.SetClaim{BucketAddr: addr, Expect: kc, New: kc}, true
	}
	if _, _, ok := t.Lookup(key); ok {
		// Resident but not at a reachable candidate bucket: only the
		// CPU's neighborhood scan can update it.
		return core.SetClaim{}, false
	}
	for fn := 0; fn < probeReach(mode); fn++ {
		// A free candidate the fabric may claim: an empty one, whose
		// fresh claim takes the free pointer first and then publishes
		// the key, or the key's own deleted bucket, whose re-insert is
		// the one pointer CAS beside the key word its delete kept. A
		// bucket another key's delete freed still reads as that key's
		// word until a write replaces it, so only the host's Place,
		// which writes both words at once, reuses it.
		b := t.Hash(key, fn)
		if _, va, _, _ := t.EntryAt(b); va == hopscotch.FreePtr || va == hopscotch.FreedPtr(key) {
			return core.SetClaim{BucketAddr: t.BucketAddr(b), Extent: va}, true
		}
	}
	return core.SetClaim{}, false
}

// queueHint records op's mutation as the newest state an unreachable
// owner is missing (stand). Because supersession is purely by sequence
// number, a tombstone hint replaces any older value hint — and a value
// hint newer than a pending tombstone replaces it just as correctly
// (the delete happened-before the new write).
func (s *Service) queueHint(sh *serviceShard, op *setOp) {
	// A leg can resolve after its target left the service entirely (a
	// drain completed while the write was in flight): there is no owner
	// to hand off to, and the new owners carry the write — just settle.
	if s.shards[sh.id] != sh {
		sh.stats.HintsDropped++
		op.settleOne(s)
		return
	}
	// Hints aimed at a shard that lost the key redirect to its current
	// owner: a draining owner will be gone before it could drain them,
	// and an acked write must survive its departure; a former owner past
	// its seal would only make a ghost resident.
	if s.lostKey(sh, op.key) {
		if to := s.redirectTarget(op.key, sh); to != nil {
			s.stats.MigHintsRedirected++
			s.queueHint(to, op)
			return
		}
	}
	if s.stand(sh, op.key, op.seq, op) && s.tr.Enabled() {
		s.tr.Instant("coordinator", sh.trHint, op.traceOp)
	}
}

// stand records that sh lacks key up to seq — a hint carrying op's
// mutation when op is set, a repair floor otherwise — under the one
// merge rule: the newer seq stands (on a tie, the record with bytes),
// a hint that loses settles its write, and a new record takes the old
// one's place in the drain. Two floors merge in place. It reports
// whether a new record stands.
func (s *Service) stand(sh *serviceShard, key, seq uint64, op *setOp) bool {
	cur := sh.lackAt(key)
	queued := cur != nil && cur.queued
	switch {
	case cur == nil:
	case cur.op == nil && op == nil:
		cur.seq = max(cur.seq, seq)
		return false
	case cur.seq > seq || cur.seq == seq && cur.op != nil:
		if op != nil {
			sh.stats.HintsDropped++
			op.settleOne(s)
		}
		return false
	default:
		s.unstand(sh, key, cur, ownerCaughtUp)
	}
	l, _ := s.lacks.take()
	l.seq, l.op, l.queued = seq, op, queued
	if op != nil {
		sh.stats.HintsQueued++
	} else {
		sh.stats.RepairsQueued++
	}
	sh.setLack(key, l)
	return true
}

// retire takes l off sh's key — if it still stands there — and, during
// a resharding, seals the key's segment if that was the last record its
// current owners held.
func (s *Service) retire(sh *serviceShard, key uint64, l *lack, st ownerWriteStatus) {
	if sh.lackAt(key) != l {
		return
	}
	s.unstand(sh, key, l, st)
	if m := s.mig; m != nil {
		s.sealIfCaughtUp(m, m.segOf(key))
	}
}

// unstand takes the standing record l off sh's key, counting how it
// ended (applied, rejected or superseded) and settling a hint's write;
// a record no replay carries goes back to the pool. A record stand
// supersedes goes this way, never sealing: its successor stands at once.
func (s *Service) unstand(sh *serviceShard, key uint64, l *lack, st ownerWriteStatus) {
	sh.setLack(key, nil)
	*sh.ended(l, st)++
	if l.op != nil {
		l.op.settleOne(s)
	}
	s.freeLack(l)
}

// ended is the counter a record of l's kind that ends in st bumps: a
// hint is applied or dropped, a repair applied, dropped on a rejection,
// or superseded.
func (sh *serviceShard) ended(l *lack, st ownerWriteStatus) *uint64 {
	switch {
	case st == ownerApplied && l.op != nil:
		return &sh.stats.HintsApplied
	case st == ownerApplied:
		return &sh.stats.RepairsApplied
	case l.op != nil:
		return &sh.stats.HintsDropped
	case st == ownerRejected:
		return &sh.stats.RepairsDropped
	}
	return &sh.stats.RepairsSuperseded
}

// freeLack returns a record that no longer stands to the pool, unless a
// replay still carries it: the replay's end returns it.
func (s *Service) freeLack(l *lack) {
	if !l.draining {
		*l = lack{}
		s.lacks.put(l)
	}
}

// sortedLackKeys appends the keys of sh's records — when fresh, only
// those off the drain queue that wait for the retry tick (parked) or,
// when not, for the owner to prove live — to keys in key order, growing
// keys at most once.
func (sh *serviceShard) sortedLackKeys(keys []uint64, fresh, parked bool) []uint64 {
	start := len(keys)
	for k, rec := range sh.keys {
		if l := rec.lack; l == nil || fresh && (l.queued || (l.tries > 0) != parked) {
			continue
		}
		if len(keys) == cap(keys) {
			keys = slices.Grow(keys, sh.nHints+sh.nRepairs)
		}
		keys = append(keys, k)
	}
	slices.Sort(keys[start:])
	return keys
}

// drainHints puts sh's records that wait for a gate on its drain queue
// in key order, and idle drain lanes take keys off its front. The gate
// is the owner proving live once its host is up (recovery, a hit
// through it, its probe's answer) or, parked, the retry tick.
func (s *Service) drainHints(sh *serviceShard, parked bool) {
	if sh.nHints+sh.nRepairs == 0 || sh.hostDown && !parked {
		return
	}
	start := len(sh.drainQ)
	sh.drainQ = sh.sortedLackKeys(sh.drainQ, true, parked)
	for _, k := range sh.drainQ[start:] {
		sh.lackAt(k).queued = true
	}
	s.pumpDrain(sh)
}

// pumpDrain sets idle lanes to work on the drain queue while sh's host
// is up. A key whose record is gone (applied, dropped, redirected) or
// already replaying on another lane is skipped.
func (s *Service) pumpDrain(sh *serviceShard) {
	for sh.lanes > 0 && sh.drainAt < len(sh.drainQ) && !sh.hostDown {
		key := sh.drainQ[sh.drainAt]
		if sh.drainAt++; sh.drainAt == len(sh.drainQ) {
			sh.drainQ, sh.drainAt = sh.drainQ[:0], 0 // emptied: its space is reused
		}
		if l := sh.lackAt(key); l != nil && !l.draining {
			sh.lanes--
			s.replay(sh, key, l)
		}
	}
}

// replay starts one record's replay on a drain lane: a run carrying l
// that queues for its (owner, key) write slot and applies a hint's
// bytes, or a repair's derived winning state, through the ordinary
// owner apply path. A shard has one lane per write slot of its clients
// (sh.lanes counts the idle ones), so a recovery holds as many owner
// applies as its set pipelines carry at once, however long the outage
// was, and a user write to the owner queues behind them, not behind the
// backlog. A hint's replay reads the write's mutation until it resolves
// — its bytes are the only copy when the quorum failed — whatever
// happens to the hint meanwhile (DropHints, a redirect).
func (s *Service) replay(sh *serviceShard, key uint64, l *lack) {
	l.queued, l.draining = true, true
	r := s.takeRun(sh, nil, 0)
	if l.op != nil {
		l.op.pins++
		r.m = &l.op.mutation
	} else {
		r.mut.key, r.m = key, &r.mut
	}
	r.h = l
	sh.withKeySlot(r)
}

// replayDone resolves a replay of key's record l, whose run applied m.
// Applied, the record retires as applied first — left in place, the
// shared bookkeeping would count it superseded. Rejected, a hint (the
// table refused it for capacity) retires as dropped and a repair parks
// for the retry tick. Unreachable (the owner died again mid-drain), it
// stays for the owner's next recovery, and a hint is applied exactly
// once, when a replay finally succeeds.
func (s *Service) replayDone(sh *serviceShard, key uint64, l *lack, m *mutation, st ownerWriteStatus) {
	op := l.op
	switch {
	case st == ownerUnreachable:
		l.tries = 0
	case st == ownerRejected && op == nil:
		s.park(sh, key, l)
	default:
		s.retire(sh, key, l, st)
	}
	switch {
	case st != ownerApplied:
	case op != nil:
		s.noteOwnerApplied(sh, m)
	default:
		s.rolledForward(sh, m)
	}
	l.draining = false
	if sh.lackAt(key) != l {
		s.freeLack(l)
	}
	if op != nil {
		op.unpin(s)
	}
}

// replayed moves a replay's lane on once the write slot has passed on.
// With the owner reachable the lane takes the key's next record — one
// queued while this replay was in flight — or goes idle and pumps the
// queue. With it unreachable the lane goes idle and the key's record
// waits for the next drainHints, as does the rest of the queue; a
// parked record waits for the retry tick.
func (s *Service) replayed(sh *serviceShard, key uint64, reachable bool) {
	if next := sh.lackAt(key); next != nil && !next.draining {
		if reachable && next.tries == 0 {
			s.replay(sh, key, next)
			return
		}
		next.queued = false
	}
	sh.lanes++
	if reachable {
		s.pumpDrain(sh)
	}
}
