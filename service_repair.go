package redn

import (
	"slices"

	"repro/internal/hopscotch"
	"repro/internal/repair"
	"repro/internal/sim"
)

// The replica repair subsystem.
//
// Replicas diverge three ways the write path cannot fully heal:
// capacity rejections (an owner's table refused the insert — the old
// handoff machinery deliberately dropped those), lost hints (bounded
// hint queues overflow in any Dynamo-style system; DropHints models
// it), and crash windows that outlive the hint's owner. Per-bucket
// version words close the gap: every set and delete publishes the
// coordinator's quorum sequence into its bucket (the fabric chains
// write it directly, host paths through the tables' *V variants), so
// "which replica is newest" becomes an 8-byte comparison any chain can
// make.
//
// Three mechanisms converge on those versions:
//
//  1. Read-repair (maybeReadRepair): every ProbeEvery-th replicated hit
//     issues a core.ProbeOffload chain — READ of the partner's bucket
//     word injected into the response WQE, CAS flipping NOOP to WRITE
//     iff the bucket holds the key, WRITE returning the version word
//     (4 data + 6 sync WRs, no host RPC) — against one rotating other
//     owner. A version mismatch (or a probe miss explained by the
//     partner's table) enqueues a repair. The common no-skew case costs
//     the host nothing at all.
//
//  2. The repair queue (repairTick/applyRepair): pending records,
//     activity-armed on repairEvery ticks. Applying a record re-derives
//     the winning state among the key's owners at apply time — newest
//     version wins, value or tombstone — and rolls the laggard FORWARD
//     through the ordinary owner write path (fabric claim chain or host
//     RPC, modeled cost and all), never backward: a record is a claim
//     that someone lags, not a payload. Unreachable or still-rejecting
//     owners retry under exponential backoff, bounded by
//     repairMaxAttempts so a permanently full owner cannot spin the
//     queue (a later sweep or probe re-enqueues when the world
//     changes).
//
//  3. Anti-entropy (sweepShard): ticks rotate across shards. A sweep
//     scans the shard's table once, bins resident (key, version) pairs
//     into AntiEntropySegments Merkle-style leaf digests per co-owner
//     (order-independent sums — see internal/repair), scans each
//     partner for the residents it co-owns with the root, and walks
//     keys only inside segments whose digests disagree, at a modeled
//     per-segment digest cost. Divergent keys — including keys one side
//     is missing entirely, which break the digest by absence — are
//     enqueued at the winning version. This bounds staleness for keys
//     no client ever reads.
//
// Repairs that roll an owner forward also bump the key's client-cache
// epoch and invalidate its cached value: a pre-repair value admitted
// from the stale owner (legal while the write was settling) must not
// outlive convergence.

// defaultRepairEvery is the repair queue's activity-armed tick period.
const defaultRepairEvery = 50 * sim.Microsecond

// defaultAntiEntropySegments is the per-shard digest segment count.
const defaultAntiEntropySegments = 64

// repairMaxAttempts bounds delivery attempts per repair record; a
// record that keeps failing (owner down, capacity still exhausted) is
// dropped — and re-created by the next probe or sweep that still sees
// the divergence, with a fresh attempt budget.
const repairMaxAttempts = 8

// repairBatch is how many due records one tick applies.
const repairBatch = 32

// aeSegmentDigestLat models computing and comparing one segment digest
// pair during an anti-entropy sweep (a linear scan of the segment's
// buckets on both hosts, amortized).
const aeSegmentDigestLat = 300 * sim.Nanosecond

// repairBackoff returns the retry gate for a record's n-th failure:
// exponential from the configured tick period, so retries always span
// multiple ticks no matter how repairEvery is tuned.
func (s *Service) repairBackoff(n int) Duration {
	d := s.cfg.repairEvery
	for i := 0; i < n && d < 10*sim.Millisecond; i++ {
		d *= 2
	}
	return d
}

// repairEnabled reports whether the repair subsystem has anything to
// do: divergence needs at least two replicas.
func (s *Service) repairEnabled() bool { return s.cfg.Replicas > 1 && !s.cfg.NoRepair }

// noteApplied records a value apply at seq on this owner: any tombstone
// version at or below it is superseded.
func (sh *serviceShard) noteApplied(key, seq uint64) {
	if tv, ok := sh.tombVer[key]; ok && seq >= tv {
		delete(sh.tombVer, key)
	}
}

// noteDeleted records a delete apply at seq — the owner's newest
// tombstone version for key.
func (sh *serviceShard) noteDeleted(key, seq uint64) {
	if tv, ok := sh.tombVer[key]; !ok || seq > tv {
		sh.tombVer[key] = seq
	}
}

// ownerState reports the newest versioned state owner holds for key:
// the resident bucket's version word, or the newest tombstone the
// coordinator recorded for it (del=true), whichever is newer. ok=false
// means the owner holds no versioned state at all — it missed every
// write to the key.
func (s *Service) ownerState(sh *serviceShard, key uint64) (ver uint64, del, ok bool) {
	if v, resident := sh.table.table.VersionOf(key); resident {
		if tv, has := sh.tombVer[key]; has && tv > v {
			return tv, true, true
		}
		return v, false, true
	}
	if tv, has := sh.tombVer[key]; has {
		return tv, true, true
	}
	return 0, false, false
}

// winningState finds the newest versioned state any owner holds for
// key: the roll-forward target every laggard converges to. del reports
// a tombstone win; winner is the shard holding the winning value
// (meaningless for tombstone wins). During a resharding the candidate
// set is the UNION of current and pre-change owners: a moving key's
// newest state may still live only where it is moving from.
func (s *Service) winningState(key uint64) (ver uint64, del bool, winner *serviceShard, ok bool) {
	for _, id := range s.stateOwners(key) {
		sh := s.shards[id]
		v, d, has := s.ownerState(sh, key)
		if !has {
			continue
		}
		if !ok || v > ver {
			ver, del, ok = v, d, true
			if !d {
				winner = sh
			}
		}
	}
	return ver, del, winner, ok
}

// laggingOwners calls fn for every current owner of key whose state
// lags winVer, the newest version any owner holds (winningState). A
// key no owner holds versioned state for has no laggards.
func (s *Service) laggingOwners(key uint64, fn func(sh *serviceShard, winVer uint64)) {
	winVer, _, _, ok := s.winningState(key)
	if !ok || winVer == 0 {
		return
	}
	for _, id := range s.owners(key) {
		sh := s.shards[id]
		if v, _, has := s.ownerState(sh, key); !has || v < winVer {
			fn(sh, winVer)
		}
	}
}

// StaleOwners reports how many (owner, key) replicas across keys lag
// the newest version any owner holds — the divergence metric the
// repair experiment tracks over time. Zero means every replica of
// every key has converged.
func (s *Service) StaleOwners(keys []uint64) int {
	stale := 0
	for _, key := range keys {
		s.laggingOwners(key&hopscotch.KeyMask, func(*serviceShard, uint64) { stale++ })
	}
	return stale
}

// DropHints discards every pending handoff hint on every shard,
// settling their originating writes — the operator-visible model of a
// bounded hint queue overflowing (Dynamo-style stores cap hinted
// handoff; anti-entropy is the backstop for what dropped hints miss).
// Hints are dropped WITHOUT leaving repair records: the point of the
// model is that the repair subsystem must rediscover the divergence on
// its own, through probes or sweeps. Returns the number dropped.
func (s *Service) DropHints() int {
	n := 0
	for _, sh := range s.order {
		for _, k := range sortedHintKeys(nil, sh.hints, false) {
			s.retireHint(sh, sh.hints[k], &sh.stats.HintsDropped)
			n++
		}
	}
	return n
}

// ---- read-repair ----

// maybeReadRepair runs on every replicated hit: every ProbeEvery-th
// one interrogates one rotating other owner's version word through the
// NIC probe chain and enqueues a repair on skew. g is the get that hit,
// served the owner that answered it. It reports whether a probe went
// out: the probe's callback is g's, so g must outlive it.
func (s *Service) maybeReadRepair(g *getOp, served *serviceShard) bool {
	order, key := g.order, g.key
	if !s.cfg.ReadRepair || !s.repairEnabled() || len(order) < 2 {
		return false
	}
	s.probeTick++
	if s.cfg.ProbeEvery > 1 && s.probeTick%uint64(s.cfg.ProbeEvery) != 0 {
		return false
	}
	// Rotate among the owners that did not serve this hit. During a
	// resharding the order can carry pre-change fallback extras; probing
	// an owner about to lose the key would report "skew" the seal is
	// about to erase, so partners must be current owners.
	var partner *serviceShard
	for range order {
		s.probeCursor++
		cand := order[s.probeCursor%len(order)]
		if cand == served {
			continue
		}
		if s.mig != nil && !s.isOwner(cand.id, key) {
			continue
		}
		partner = cand
		break
	}
	if partner == nil {
		return false
	}
	if partner.down() {
		s.probeLapsed(partner, key)
		return false
	}
	servedVer, _, _ := s.ownerState(served, key)
	bucket, fabricOK := residentBucket(partner.table.table, partner.mode, key)
	if !fabricOK {
		// The key is not at a NIC-addressable bucket on the partner
		// (absent, tombstoned, or spilled): the probe chain cannot ask,
		// so compare coordinator-side — the same view the write router
		// computes claims from.
		s.compareVersions(partner, key, servedVer)
		return false
	}
	s.probes++
	g.partner, g.pcli, g.servedVer = partner, partner.setClient(key), servedVer
	g.pop = s.tr.OpBegin("probe", key)
	g.next = getProbe
	g.pcli.probeAsyncTarget(key, bucket, g.pop, g.probeFn)
	g.pcli.Flush()
	return true
}

// probed is the read-repair probe's answer: the get record's last
// continuation.
func (g *getOp) probed(ver uint64, _ Duration, ok bool) {
	g.enter(getProbe)
	s, partner, key := g.s, g.partner, g.key
	// A probe finalizes at the client (no coordinator stitching), so its
	// receipt (nil with provenance off) records as it stands; get and
	// write receipts fold at the coordinator with retry and quorum legs.
	if r := g.pcli.lastReceipt(pipeProbe); r != nil {
		s.prov.Record(r)
	}
	s.tr.OpEnd(g.pop, "probe")
	switch {
	case ok:
		partner.markLive()
		if ver != g.servedVer {
			s.probeSkews++
			s.scheduleSkewRepair(key)
		}
	case g.pcli.lastExecuted(pipeProbe):
		// The chain ran and the conditional missed: the bucket moved
		// between computing the target and the probe landing (a
		// racing write or relocation). Fall back to the host view.
		s.compareVersions(partner, key, g.servedVer)
	}
	// Never executed: dead NIC — the suspect machinery owns that.
	g.release()
}

// compareVersions is the host-side fallback comparison for keys the
// probe chain cannot interrogate on the partner.
func (s *Service) compareVersions(partner *serviceShard, key, servedVer uint64) {
	pv, _, ok := s.ownerState(partner, key)
	if !ok && servedVer == 0 {
		return // neither side holds versioned state
	}
	if !ok || pv != servedVer {
		s.probeSkews++
		s.scheduleSkewRepair(key)
	}
}

// scheduleSkewRepair enqueues repairs for every owner of key lagging
// the winning version. Keys with writes still in flight are skipped:
// the write's own fan-out (or its hint) is already converging them,
// and a mid-flight "skew" is just replication lag.
func (s *Service) scheduleSkewRepair(key uint64) {
	if s.unsettled[key] > 0 {
		return
	}
	s.repairLagging(key)
}

// repairLagging enqueues a repair for every owner of key lagging the
// winning version.
func (s *Service) repairLagging(key uint64) {
	s.laggingOwners(key, func(sh *serviceShard, winVer uint64) { s.queueRepair(sh, key, winVer) })
}

// ---- the repair queue ----

// queueRepair records that sh's replica of key lags seq and arms the
// queue's tick, reporting whether a new record was created (a push for
// an already-pending pair merges instead). The write path calls it on
// capacity rejections — the fix for rejected owners silently staying
// stale — and the probe and sweep paths on observed skew.
func (s *Service) queueRepair(sh *serviceShard, key, seq uint64) bool {
	if !s.repairEnabled() {
		return false
	}
	fresh := s.repq.Push(sh.id, key, seq)
	if fresh {
		sh.stats.RepairsQueued++
		if s.tr.Enabled() {
			s.tr.Instant("coordinator", sh.trRepair, 0)
		}
	}
	// Fresh evidence of divergence: make the sweeper run a full clean
	// rotation before going back to sleep.
	s.aeCleanRun = 0
	s.armRepair()
	s.armAntiEntropy()
	return fresh
}

// armRepair schedules the next repair tick unless one is pending or
// the queue is empty — activity-armed like the migrator, so an idle
// converged service leaves the engine drainable.
func (s *Service) armRepair() {
	if s.repairArmed || s.repq.Len() == 0 {
		return
	}
	s.repairArmed = true
	s.tb.clu.Eng.After(s.cfg.repairEvery, func() {
		s.repairArmed = false
		s.repairTick()
	})
}

// repairTick applies a batch of due records and re-arms while work
// remains (records under backoff keep the tick alive until they retry
// or exhaust their attempts).
func (s *Service) repairTick() {
	for _, r := range s.repq.Due(s.tb.Now(), repairBatch) {
		s.applyRepair(r)
	}
	s.armRepair()
}

// requeueRepair puts a failed record back under exponential backoff,
// dropping it after repairMaxAttempts.
func (s *Service) requeueRepair(sh *serviceShard, r *repair.Record) {
	r.Attempts++
	if r.Attempts >= repairMaxAttempts {
		sh.stats.RepairsDropped++
		return
	}
	s.repq.Requeue(r, s.tb.Now()+s.repairBackoff(r.Attempts))
	s.armRepair()
}

// applyRepair rolls one owner forward to the winning state of its key
// through converge — the record is a claim that someone lags, not a
// payload — keeping only the repair queue's own counters and retry
// policy.
func (s *Service) applyRepair(r *repair.Record) {
	sh, ok := s.shards[r.Owner]
	if !ok {
		return
	}
	if s.unsettled[r.Key] > 0 {
		// A write is in flight: its own fan-out converges the owners
		// (or queues hints/repairs of its own). Try again later.
		s.requeueRepair(sh, r)
		return
	}
	s.converge(sh, r.Key, func(out convergeOutcome) {
		switch out {
		case convergeCaughtUp:
			sh.stats.RepairsSuperseded++
		case convergeApplied:
			sh.stats.RepairsApplied++
		default:
			s.requeueRepair(sh, r)
		}
	})
}

// convergeOutcome is how one converge call resolved.
type convergeOutcome int

const (
	// convergeCaughtUp: nothing to do — the owner already holds the
	// winning state (a newer write, a drained hint, or an earlier
	// converge landed first), or the winner's copy vanished under a
	// racing delete whose tombstone will win the next derivation.
	convergeCaughtUp convergeOutcome = iota
	convergeApplied                  // the owner was rolled forward
	convergeFailed                   // unreachable, rejecting, or unreadable: the caller's retry policy decides
)

// converge rolls owner sh forward to the winning state of key — the one
// loop behind the repair queue and the resharding migrator. The winning
// state is re-derived under the owner's per-key write slot, not taken
// from whatever evidence prompted the call, so a converge can never
// undo a write that landed while it was queued: roll forward, never
// roll back. The winner's bytes are read at that moment and applied
// through the ordinary owner apply path (fabric chain or host RPC,
// modeled cost and all). done runs exactly once, before the slot is
// released.
func (s *Service) converge(sh *serviceShard, key uint64, done func(convergeOutcome)) {
	s.withKeySlot(sh, key, func() {
		finish := func(out convergeOutcome) {
			done(out)
			s.setNext(sh, key)
		}
		winVer, winDel, winner, has := s.winningState(key)
		cur, _, curOK := s.ownerState(sh, key)
		if !has || winVer == 0 || (curOK && cur >= winVer) {
			finish(convergeCaughtUp)
			return
		}
		m := &mutation{key: key, seq: winVer, del: winDel}
		if !winDel {
			// Capture the winning bytes under the slot: the winner's table
			// cannot be repointed for this key while we hold it only if the
			// winner IS this shard — for cross-owner reads the callers keep
			// racing writes out (the repair queue defers while the key is
			// unsettled; a migration copy losing the race re-derives a
			// newer winner next time).
			va, vl, live := winner.table.table.Lookup(key)
			if !live {
				finish(convergeCaughtUp)
				return
			}
			val, err := winner.srv.node.Mem.Read(va, vl)
			if err != nil {
				finish(convergeFailed)
				return
			}
			m.val = val
		}
		s.ownerApplyNow(sh, m, 0, func(st ownerWriteStatus) {
			if st != ownerApplied {
				finish(convergeFailed)
				return
			}
			s.noteOwnerApplied(sh, m)
			// A value cached from the stale owner before this converge
			// (legal while the write settled, or read from a pre-change
			// owner) must not outlive convergence — bump the epoch so
			// in-flight gets cannot re-admit it either.
			if s.cache != nil {
				s.setEpoch[key]++
				delete(s.cache, key)
			}
			finish(convergeApplied)
		})
	})
}

// ---- anti-entropy ----

// armAntiEntropy schedules one sweep tick AntiEntropyEvery from now,
// unless one is already pending — armed by write, delete, repair and
// recovery activity rather than free-running, exactly like the
// repair queue, so an idle service leaves the simulation drainable. Once
// armed, sweeps keep rotating until a full clean rotation (every shard
// swept with no divergence found) and then go back to sleep.
func (s *Service) armAntiEntropy() {
	if s.cfg.AntiEntropyEvery <= 0 || s.aeArmed || !s.repairEnabled() {
		return
	}
	s.aeArmed = true
	s.tb.clu.Eng.After(s.cfg.AntiEntropyEvery, func() {
		s.aeArmed = false
		sh := s.order[s.aeCursor%len(s.order)]
		s.aeCursor++
		s.sweepShard(sh)
	})
}

// aeBins is one table scan's residents binned for a sweep: per bin an
// order-independent digest and the bin's (key, version) entries in
// bucket order, as a list threaded through one flat slice. The service
// keeps two, the sweep root's and the partner's, and resets them per
// scan, so a sweep allocates only while a scan is larger than any
// before it.
type aeBins struct {
	dig        []repair.Digest
	head, tail []int32 // per bin: first and last entry (-1: the bin is empty)
	ents       []aeEntry
}

// aeEntry is one resident (key, version) pair; next is the bin's
// following entry (-1: the last).
type aeEntry struct {
	key, ver uint64
	next     int32
}

// reset empties the bins and sizes them for n.
func (b *aeBins) reset(n int) {
	if cap(b.dig) < n {
		b.dig, b.head, b.tail = make([]repair.Digest, n), make([]int32, n), make([]int32, n)
	}
	b.dig, b.head, b.tail = b.dig[:n], b.head[:n], b.tail[:n]
	clear(b.dig)
	for i := range b.head {
		b.head[i], b.tail[i] = -1, -1
	}
	b.ents = b.ents[:0]
}

func (b *aeBins) add(bin int, key, ver uint64) {
	b.dig[bin].Add(key, ver)
	at := int32(len(b.ents))
	b.ents = append(b.ents, aeEntry{key: key, ver: ver, next: -1})
	if last := b.tail[bin]; last >= 0 {
		b.ents[last].next = at
	} else {
		b.head[bin] = at
	}
	b.tail[bin] = at
}

// aeFound is one divergence a sweep found: owner lags key at seq.
type aeFound struct {
	owner *serviceShard
	key   uint64
	seq   uint64
}

// aeScan walks sh's table ONCE and bins its residents by segment.
// Segment identity is the key's PRIMARY hash bucket divided into segs
// ranges — identical geometry on every shard (tables share bucket counts
// and hash functions), so the same key bins to the same segment
// everywhere no matter which candidate bucket or neighborhood slot it
// occupies. With only nil (the sweep's root) an entry lands in one bin
// per other owner of its key, bin = owner's ring position * segs +
// segment; otherwise (a partner) only entries co-owned by only are
// binned, bin = segment — the pair being diffed is all the sweep reads
// of a partner's scan.
func (s *Service) aeScan(sh *serviceShard, segs int, only *serviceShard, b *aeBins) {
	t := sh.table.table
	n := t.NumBuckets()
	segW := (n + uint64(segs) - 1) / uint64(segs)
	if only == nil {
		b.reset(len(s.ringShards) * segs)
	} else {
		b.reset(segs)
	}
	for i := uint64(0); i < n; i++ {
		key, _, _, ok := t.EntryAt(i)
		if !ok {
			continue
		}
		seg := int(t.Hash(key, 0) / segW)
		owners := s.ownerNodes(key)
		if only != nil {
			if slices.Contains(owners, only.ringIdx) {
				b.add(seg, key, t.VersionAt(i))
			}
			continue
		}
		ver := t.VersionAt(i)
		for _, ni := range owners {
			if ni != sh.ringIdx {
				b.add(int(ni)*segs+seg, key, ver)
			}
		}
	}
}

// sweepShard runs one anti-entropy pass rooted at sh: against every
// co-owning shard ordered AFTER it (each unordered pair is diffed by
// exactly one root per rotation; the clean-rotation arming guarantees
// every pair is still covered before sweeps go idle), diff per-segment
// digests and compare versions key by key inside flagged segments,
// enqueueing repairs for whichever side lags. The root's table is
// scanned once per sweep, each partner's once for the pair. The pass is
// charged aeSegmentDigestLat per digest pair compared by deferring its
// enqueues, modeling the host scan time; the repairs themselves then
// pay the ordinary owner write costs through the queue.
func (s *Service) sweepShard(sh *serviceShard) {
	if sh.hostDown || s.draining(sh.id) {
		// No CPU to scan this shard — but a down shard must not halt
		// the rotation for the healthy pairs behind it in the cursor
		// order. Its own pairs are deferred, not dirty: recovery arms a
		// fresh full rotation for them (OnUp), so count this slot as
		// swept and keep rotating.
		s.aeCleanRun++
		if s.aeCleanRun < len(s.order) {
			s.armAntiEntropy()
		}
		return
	}
	s.aePasses++
	segs := s.cfg.AntiEntropySegments
	segsCompared := 0
	// The findings wait out the digest charge in the service's scratch;
	// a sweep that starts while an earlier one is still being charged
	// (AntiEntropyEvery shorter than a charge) gets a list of its own.
	var found []aeFound
	if !s.aeSettling {
		found = s.aeFound[:0]
	}
	root, part := &s.aeRoot, &s.aePartner
	s.aeScan(sh, segs, nil, root)
	for _, partner := range s.order {
		if partner == sh || partner.hostDown || partner.id <= sh.id || s.draining(partner.id) {
			continue
		}
		s.aeScan(partner, segs, sh, part)
		base := int(partner.ringIdx) * segs
		// Segments either side populated, in order.
		for g := 0; g < segs; g++ {
			if root.head[base+g] < 0 && part.head[g] < 0 {
				continue
			}
			segsCompared++
			if root.dig[base+g] == part.dig[g] {
				continue
			}
			s.aeSegsDiffed++
			// Per-key walk of the flagged segment: the root's keys then
			// the partner's, dedup, compare owner states.
			clear(s.aeSeen)
			found = s.aeWalk(sh, partner, root, root.head[base+g], found)
			found = s.aeWalk(sh, partner, part, part.head[g], found)
		}
	}
	// Charge the digest scan, then enqueue what it found.
	charge := Duration(segsCompared) * aeSegmentDigestLat
	if s.aeSettling {
		s.tb.clu.Eng.After(charge, func() { s.aeSettle(found) })
		return
	}
	s.aeFound, s.aeSettling = found, true
	s.tb.clu.Eng.After(charge, s.aeSettleFn)
}

// aeWalk compares the root's and the partner's state of every key of
// one bin (b's list from at) not seen yet in this segment, appending
// whichever side lags to found.
func (s *Service) aeWalk(sh, partner *serviceShard, b *aeBins, at int32, found []aeFound) []aeFound {
	for ; at >= 0; at = b.ents[at].next {
		key := b.ents[at].key
		if _, dup := s.aeSeen[key]; dup {
			continue
		}
		s.aeSeen[key] = struct{}{}
		if s.unsettled[key] > 0 {
			continue // an in-flight write explains the skew
		}
		s.aeKeysChecked++
		va, _, aok := s.ownerState(sh, key)
		vb, _, bok := s.ownerState(partner, key)
		switch {
		case aok && (!bok || vb < va):
			found = append(found, aeFound{owner: partner, key: key, seq: va})
		case bok && (!aok || va < vb):
			found = append(found, aeFound{owner: sh, key: key, seq: vb})
		}
	}
	return found
}

// aeSettled is the digest charge of the sweep that owns the service's
// findings scratch.
func (s *Service) aeSettled() {
	s.aeSettling = false
	s.aeSettle(s.aeFound)
}

// aeSettle enqueues what a sweep found once its digest charge has
// elapsed. A divergent sweep resets the clean-rotation counter; sweeps
// continue until every shard has been swept clean in a row, then go idle
// until the next write, repair or recovery re-arms them.
func (s *Service) aeSettle(found []aeFound) {
	if len(found) > 0 {
		s.aeCleanRun = 0
	} else {
		s.aeCleanRun++
	}
	for _, f := range found {
		// Count only records this sweep actually created: re-finding
		// a key whose repair is already queued (in backoff, say) is
		// not a new discovery.
		if s.queueRepair(f.owner, f.key, f.seq) {
			f.owner.stats.AERepairs++
		}
	}
	if s.aeCleanRun < len(s.order) {
		s.armAntiEntropy()
	}
}
