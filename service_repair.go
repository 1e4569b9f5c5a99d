package redn

import (
	"slices"

	"repro/internal/extent"
	"repro/internal/hopscotch"
	"repro/internal/sim"
)

// The replica repair subsystem.
//
// Replicas diverge three ways the write path cannot fully heal:
// capacity rejections (an owner's table refused the insert — the old
// handoff machinery deliberately dropped those), lost hints (bounded
// hint queues overflow in any Dynamo-style system; DropHints models
// it), and crash windows that outlive the hint's owner. Versions close
// the gap: every set stages the coordinator's quorum sequence in its
// value's [version, length] header (internal/extent), which the bucket's
// pointer reaches, and every owner records the newest delete sequence
// it applied (ownerKey.tomb), so "which replica is newest" becomes an
// 8-byte comparison (ownerState) any chain can make.
//
// Three mechanisms converge on those versions:
//
//  1. Read-repair (maybeReadRepair): every ProbeEvery-th replicated hit
//     issues a version probe (Client.probeAsyncTarget, on the set
//     pipeline of the partner's next connection) — two one-sided READs
//     of the bucket's key word and pointer and the value header before
//     the extent the coordinator expects it to name, which the client
//     checks (no managed fetch on the partner, no host RPC) —
//     against one rotating other owner. A version mismatch (or a probe
//     miss explained by the partner's table) enqueues a repair. The
//     common no-skew case costs the host nothing at all.
//
//  2. Repair records (queueRepair): a repair is the floor-only kind of
//     the one record an owner's missing write has (lack, on its
//     ownerKey), so it merges with the key's hint by seq and waits in
//     the shard's drain queue for the same drain lanes. Its replay
//     re-derives the winning state among the key's owners at apply
//     time — newest version wins, value or tombstone — and rolls the
//     laggard FORWARD through the ordinary owner write path (fabric
//     claim chain or host RPC, modeled cost and all), never backward: a
//     floor is a claim that someone lags, not a payload. An unreachable
//     owner keeps it until the owner proves live again. One that cannot
//     land yet (refused, or its key's write in flight) parks for the
//     retry tick, under backoff; its last try drops it, and a later
//     sweep or probe re-creates it when the world changes. The
//     resharding migrator's copies are such records too
//     (service_reshard.go): one stands wherever an owner lags, whatever
//     the replica count; Replicas > 1 && !NoRepair gates only the
//     discoverers — probes, sweeps and the write path's capacity
//     rejections.
//
//  3. Anti-entropy (sweepShard): ticks rotate across shards. A sweep
//     scans the shard's table once, bins resident (key, version) pairs
//     into AntiEntropySegments Merkle-style leaf digests per co-owner
//     (order-independent sums, see digest), scans each
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

// defaultAntiEntropySegments is the per-shard digest segment count.
const defaultAntiEntropySegments = 64

// aeSegmentDigestLat models computing and comparing one segment digest
// pair during an anti-entropy sweep (a linear scan of the segment's
// buckets on both hosts, amortized).
const aeSegmentDigestLat = 300 * sim.Nanosecond

// repairEnabled reports whether the repair subsystem's discoverers —
// read-repair, anti-entropy and the write path's capacity-rejection
// floor — run: divergence between replicas needs at least two.
func (s *Service) repairEnabled() bool { return s.cfg.Replicas > 1 && !s.cfg.NoRepair }

// ownerState reports the newest versioned state owner holds for key:
// the version its resident value's header carries, or the newest
// tombstone the coordinator recorded for it (del=true), whichever is
// newer. ok=false means the owner holds no versioned state at all — it
// missed every write to the key.
func (s *Service) ownerState(sh *serviceShard, key uint64) (ver uint64, del, ok bool) {
	tv := sh.keys[key].tomb
	if _, v, _, resident := sh.stored(key); resident && v >= tv {
		return v, false, true
	}
	return tv, tv != 0, tv != 0
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
// Hints are dropped WITHOUT leaving repair records, and repair records
// stand: the point of the model is that the repair subsystem must
// rediscover the divergence on its own, through probes or sweeps.
// Returns the number dropped.
func (s *Service) DropHints() int {
	n := 0
	for _, sh := range s.order {
		for _, k := range sh.sortedLackKeys(nil, false, false) {
			if l := sh.lackAt(k); l.op != nil {
				s.retire(sh, k, l, ownerRejected)
				n++
			}
		}
	}
	return n
}

// ---- read-repair ----

// maybeReadRepair runs on every replicated hit: every ProbeEvery-th
// one reads one rotating other owner's value header with a version
// probe and enqueues a repair on skew. g is the get that hit, served
// the owner that answered it. It reports whether a probe went
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
	bucket, ext, fabricOK := residentBucket(partner.table.table, LookupSeq, key)
	if !fabricOK {
		// The key is not at a NIC-addressable bucket on the partner
		// (absent, tombstoned, or spilled): the probe cannot ask,
		// so compare coordinator-side — the same view the write router
		// computes claims from.
		s.compareVersions(partner, key, servedVer)
		return false
	}
	s.stats.Probes++
	// The probe takes the partner's next connection, as a get attempt
	// does: it rides that connection's set pipeline, and aimed at the
	// one the key's writes use it would queue behind them.
	g.partner, g.pcli, g.servedVer = partner, partner.clients[partner.rr%len(partner.clients)], servedVer
	partner.rr++
	g.pop = s.tr.OpBegin("probe", key)
	g.next = getProbe
	g.pcli.probeAsyncTarget(key, bucket, ext, g.pop, g.probeFn)
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
	if r := g.pcli.lastReceipt(pipeSet); r != nil {
		s.prov.Record(r)
	}
	s.tr.OpEnd(g.pop, "probe")
	switch {
	case ok:
		partner.markLive()
		if ver != g.servedVer {
			s.stats.ProbeSkews++
			s.scheduleSkewRepair(key)
		}
	case g.pcli.lastExecuted(pipeSet):
		// The chain ran and the bucket held another word: it moved
		// between computing the target and the probe landing (a
		// racing write or relocation). Fall back to the host view.
		s.compareVersions(partner, key, g.servedVer)
	}
	// Never executed: dead NIC — the suspect machinery owns that.
	g.release()
}

// compareVersions is the host-side fallback comparison for keys the
// probe cannot interrogate on the partner.
func (s *Service) compareVersions(partner *serviceShard, key, servedVer uint64) {
	pv, _, ok := s.ownerState(partner, key)
	if !ok && servedVer == 0 {
		return // neither side holds versioned state
	}
	if !ok || pv != servedVer {
		s.stats.ProbeSkews++
		s.scheduleSkewRepair(key)
	}
}

// scheduleSkewRepair enqueues repairs for every owner of key lagging
// the winning version. Keys with writes still in flight are skipped:
// the write's own fan-out (or its hint) is already converging them,
// and a mid-flight "skew" is just replication lag.
func (s *Service) scheduleSkewRepair(key uint64) {
	if !s.settled(key) {
		return
	}
	s.laggingOwners(key, func(sh *serviceShard, winVer uint64) { s.queueRepair(sh, key, winVer) })
}

// ---- repair records ----

// pendingRecords counts the hints and the repairs standing on the
// service's shards.
func (s *Service) pendingRecords() (hints, repairs int) {
	for _, sh := range s.order {
		hints, repairs = hints+sh.nHints, repairs+sh.nRepairs
	}
	return hints, repairs
}

// queueRepair records that sh's replica of key lags seq (stand), reporting
// whether a new record stands. A new one joins the shard's drain queue
// at once, so it is applied while the owner is reachable. The write path
// calls it on capacity rejections — the fix for rejected owners silently
// staying stale — the probe and sweep paths on observed skew, and the
// resharding migrator for every lagging post-change owner.
func (s *Service) queueRepair(sh *serviceShard, key, seq uint64) bool {
	if s.shards[sh.id] != sh {
		return false
	}
	fresh := s.stand(sh, key, seq, nil)
	if fresh {
		if s.tr.Enabled() {
			s.tr.Instant("coordinator", sh.trRepair, 0)
		}
		if l := sh.lackAt(key); !l.queued {
			l.queued = true
			sh.drainQ = append(sh.drainQ, key)
		}
		s.pumpDrain(sh)
	}
	// Fresh evidence of divergence: make the sweeper run a full clean
	// rotation before going back to sleep.
	s.aeCleanRun = 0
	s.armAntiEntropy()
	return fresh
}

// A parked repair waits repairRetry for the retry tick, doubled by each
// further try, and at most repairMaxTries tries, so a permanently full
// owner cannot keep the tick alive.
const (
	repairRetry    = 100 * sim.Microsecond
	repairMaxTries = 8
)

// park holds key's repair l, whose replay could not land, for the retry
// tick: it stands off the drain queue, where queueRepair merges into it
// and drainHints passes it over. Its last try drops it, counted.
func (s *Service) park(sh *serviceShard, key uint64, l *lack) {
	if sh.lackAt(key) != l {
		return
	}
	l.tries++
	switch {
	case l.tries == repairMaxTries:
		s.retire(sh, key, l, ownerRejected)
	case !s.retryArmed:
		s.retryArmed = true
		s.tb.clu.Eng.After(repairRetry<<(l.tries-1), s.retryFn)
	}
}

// retryTick puts every shard's parked repairs back on its drain queue.
func (s *Service) retryTick() {
	s.retryArmed = false
	for _, sh := range s.order {
		s.drainHints(sh, true)
	}
}

// derive re-derives a repair replay's winning state into its own
// mutation when the run holds the owner's per-key write slot — not from
// whatever evidence stood the record, so a replay can never undo a
// write that landed while it was queued: roll forward, never roll back.
// It reports whether there is anything to apply; when there is not, end
// is how the run ends.
func (r *ownerRun) derive() (end ownerWriteStatus, apply bool) {
	s, sh, key := r.s, r.sh, r.mut.key
	winVer, winDel, winner, has := s.winningState(key)
	cur, _, curOK := s.ownerState(sh, key)
	if !has || winVer == 0 || (curOK && cur >= winVer) {
		return ownerCaughtUp, false
	}
	r.mut.seq, r.mut.del, r.mut.val = winVer, winDel, r.mut.val[:0]
	if winDel {
		return 0, true
	}
	// Capture the winning bytes under the slot. Only a winner that IS
	// this shard cannot be repointed meanwhile; for cross-owner reads
	// granted keeps racing writes out: a repair that meets an unsettled
	// key parks.
	va, _, vl, live := winner.stored(key)
	if !live {
		return ownerCaughtUp, false
	}
	r.mut.val = slices.Grow(r.mut.val, int(vl))[:vl]
	if err := winner.srv.node.Mem.ReadInto(va, r.mut.val); err != nil {
		return ownerUnreachable, false
	}
	return 0, true
}

// rolledForward is the bookkeeping a repair replay that applied m owes. A
// value cached from the stale owner before it (legal while the write
// settled, or read from a pre-change owner) must not outlive
// convergence — the epoch bump keeps in-flight gets from re-admitting
// it either.
func (s *Service) rolledForward(sh *serviceShard, m *mutation) {
	s.noteOwnerApplied(sh, m)
	if s.cache != nil {
		rec := s.keys[m.key]
		rec.epoch++
		s.keys[m.key] = rec
		delete(s.cache, m.key)
	}
}

// ---- anti-entropy ----

// armAntiEntropy schedules one sweep tick AntiEntropyEvery from now,
// unless one is already pending — armed by write, delete, repair and
// recovery activity rather than free-running, so an idle service
// leaves the simulation drainable. Once
// armed, sweeps keep rotating until a full clean rotation (every shard
// swept with no divergence found) and then go back to sleep.
func (s *Service) armAntiEntropy() {
	if s.cfg.AntiEntropyEvery <= 0 || s.aeArmed || !s.repairEnabled() {
		return
	}
	s.aeArmed = true
	s.tb.clu.Eng.After(s.cfg.AntiEntropyEvery, s.aeTickFn)
}

// aeTick is an armed anti-entropy tick: it sweeps the next shard in
// rotation.
func (s *Service) aeTick() {
	s.aeArmed = false
	sh := s.order[s.aeCursor%len(s.order)]
	s.aeCursor++
	s.sweepShard(sh)
}

// digest is an order-independent accumulator over (key, version) pairs,
// the leaf level of a Merkle tree — one digest per bucket segment — and
// all the sweeper needs: equal digests skip the segment, unequal ones
// fall back to a per-key walk. Contributions sum modulo 2^64, so two
// replicas scanning their tables in different bucket orders produce
// identical digests exactly when they hold identical (key, version)
// sets.
type digest uint64

// add folds one (key, version) pair into the digest, hashed by a
// splitmix64-style avalanche over both words, so a single changed
// version flips about half the digest bits.
func (d *digest) add(key, ver uint64) {
	x := key*0x9E3779B97F4A7C15 ^ ver
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	*d += digest(x)
}

// aeBins is one table scan's residents binned for a sweep: per bin an
// order-independent digest and the bin's (key, version) entries in
// bucket order, as a list threaded through one flat slice. The service
// keeps two, the sweep root's and the partner's, and resets them per
// scan, so a sweep allocates only while a scan is larger than any
// before it.
type aeBins struct {
	dig        []digest
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
		b.dig, b.head, b.tail = make([]digest, n), make([]int32, n), make([]int32, n)
	}
	b.dig, b.head, b.tail = b.dig[:n], b.head[:n], b.tail[:n]
	clear(b.dig)
	for i := range b.head {
		b.head[i], b.tail[i] = -1, -1
	}
	b.ents = b.ents[:0]
}

func (b *aeBins) add(bin int, key, ver uint64) {
	b.dig[bin].add(key, ver)
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
		key, va, _, ok := t.EntryAt(i)
		if !ok {
			continue
		}
		seg := int(t.Hash(key, 0) / segW)
		owners := s.ownerNodes(key)
		if only != nil {
			if slices.Contains(owners, only.ringIdx) {
				ver, _ := extent.Head(sh.srv.node.Mem, va)
				b.add(seg, key, ver)
			}
			continue
		}
		ver, _ := extent.Head(sh.srv.node.Mem, va)
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
// pay the ordinary owner write costs on the drain lanes.
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
	s.stats.AEPasses++
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
			s.stats.AESegsDiffed++
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
		if !s.settled(key) {
			continue // an in-flight write explains the skew
		}
		s.stats.AEKeysChecked++
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
		// a key whose record already stands (waiting for its owner,
		// say) is not a new discovery.
		if s.queueRepair(f.owner, f.key, f.seq) {
			f.owner.stats.AERepairs++
		}
	}
	if s.aeCleanRun < len(s.order) {
		s.armAntiEntropy()
	}
}
