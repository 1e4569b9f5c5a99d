package redn

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/hopscotch"
	"repro/internal/shard"
	"repro/internal/sim"
)

// Live resharding: elastic membership under load.
//
// AddShard and DrainShard change the ring while the service keeps
// serving. Changing consistent-hash membership moves ~1/N of the
// keyspace; everything here exists so that window has zero client-
// visible cost:
//
//   - An ownership epoch. Each membership change snapshots the ring
//     BEFORE the change (shard.Ring.Clone) and bumps the service's
//     migration epoch. A key's pre-change owners come from the
//     snapshot, its post-change owners from the live ring; the diff of
//     the two owner sets is exactly the moving keyspace.
//
//   - A background migrator. Moving keys are binned into bucket
//     segments (the anti-entropy sweeper's geometry: the key's primary
//     hash bucket divided into migrateSegments ranges — identical on
//     every shard). Each MigrateEvery tick copies a batch of segments:
//     for each moving key the winning state — newest version across
//     old AND new owners, value or tombstone — is written to every
//     lagging post-change owner through the ordinary owner write path,
//     i.e. the same core.SetOffload claim chains and host RPC
//     fallbacks every client write pays. Migration traffic has real
//     modeled fabric cost; nothing teleports.
//
//   - Dual-read / dual-write during handover. While a key's segment is
//     unsealed, reads try the post-change owners first and fall back
//     to the pre-change owners (no get goes dark before its copy
//     lands), and writes fan out to BOTH owner sets — with the quorum
//     counted over the post-change owners exclusively, the pre-change
//     legs settling without voting, so no acked write can be stranded
//     on a shard that is leaving. Sealing a segment turns both off for
//     its keys; a join then purges ghost residents from owners that
//     lost them, while a drain removes the whole departing shard at
//     the end.
//
//   - Hint redirection. Handoff hints aimed at a draining shard are
//     redirected to the key's new primary (at drain start, at finish,
//     and for hints queued mid-drain), so an acked write parked in a
//     hint cannot leave with the shard.
//
//   - Cache fencing. The hot-value cache is cleared and its generation
//     bumped when a migration starts and when it finishes; a get that
//     was in flight across either boundary cannot admit what it read
//     under the old routing (maybeCache checks the generation).
//
//   - The repair subsystem as safety net. winningState widens to the
//     union of old and new owners during a migration, so a copy the
//     migrator abandons (migrateMaxAttempts of transient failure hands
//     it to the repair queue) still converges through the same
//     roll-forward machinery that heals crash divergence.

// defaultMigrateEvery is the migrator's tick period.
const defaultMigrateEvery = 20 * sim.Microsecond

// defaultMigrateBatch is how many bucket segments one tick starts.
const defaultMigrateBatch = 4

// migrateSegments divides the keyspace (by primary hash bucket, the
// anti-entropy sweeper's geometry) into this many segments for
// migration sealing: dual-read/dual-write stops per segment as it
// seals, not in one global flag flip at the end.
const migrateSegments = 64

// migrateMaxAttempts bounds per-key copy attempts before the migrator
// hands the key to the repair queue and seals over it.
const migrateMaxAttempts = 3

// ErrMigrationInProgress reports an AddShard/DrainShard while an
// earlier resharding is still migrating: one membership change at a
// time keeps the before/after epoch pair well defined. Callers retry
// after the active migration finishes.
var ErrMigrationInProgress = errors.New("redn: a resharding migration is already in progress")

// ErrLastShard reports a DrainShard that would empty the ring — the
// typed error the empty-ring lookup fix surfaces at the service layer
// instead of a simulation-killing panic.
var ErrLastShard = errors.New("redn: cannot drain the last shard")

// migration is the state of one live resharding: the before-change
// ring snapshot, the moving keys binned into bucket segments, and the
// seal bitmap that retires dual-read/dual-write per segment.
type migration struct {
	epoch    uint64
	join     bool   // true: target is arriving; false: target is leaving
	target   string // the shard joining or draining
	oldRing  *shard.Ring
	replicas int
	started  sim.Time

	geom *hopscotch.Table // hash geometry for segment binning (shared by every shard)
	segW uint64

	segKeys  map[uint64][]uint64 // segment -> moving keys, each list sorted
	pending  []uint64            // unstarted segments, sorted
	inFlight int                 // segments copying but not yet sealed
	sealed   map[uint64]bool
	sealedN  int
	liveSegs int // segments that had keys to move
	keyCount int // distinct moving keys
}

// MigrationSummary records one completed resharding.
type MigrationSummary struct {
	Epoch    uint64
	Join     bool
	Target   string
	Started  sim.Time
	Finished sim.Time
	Segments int // bucket segments that had keys to move
	Keys     int // distinct moving keys
}

func (m *migration) segOf(key uint64) uint64 { return m.geom.Hash(key, 0) / m.segW }

// keyUnsealed reports whether key is still in its handover window:
// its segment has keys to move and has not sealed. Keys in segments
// with nothing moving were never dual-routed at all.
func (m *migration) keyUnsealed(key uint64) bool {
	seg := m.segOf(key)
	if m.sealed[seg] {
		return false
	}
	_, moving := m.segKeys[seg]
	return moving
}

// oldOwners returns key's replica owners under the pre-change ring.
func (m *migration) oldOwners(key uint64) []string {
	ids, err := m.oldRing.LookupN(key, m.replicas)
	if err != nil {
		return nil
	}
	return ids
}

// resharding reports whether a migration is active.
func (s *Service) resharding() bool { return s.mig != nil }

// Migrations returns the completed-resharding log.
func (s *Service) Migrations() []MigrationSummary {
	return append([]MigrationSummary(nil), s.migLog...)
}

// migratingBuckets returns the active migration's unsealed bucket
// segment count (0 when membership is stable) — the drain-to-zero
// gauge the resharding timeline plots.
func (s *Service) migratingBuckets() int {
	if s.mig == nil {
		return 0
	}
	return s.mig.liveSegs - s.mig.sealedN
}

// draining reports whether id is the target of an active drain.
func (s *Service) draining(id string) bool {
	return s.mig != nil && !s.mig.join && s.mig.target == id
}

// isOwner reports whether id is one of key's current replica owners.
func (s *Service) isOwner(id string, key uint64) bool {
	for _, o := range s.owners(key) {
		if o == id {
			return true
		}
	}
	return false
}

// stateOwners is the owner set repair comparisons run over: the
// current owners plus — during a resharding — the pre-change owners
// still in the service, whose copies may hold a moving key's newest
// state.
func (s *Service) stateOwners(key uint64) []string {
	ids := s.owners(key)
	m := s.mig
	if m == nil {
		return ids
	}
	out := append([]string(nil), ids...)
	for _, id := range m.oldOwners(key) {
		dup := false
		for _, have := range out {
			if have == id {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if _, ok := s.shards[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// dualWriteExtras returns the pre-change owners a write must still
// reach while key's bucket segment is unsealed. They become auxiliary
// legs: counted for settlement only, never toward the quorum — the
// post-change owners alone decide the write's fate.
func (s *Service) dualWriteExtras(cur []int32, key uint64) []*serviceShard {
	m := s.mig
	if m == nil || !m.keyUnsealed(key) {
		return nil
	}
	var extra []*serviceShard
	for _, id := range m.oldOwners(key) {
		// A current owner is on the ring at one of cur's positions; a
		// draining target is off it (ringIdx -1).
		if sh, ok := s.shards[id]; ok && !slices.Contains(cur, sh.ringIdx) {
			extra = append(extra, sh)
		}
	}
	return extra
}

// redirectTarget picks the shard a hint bound for from should go to
// instead: the key's first current owner that is not from.
func (s *Service) redirectTarget(key uint64, from *serviceShard) *serviceShard {
	for _, id := range s.owners(key) {
		if to, ok := s.shards[id]; ok && to != from {
			return to
		}
	}
	return nil
}

// bumpCacheGen fences the hot-value cache across an ownership change:
// everything cached is dropped and in-flight gets lose their admission
// rights (maybeCache compares generations).
func (s *Service) bumpCacheGen() {
	s.cacheGen++
	for k := range s.cache {
		delete(s.cache, k)
	}
}

// AddShard joins a new server shard to the running service and starts
// migrating the keyspace it now owns. Returns ErrMigrationInProgress
// while an earlier resharding is still settling.
func (s *Service) AddShard(id string) error {
	if s.mig != nil {
		return ErrMigrationInProgress
	}
	if _, exists := s.shards[id]; exists {
		return fmt.Errorf("redn: shard %q already exists", id)
	}
	old := s.ring.Clone()
	sh := s.buildShard(id)
	if err := s.ring.AddNode(id); err != nil {
		return err
	}
	s.shards[id] = sh
	s.order = append(s.order, sh)
	s.ringChanged()
	s.startMigration(old, id, true)
	return nil
}

// DrainShard removes a shard from the ring and migrates every key it
// owned to the new owners before tearing it down. The shard keeps
// serving dual reads and dual writes until its last segment seals, so
// no get goes dark and no acked write is lost. Typed refusals: the
// last shard (ErrLastShard), a drain below the write quorum, and a
// second membership change mid-migration (ErrMigrationInProgress).
func (s *Service) DrainShard(id string) error {
	if s.mig != nil {
		return ErrMigrationInProgress
	}
	sh, ok := s.shards[id]
	if !ok {
		return fmt.Errorf("redn: unknown shard %q", id)
	}
	if len(s.order) == 1 {
		return ErrLastShard
	}
	if len(s.order)-1 < s.cfg.WriteQuorum {
		return fmt.Errorf("redn: draining %q would leave %d shards, below the write quorum W=%d",
			id, len(s.order)-1, s.cfg.WriteQuorum)
	}
	old := s.ring.Clone()
	if err := s.ring.RemoveNode(id); err != nil {
		return err
	}
	s.ringChanged()
	s.startMigration(old, id, false)
	// Hints already parked on the departing shard move to the new
	// owners now; hints queued mid-drain redirect at queueHint, and
	// finishMigration sweeps any stragglers.
	s.redirectHints(sh)
	return nil
}

// startMigration diffs the before/after rings over every key the
// service holds (resident or tombstoned), bins the movers into bucket
// segments, and arms the migrator.
func (s *Service) startMigration(old *shard.Ring, target string, join bool) {
	s.migEpoch++
	geom := s.order[0].table.table
	n := geom.NumBuckets()
	segs := uint64(migrateSegments)
	m := &migration{epoch: s.migEpoch, join: join, target: target, oldRing: old,
		replicas: s.cfg.Replicas, started: s.tb.Now(), geom: geom,
		segW:    (n + segs - 1) / segs,
		segKeys: make(map[uint64][]uint64),
		sealed:  make(map[uint64]bool)}
	seen := make(map[uint64]bool)
	collect := func(key uint64) {
		if seen[key] {
			return
		}
		seen[key] = true
		if !s.ownershipChanged(m, key) {
			return
		}
		seg := m.segOf(key)
		m.segKeys[seg] = append(m.segKeys[seg], key)
		m.keyCount++
	}
	for _, sh := range s.order {
		t := sh.table.table
		nb := t.NumBuckets()
		for i := uint64(0); i < nb; i++ {
			if key, _, _, ok := t.EntryAt(i); ok {
				collect(key)
			}
		}
		// Tombstone-only state moves too: a key deleted at seq v must
		// arrive at its new owners AS deleted, or a stale replica could
		// resurrect it after the old tombstone holder leaves.
		tks := make([]uint64, 0, len(sh.tombVer))
		for k := range sh.tombVer {
			tks = append(tks, k)
		}
		sort.Slice(tks, func(i, j int) bool { return tks[i] < tks[j] })
		for _, k := range tks {
			collect(k)
		}
	}
	for seg, keys := range m.segKeys {
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		m.pending = append(m.pending, seg)
	}
	sort.Slice(m.pending, func(i, j int) bool { return m.pending[i] < m.pending[j] })
	m.liveSegs = len(m.pending)
	s.mig = m
	// Routing changed under every in-flight get: nothing read under the
	// old ownership may enter (or stay in) the hot-value cache.
	s.bumpCacheGen()
	if len(m.pending) == 0 {
		// Nothing to move (empty tables, or a change that shifted no
		// owned keys): the membership change completes immediately.
		s.finishMigration(m)
		return
	}
	s.armMigration()
}

// ownershipChanged reports whether key's replica owner SET differs
// between the snapshot and the live ring. Set comparison, not slice:
// a reordering within the same owners moves nothing.
func (s *Service) ownershipChanged(m *migration, key uint64) bool {
	newIDs := s.owners(key)
	oldIDs := m.oldOwners(key)
	if len(newIDs) != len(oldIDs) {
		return true
	}
	for _, id := range newIDs {
		found := false
		for _, o := range oldIDs {
			if o == id {
				found = true
				break
			}
		}
		if !found {
			return true
		}
	}
	return false
}

// armMigration schedules the next migrator tick unless one is pending
// or no segments remain — activity-armed like the compactor and the
// repair queue, so the engine stays drainable once sealing completes.
func (s *Service) armMigration() {
	m := s.mig
	if m == nil || s.migArmed || len(m.pending) == 0 {
		return
	}
	s.migArmed = true
	s.tb.clu.Eng.After(s.cfg.MigrateEvery, func() {
		s.migArmed = false
		s.migrateTick()
	})
}

// migrateTick starts copying a batch of segments.
func (s *Service) migrateTick() {
	m := s.mig
	if m == nil {
		return
	}
	s.sentinelKick()
	for i := 0; i < s.cfg.MigrateBatch && len(m.pending) > 0; i++ {
		seg := m.pending[0]
		m.pending = m.pending[1:]
		m.inFlight++
		s.migrateSegment(m, seg)
	}
	s.armMigration()
}

// migrateSegment copies every moving key in one segment, sealing it
// when the last copy resolves.
func (s *Service) migrateSegment(m *migration, seg uint64) {
	keys := m.segKeys[seg]
	left := len(keys)
	if left == 0 {
		s.sealSegment(m, seg)
		return
	}
	done := func() {
		left--
		if left == 0 {
			s.sealSegment(m, seg)
		}
	}
	for _, key := range keys {
		s.migrateKey(m, key, 0, done)
	}
}

// migrateKey converges one moving key onto its post-change owners:
// the winning state (newest version across old and new owners, value
// or tombstone) is copied to every new owner that lacks it. Transient
// failures retry up to migrateMaxAttempts; after that the key is
// handed to the repair queue — the convergence safety net, which keeps
// retrying under backoff long after the segment seals.
func (s *Service) migrateKey(m *migration, key uint64, attempt int, done func()) {
	if s.mig != m {
		done()
		return
	}
	// A key may still be unsettled here — a write mid-fan-out, or an op
	// wedged on a hint queued before the ownership change. Dual-write
	// only covers ops issued after the migration started; older fan-outs
	// never targeted the replacement owners, so the copy must proceed.
	// That is safe: converge re-derives the winning state under the
	// owner's per-key slot and never rolls a replica backward.
	var lagging []*serviceShard
	s.laggingOwners(key, func(sh *serviceShard, _ uint64) { lagging = append(lagging, sh) })
	if len(lagging) == 0 {
		s.migKeysSkipped++
		done()
		return
	}
	left := len(lagging)
	failed := false
	sub := func(ok bool) {
		if !ok {
			failed = true
		}
		if left--; left > 0 {
			return
		}
		if !failed {
			done()
			return
		}
		if attempt+1 < migrateMaxAttempts {
			// Transient trouble (a suspect window, a racing relocation):
			// retry the whole key after a tick.
			s.tb.clu.Eng.After(s.cfg.MigrateEvery, func() {
				s.migrateKey(m, key, attempt+1, done)
			})
			return
		}
		s.migCopyFails++
		s.repairLagging(key)
		done()
	}
	for _, sh := range lagging {
		s.migrateCopy(key, sh, sub)
	}
}

// migrateCopy rolls one post-change owner forward to its key's winning
// state through converge, at modeled fabric cost; re-derived under the
// owner's per-key slot, a copy can never undo a dual write that landed
// while it was queued. Caught up while queued (a dual write, a drained
// hint, or a repair landed first) is success, not a failure.
func (s *Service) migrateCopy(key uint64, sh *serviceShard, done func(ok bool)) {
	s.converge(sh, key, func(out convergeOutcome) {
		if out == convergeApplied {
			s.migKeysMoved++
		}
		done(out != convergeFailed)
	})
}

// sealSegment closes one bucket segment: every moving key in it has
// its winning state on the post-change owners, so dual routing stops
// for these keys. Ghost residents on owners that lost a key are
// purged (the drain target is exempt — it leaves wholesale at finish);
// keys with in-flight work keep their ghosts, which the next
// anti-entropy rotation retires.
func (s *Service) sealSegment(m *migration, seg uint64) {
	if s.mig != m {
		return
	}
	m.inFlight--
	m.sealed[seg] = true
	m.sealedN++
	s.migSegsSealed++
	for _, key := range m.segKeys[seg] {
		if s.unsettled[key] > 0 {
			continue
		}
		owners := s.owners(key)
		for _, sh := range s.order {
			if !m.join && sh.id == m.target {
				continue
			}
			isCur := false
			for _, id := range owners {
				if id == sh.id {
					isCur = true
					break
				}
			}
			if isCur {
				continue
			}
			if _, busy := sh.inflightSet[key]; busy {
				continue
			}
			if _, _, resident := sh.table.table.Lookup(key); resident {
				sh.del(key, 0)
			}
			delete(sh.tombVer, key)
		}
	}
	if len(m.pending) == 0 && m.inFlight == 0 {
		s.finishMigration(m)
	}
}

// finishMigration completes a resharding: a drain's target leaves the
// service (its late hints redirected first), the cache generation
// fences again, and the repair machinery gets a fresh rotation over
// the new membership.
func (s *Service) finishMigration(m *migration) {
	if !m.join {
		if sh, ok := s.shards[m.target]; ok {
			s.redirectHints(sh)
			delete(s.shards, m.target)
			for i, o := range s.order {
				if o == sh {
					s.order = append(s.order[:i], s.order[i+1:]...)
					break
				}
			}
		}
	}
	s.mig = nil
	s.migLog = append(s.migLog, MigrationSummary{Epoch: m.epoch, Join: m.join,
		Target: m.target, Started: m.started, Finished: s.tb.Now(),
		Segments: m.liveSegs, Keys: m.keyCount})
	s.bumpCacheGen()
	s.aeCleanRun = 0
	s.armRepair()
	s.armAntiEntropy()
}

// redirectHints moves every hint parked on from to each key's new
// primary. Each redirected hint is a FRESH struct carrying the same
// op, key, sequence and payload: the original may be mid-drain on
// from, and drainHint's identity checks key off from's map — moving
// the struct itself would wedge its callbacks. Settlement transfers
// with the op pointer: the new hint settles the originating write when
// it drains or is superseded, exactly once.
func (s *Service) redirectHints(from *serviceShard) {
	if len(from.hints) == 0 {
		return
	}
	keys := make([]uint64, 0, len(from.hints))
	for k := range from.hints {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	touched := make(map[string]bool)
	for _, k := range keys {
		h := from.hints[k]
		delete(from.hints, k)
		to := s.redirectTarget(k, from)
		if to == nil {
			s.settleHint(h)
			continue
		}
		if cur, ok := to.hints[k]; ok {
			if cur.seq >= h.seq {
				to.stats.HintsDropped++
				s.settleHint(h)
				continue
			}
			to.stats.HintsDropped++
			s.settleHint(cur)
		}
		to.hints[k] = &hint{mutation: h.mutation, op: h.op}
		to.stats.HintsQueued++
		s.migHintsRedirected++
		touched[to.id] = true
	}
	for _, sh := range s.order {
		if touched[sh.id] && !sh.hostDown && !sh.down() {
			s.drainHints(sh)
		}
	}
}
