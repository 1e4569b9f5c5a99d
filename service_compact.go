package redn

import "repro/internal/sim"

// The extent lifecycle behind the write path.
//
// Retired extents return to the shard's arena two ways: host-path
// deletes free directly (the CPU holds the pointer), fabric deletes go
// through the to-free ring, drained by the client on each ack and by
// the compaction tick. The background compactor closes the loop:
// segments whose live fraction fell below the threshold are evacuated
// — each survivor's bytes copied to a fresh (right-sized) extent and
// its bucket repointed — at modeled host copy cost. Compaction skips
// any key with an in-flight write or delete (the per-key write slot
// and the unsettled count are the safety interlocks), so a chain armed
// against a pre-compaction bucket view can never orphan a moved value.

// compactExtentLat models evacuating one live extent during a
// compaction pass: a host memcpy plus the bucket repoint.
const compactExtentLat = 500 * sim.Nanosecond

// armCompaction schedules one compaction tick CompactEvery from now,
// unless one is already pending. Ticks are armed by write and delete
// activity rather than free-running, so an idle service leaves the
// simulation engine drainable (a self-rescheduling tick would keep
// Engine.Run spinning forever); under sustained churn the effect is
// the same periodic background pass.
func (s *Service) armCompaction(sh *serviceShard) {
	if s.cfg.CompactEvery <= 0 || sh.compactArmed {
		return
	}
	sh.compactArmed = true
	s.tb.clu.Eng.After(s.cfg.CompactEvery, func() {
		sh.compactArmed = false
		s.compactShard(sh)
	})
}

// compactShard runs one compaction pass on sh's arena: drain straggler
// to-free ring entries, then evacuate every sealed segment below the
// liveness threshold. Each relocation copies the live bytes into a
// fresh right-sized extent and repoints the key's bucket; the pass is
// charged compactExtentLat per moved extent by pushing the next tick
// out, modeling the host CPU time it burned. Keys with any write or
// delete in flight are skipped — the per-key write slot and the
// unsettled count are the interlocks that keep compaction from racing
// a chain armed against the pre-move bucket.
func (s *Service) compactShard(sh *serviceShard) {
	if sh.hostDown {
		// No CPU to run the pass; the next write after recovery re-arms.
		return
	}
	for _, cli := range sh.clients {
		cli.drainFreed()
	}
	sh.stats.CompactPasses++
	t := sh.table.table
	m := sh.srv.node.Mem
	moved := 0
	sh.arena.CompactBelow(s.cfg.CompactThreshold,
		func(cookie, addr, size uint64) bool {
			key := cookie
			if key == 0 {
				// Untagged extent. Key 0 cannot be table-resident (its
				// control word is the empty-bucket marker and the fabric
				// entrypoints reject it), so a zero cookie only ever
				// marks arena allocations made without an owner.
				sh.stats.CompactSkips++
				return false
			}
			if _, busy := sh.inflightSet[key]; busy {
				sh.stats.CompactSkips++
				return false
			}
			if s.unsettled[key] > 0 {
				sh.stats.CompactSkips++
				return false
			}
			va, vl, ok := t.Lookup(key)
			if !ok || va != addr {
				// The record went stale (a wedged set's staging, or a
				// straggler's husk): unreferenced, but not provably
				// dead — leave it.
				sh.stats.CompactSkips++
				return false
			}
			bytes, err := m.Read(va, vl)
			if err != nil {
				sh.stats.CompactSkips++
				return false
			}
			newAddr := sh.arena.Alloc(vl, key)
			if err := m.Write(newAddr, bytes); err != nil {
				sh.arena.Free(newAddr)
				sh.stats.CompactSkips++
				return false
			}
			if err := t.Insert(key, newAddr, vl); err != nil {
				sh.arena.Free(newAddr)
				sh.stats.CompactSkips++
				return false
			}
			// Moved — but decline the arena's immediate release: a
			// lookup chain that probed the bucket pre-repoint may still
			// hold the old pointer, so the extent cools for the read
			// grace before returning. The next pass skips the stale
			// record (va != addr) until the deferred free lands.
			sh.stats.CompactMoves++
			sh.stats.CompactBytes += size
			sh.retireExtent(addr)
			moved++
			return false
		})
	// The pass burned host CPU proportional to what it moved; the next
	// tick (armed by subsequent write activity) slips by that much.
	if moved > 0 {
		s.tb.clu.Eng.After(Duration(moved)*compactExtentLat, func() {
			s.armCompaction(sh)
		})
	}
}
