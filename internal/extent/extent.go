// Package extent is the value-extent lifecycle layer under the fabric
// write path: a log-structured, segment-based allocator over a node's
// simulated memory, plus the to-free ring NIC delete chains unlink
// retired extents onto.
//
// The raw mem.Memory bump allocator can only grow, so every overwrite
// and every delete used to leak its old value extent — fine for the
// paper's fixed-key experiments, fatal for a churn workload. The arena
// instead carves memory into fixed-size segments and bump-allocates
// extents within the active segment (log-structured writes: a set
// never mutates a live extent, it installs a fresh one). Frees only
// decrement the owning segment's live-byte count; a segment whose live
// bytes reach zero is recycled whole onto a free list, and segments
// stuck below a liveness threshold are evacuated by a host-side
// compactor (CompactBelow) that relocates the survivors and recycles
// the husk. Arena footprint is therefore bounded by live bytes times
// the inverse liveness threshold, not by write volume.
//
// Everything runs in virtual time on the single-threaded simulation
// engine; the arena needs no locking, only exact accounting — which
// the property tests in this package pin down.
package extent

import (
	"fmt"
	"slices"

	"repro/internal/mem"
)

// DefaultSegmentSize is the default segment granularity. Big enough to
// amortize per-segment bookkeeping over hundreds of typical values,
// small enough that one mostly-dead segment holds back little memory.
const DefaultSegmentSize = 64 << 10

// segment is one contiguous carve of node memory.
type segment struct {
	base uint64
	size uint64
	fill uint64 // bump cursor within the segment
	live uint64 // bytes of live extents
}

// record is one live extent.
type record struct {
	addr   uint64
	size   uint64
	cookie uint64
	seg    *segment
}

// Arena is a node's value-extent allocator.
type Arena struct {
	mem     *mem.Memory
	segSize uint64

	active *segment   // current fill target (never a compaction victim)
	sealed []*segment // full (or retired-from-active) segments
	free   []*segment // fully-dead segments awaiting reuse

	byAddr map[uint64]*record // the one index of live extents
	spare  []*record          // records of freed extents, reused by Alloc

	liveBytes uint64
	peakLive  uint64 // high-water live bytes
	footprint uint64 // bytes held in segments (live, sealed, and free)
	peak      uint64

	allocs, frees, recycles uint64
	compactMoves            uint64
	compactBytes            uint64
	compactions             uint64

	// noReclaim keeps the accounting but never reuses memory —
	// reproducing the pre-lifecycle leak-forever allocator so
	// experiments can measure what the arena buys.
	noReclaim bool
}

// NewArena builds an arena over m with the given segment size
// (0 selects DefaultSegmentSize).
func NewArena(m *mem.Memory, segSize uint64) *Arena {
	if segSize == 0 {
		segSize = DefaultSegmentSize
	}
	return &Arena{mem: m, segSize: segSize, byAddr: make(map[uint64]*record)}
}

// SetNoReclaim switches the arena into leak-forever mode: frees still
// account (live bytes stay truthful) but segments are never recycled
// and compaction is a no-op, so the footprint tracks cumulative
// allocation — the pre-lifecycle behavior the churn experiment
// baselines against.
func (a *Arena) SetNoReclaim(v bool) { a.noReclaim = v }

// newSegment carves a fresh segment of at least size bytes from memory.
func (a *Arena) newSegment(size uint64) *segment {
	if size < a.segSize {
		size = a.segSize
	}
	s := &segment{base: a.mem.Alloc(size, 8), size: size}
	a.footprint += size
	if a.footprint > a.peak {
		a.peak = a.footprint
	}
	return s
}

// take returns a segment with room for size bytes: the first free
// segment that fits, or a fresh carve.
func (a *Arena) take(size uint64) *segment {
	for i, s := range a.free {
		if s.size >= size {
			a.free = append(a.free[:i], a.free[i+1:]...)
			a.recycles++
			return s
		}
	}
	return a.newSegment(size)
}

// Alloc reserves size bytes (8-aligned) for a value extent and returns
// its base address. cookie is an opaque owner tag (the service stores
// the key) surfaced again at compaction time.
func (a *Arena) Alloc(size, cookie uint64) uint64 {
	if size == 0 {
		size = 8
	}
	size = (size + 7) &^ 7
	if a.active == nil || a.active.fill+size > a.active.size {
		if a.active != nil {
			// Retire the active segment; it may already be fully dead.
			a.seal(a.active)
		}
		a.active = a.take(size)
	}
	s := a.active
	addr := s.base + s.fill
	s.fill += size
	var r *record
	if n := len(a.spare); n > 0 {
		r, a.spare = a.spare[n-1], a.spare[:n-1]
	} else {
		r = new(record)
	}
	*r = record{addr: addr, size: size, cookie: cookie, seg: s}
	s.live += size
	a.byAddr[addr] = r
	a.liveBytes += size
	if a.liveBytes > a.peakLive {
		a.peakLive = a.liveBytes
	}
	a.allocs++
	return addr
}

// seal moves a segment out of the active role, recycling it at once
// when nothing in it is live (never under noReclaim: the leak baseline
// must not quietly reuse memory).
func (a *Arena) seal(s *segment) {
	if s.live == 0 && !a.noReclaim {
		s.fill = 0
		a.free = append(a.free, s)
		return
	}
	a.sealed = append(a.sealed, s)
}

// Free retires the extent at addr. Freeing an address that is not a
// live extent base is an error — the double-free/bad-free signal the
// property tests assert on.
func (a *Arena) Free(addr uint64) error {
	r, ok := a.byAddr[addr]
	if !ok {
		return fmt.Errorf("extent: free of %#x: not a live extent", addr)
	}
	a.release(r)
	return nil
}

// release drops one live record and recycles its segment when it was
// the last survivor. An active segment that empties rewinds its fill
// cursor instead — otherwise its dead prefix would be unusable until
// the segment happened to seal.
func (a *Arena) release(r *record) {
	seg := r.seg
	delete(a.byAddr, r.addr)
	seg.live -= r.size
	a.liveBytes -= r.size
	a.frees++
	a.spare = append(a.spare, r) // r is the next Alloc's from here on
	if a.noReclaim || seg.live != 0 {
		return
	}
	if seg == a.active {
		seg.fill = 0
		return
	}
	for i, s := range a.sealed {
		if s == seg {
			a.sealed = append(a.sealed[:i], a.sealed[i+1:]...)
			break
		}
	}
	seg.fill = 0
	a.free = append(a.free, seg)
}

// Size returns the allocated capacity of the live extent at addr (its
// rounded Alloc size, not the value length stored in it).
func (a *Arena) Size(addr uint64) (uint64, bool) {
	r, ok := a.byAddr[addr]
	if !ok {
		return 0, false
	}
	return r.size, true
}

// Cookie returns the owner tag of the live extent at addr.
func (a *Arena) Cookie(addr uint64) (uint64, bool) {
	r, ok := a.byAddr[addr]
	if !ok {
		return 0, false
	}
	return r.cookie, true
}

// CompactBelow evacuates every sealed segment whose live fraction is
// strictly below threshold. For each survivor extent it calls relocate
// with the extent's cookie, base and capacity; relocate moves the
// bytes (typically Alloc + copy + repoint the hash bucket) and reports
// whether it did. Moved extents are retired here — the relocate
// callback must NOT Free the old extent itself. Extents the callback
// declines (an in-flight write holds the key, say) stay put, and their
// segment survives until a later pass. Returns the extents moved and
// the bytes they occupied.
func (a *Arena) CompactBelow(threshold float64, relocate func(cookie, addr, size uint64) bool) (moved int, bytes uint64) {
	if a.noReclaim {
		return 0, 0
	}
	a.compactions++
	// Victims snapshot first: relocation allocates, and fresh
	// allocations must never land in a segment being emptied (the
	// active segment and free-list segments are never victims).
	turn := make(map[*segment]uint64) // victim -> its place in sealed order
	for _, s := range a.sealed {
		if float64(s.live) < threshold*float64(s.size) {
			turn[s] = uint64(len(turn))
		}
	}
	if len(turn) == 0 {
		return 0, 0
	}
	// Survivors as (turn, addr): victims in sealed order, ascending
	// address within each. Addresses, not records: relocate allocates,
	// and may free, so a record snapshotted here could be another
	// extent's by its turn.
	var todo [][2]uint64
	for addr, r := range a.byAddr {
		if i, ok := turn[r.seg]; ok {
			todo = append(todo, [2]uint64{i, addr})
		}
	}
	slices.SortFunc(todo, func(x, y [2]uint64) int { return slices.Compare(x[:], y[:]) })
	for _, v := range todo {
		r := a.byAddr[v[1]]
		if r == nil {
			continue // freed under an earlier relocate
		}
		if size := r.size; relocate(r.cookie, r.addr, size) {
			moved++
			bytes += size
			a.compactMoves++
			a.compactBytes += size
			a.release(r)
		}
	}
	return moved, bytes
}

// Stats is an arena accounting snapshot.
type Stats struct {
	SegmentSize  uint64
	Segments     int    // segments held, free-list included
	FreeSegments int    // fully-dead segments awaiting reuse
	LiveExtents  int    // live extent count
	LiveBytes    uint64 // bytes in live extents (allocated capacity)
	PeakLive     uint64 // high-water live bytes — the working-set size
	Footprint    uint64 // bytes carved from node memory for segments
	Peak         uint64 // high-water footprint
	Allocs       uint64
	Frees        uint64
	Recycles     uint64 // segment reuses off the free list
	Compactions  uint64 // CompactBelow passes
	CompactMoves uint64 // extents relocated by compaction
	CompactBytes uint64 // capacity bytes relocated by compaction
}

// Stats snapshots the arena counters.
func (a *Arena) Stats() Stats {
	n := len(a.sealed) + len(a.free)
	if a.active != nil {
		n++
	}
	return Stats{
		SegmentSize:  a.segSize,
		Segments:     n,
		FreeSegments: len(a.free),
		LiveExtents:  len(a.byAddr),
		LiveBytes:    a.liveBytes,
		PeakLive:     a.peakLive,
		Footprint:    a.footprint,
		Peak:         a.peak,
		Allocs:       a.allocs,
		Frees:        a.frees,
		Recycles:     a.recycles,
		Compactions:  a.compactions,
		CompactMoves: a.compactMoves,
		CompactBytes: a.compactBytes,
	}
}

// FreeRing is the to-free ring a NIC delete chain unlinks value
// extents onto: N slots of [tag, addr, len] triples in server memory.
// The chain's conditional WRITE deposits the deleted bucket's first
// three words — the claimed key/control word, the value pointer and
// its length — into a slot; the host drains slots (Drain) and returns
// the extents to the arena, using the tag to verify the extent still
// belongs to the deleted key (a straggler chain can double-deposit an
// address that has since been recycled to another key). Slots are
// identified by nonzero tag — rings start zeroed and Drain re-zeroes
// each slot it consumes, so late stragglers from timed-out deletes are
// collected on a later pass rather than lost.
type FreeRing struct {
	mem  *mem.Memory
	base uint64
	n    uint64
}

// SlotBytes is the on-memory size of one ring slot: the 24-byte
// deposit rounded up for alignment.
const SlotBytes = 32

// NewFreeRing allocates an n-slot ring (memory starts zeroed).
func NewFreeRing(m *mem.Memory, n int) *FreeRing {
	if n < 1 {
		n = 1
	}
	return &FreeRing{mem: m, base: m.Alloc(uint64(n)*SlotBytes, 8), n: uint64(n)}
}

// Len returns the slot count.
func (r *FreeRing) Len() int { return int(r.n) }

// SlotAddr returns the address of slot i (mod the ring length) — the
// Dst a delete chain's unlink WRITE targets.
func (r *FreeRing) SlotAddr(i uint64) uint64 { return r.base + (i%r.n)*SlotBytes }

// Drain consumes every filled slot: cb runs once per deposited
// [tag, addr, len] triple and the slot is re-zeroed. tag is the raw
// bucket control word the delete chain claimed (the pending word of
// the deleted key — never zero).
func (r *FreeRing) Drain(cb func(tag, addr, size uint64)) int {
	drained := 0
	for i := uint64(0); i < r.n; i++ {
		slot := r.base + i*SlotBytes
		tag, _ := r.mem.U64(slot)
		if tag == 0 {
			continue
		}
		addr, _ := r.mem.U64(slot + 8)
		size, _ := r.mem.U64(slot + 16)
		r.mem.PutU64(slot, 0)
		r.mem.PutU64(slot+8, 0)
		r.mem.PutU64(slot+16, 0)
		cb(tag, addr, size)
		drained++
	}
	return drained
}
