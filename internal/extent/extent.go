// Package extent is the value-extent lifecycle layer under the fabric
// write path: an allocator of value extents over a node's simulated
// memory, plus the to-free ring NIC delete chains unlink retired
// extents onto.
//
// The raw mem.Memory bump allocator can only grow, so every overwrite
// and every delete used to leak its old value extent — fine for the
// paper's fixed-key experiments, fatal for a churn workload. The arena
// instead reuses memory one extent at a time: a freed extent goes on a
// free stack for its size and is the next Alloc of that size; a size
// carves a fresh chunk of node memory only when its stack is empty.
// The memory an arena holds is therefore each size's peak live bytes
// rounded up to a chunk, not the write volume. When an extent may be
// freed — no reader still holding its pointer — is the caller's
// business (the root package's retire queue).
//
// Everything runs in virtual time on the single-threaded simulation
// engine; the arena needs no locking, only exact accounting — which
// the property tests in this package pin down.
package extent

import (
	"fmt"

	"repro/internal/mem"
)

// defaultChunk is the default carve, a page: it amortizes a carve over
// the small values that dominate, and a size's half-used chunk holds
// back little memory.
const defaultChunk = 4 << 10

// record is one extent: live, or free on its size's stack.
type record struct {
	addr   uint64
	size   uint64
	cookie uint64
	live   bool
}

// class is the extents of one size: the freed ones, most recently
// freed last, and the uncarved rest of the size's current chunk — its
// next address and a record for each extent still to carve.
type class struct {
	free []*record
	next uint64
	recs []record
}

// Arena is a node's value-extent allocator.
type Arena struct {
	mem   *mem.Memory
	chunk uint64

	byAddr  map[uint64]*record // every extent carved (live or free), indexed once
	classes map[uint64]*class  // by extent size

	liveBytes uint64
	peakLive  uint64 // high-water live bytes
	footprint uint64 // bytes carved from node memory; never returned

	allocs, frees uint64

	// noReclaim keeps the accounting but never reuses memory —
	// reproducing the pre-lifecycle leak-forever allocator so
	// experiments can measure what the arena buys.
	noReclaim bool
}

// NewArena builds an arena over m that carves chunk bytes at a time
// for each size (0 selects 4 KiB; a size larger than the chunk carves
// one extent at a time).
func NewArena(m *mem.Memory, chunk uint64) *Arena {
	if chunk == 0 {
		chunk = defaultChunk
	}
	return &Arena{mem: m, chunk: chunk, byAddr: make(map[uint64]*record), classes: make(map[uint64]*class)}
}

// SetNoReclaim switches the arena into leak-forever mode: frees still
// account (live bytes stay truthful) but a freed extent is forgotten,
// never reused, so the footprint tracks cumulative allocation — the
// pre-lifecycle behavior the churn experiment baselines against.
func (a *Arena) SetNoReclaim(v bool) { a.noReclaim = v }

// Alloc reserves size bytes (8-aligned) for a value extent and returns
// its base address: the most recently freed extent of that size, or a
// fresh one from the size's chunk. cookie is an opaque owner tag (the
// service stores the key).
func (a *Arena) Alloc(size, cookie uint64) uint64 {
	if size == 0 {
		size = 8
	}
	size = (size + 7) &^ 7
	c := a.classes[size]
	if c == nil {
		c = new(class)
		a.classes[size] = c
	}
	var r *record
	if n := len(c.free); n > 0 {
		r, c.free = c.free[n-1], c.free[:n-1]
	} else {
		r = a.carve(c, size)
	}
	r.cookie, r.live = cookie, true
	a.liveBytes += size
	if a.liveBytes > a.peakLive {
		a.peakLive = a.liveBytes
	}
	a.allocs++
	return r.addr
}

// carve makes the next extent of c's chunk, carving a fresh chunk (and
// its records, one Go object) when the current one is used up.
func (a *Arena) carve(c *class, size uint64) *record {
	if len(c.recs) == 0 {
		n := max(1, a.chunk/size)
		c.next = a.mem.Alloc(n*size, 8)
		c.recs = make([]record, n)
		a.footprint += n * size
	}
	r := &c.recs[0]
	c.recs = c.recs[1:]
	*r = record{addr: c.next, size: size}
	c.next += size
	a.byAddr[r.addr] = r
	return r
}

// Free returns the extent at addr to the arena. Freeing an address
// that is not a live extent base is an error — the double-free/bad-free
// signal the property tests assert on.
func (a *Arena) Free(addr uint64) error {
	r, ok := a.live(addr)
	if !ok {
		return fmt.Errorf("extent: free of %#x: not a live extent", addr)
	}
	r.live = false
	a.liveBytes -= r.size
	a.frees++
	if a.noReclaim {
		delete(a.byAddr, addr)
		return nil
	}
	c := a.classes[r.size]
	c.free = append(c.free, r)
	return nil
}

// live returns the record of the live extent at addr.
func (a *Arena) live(addr uint64) (*record, bool) {
	r, ok := a.byAddr[addr]
	return r, ok && r.live
}

// Size returns the allocated capacity of the live extent at addr (its
// rounded Alloc size, not the value length stored in it).
func (a *Arena) Size(addr uint64) (uint64, bool) {
	if r, ok := a.live(addr); ok {
		return r.size, true
	}
	return 0, false
}

// Cookie returns the owner tag of the live extent at addr.
func (a *Arena) Cookie(addr uint64) (uint64, bool) {
	if r, ok := a.live(addr); ok {
		return r.cookie, true
	}
	return 0, false
}

// Stats is an arena accounting snapshot.
type Stats struct {
	LiveExtents int    // live extent count
	LiveBytes   uint64 // bytes in live extents (allocated capacity)
	PeakLive    uint64 // high-water live bytes — the working-set size
	Footprint   uint64 // bytes carved from node memory (its own high water: never returned)
}

// Stats snapshots the arena counters.
func (a *Arena) Stats() Stats {
	return Stats{
		LiveExtents: int(a.allocs - a.frees),
		LiveBytes:   a.liveBytes,
		PeakLive:    a.peakLive,
		Footprint:   a.footprint,
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
