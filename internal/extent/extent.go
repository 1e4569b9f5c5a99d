// Package extent is the value-extent lifecycle layer under the fabric
// write path: an allocator of value extents over a node's simulated
// memory.
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
// business (the root package's retire queue, which the writer that
// replaced or deleted an extent pushes it onto).
//
// A value arena (NewValueArena) reserves HeadBytes before every extent
// for the value's [version, length] header, so a value is
// self-describing: whoever stores it writes the header with its bytes,
// and a reader holding only the pointer reads both.
//
// Everything runs in virtual time on the single-threaded simulation
// engine; the arena needs no locking, only exact accounting — which
// the property tests in this package pin down.
package extent

import (
	"errors"
	"fmt"

	"repro/internal/mem"
)

// defaultChunk is the default carve, a page: it amortizes a carve over
// the small values that dominate, and a size's half-used chunk holds
// back little memory.
const defaultChunk = 4 << 10

// HeadBytes is the header a value arena's extent carries just before
// its value: the value's version, then its length, one word each.
const HeadBytes = 16

// Head reads the [version, length] header of the value at va.
func Head(m *mem.Memory, va uint64) (ver, n uint64) {
	ver, _ = m.U64(va - HeadBytes)
	n, _ = m.U64(va - 8)
	return ver, n
}

// PutHead writes the [version, length] header of the value at va.
func PutHead(m *mem.Memory, va, ver, n uint64) {
	m.PutU64(va-HeadBytes, ver)
	m.PutU64(va-8, n)
}

// record is one extent: live, or free on its size's stack. addr is
// the address Alloc returned, past the extent's head; size is what the
// value may hold.
type record struct {
	addr uint64
	size uint64
	live bool
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
	head  uint64 // bytes each extent reserves before its address

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

// NewValueArena builds an arena whose extents each reserve HeadBytes
// for a value header before the address Alloc returns: the arena of a
// server's stored values.
func NewValueArena(m *mem.Memory, chunk uint64) *Arena {
	a := NewArena(m, chunk)
	a.head = HeadBytes
	return a
}

// SetNoReclaim switches the arena into leak-forever mode: frees still
// account (live bytes stay truthful) but a freed extent is forgotten,
// never reused, so the footprint tracks cumulative allocation — the
// pre-lifecycle behavior the churn experiment baselines against.
func (a *Arena) SetNoReclaim(v bool) { a.noReclaim = v }

// Alloc reserves size bytes (8-aligned) for a value extent, past the
// arena's head, and returns their address: the most recently freed
// extent of that size, or a fresh one from the size's chunk. cookie is
// unused (bench's ladder passes one).
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
	r.live = true
	a.liveBytes += size + a.head
	if a.liveBytes > a.peakLive {
		a.peakLive = a.liveBytes
	}
	a.allocs++
	return r.addr
}

// carve makes the next extent of c's chunk, carving a fresh chunk (and
// its records, one Go object) when the current one is used up.
func (a *Arena) carve(c *class, size uint64) *record {
	stride := size + a.head
	if len(c.recs) == 0 {
		n := max(1, a.chunk/stride)
		c.next = a.mem.Alloc(n*stride, 8)
		c.recs = make([]record, n)
		a.footprint += n * stride
	}
	r := &c.recs[0]
	c.recs = c.recs[1:]
	*r = record{addr: c.next + a.head, size: size}
	c.next += stride
	a.byAddr[r.addr] = r
	return r
}

// ErrDoubleFree is Free's error for an extent the arena issued and
// has freed since: two owners were handed it.
var ErrDoubleFree = errors.New("extent: double free")

// Free returns the extent at addr to the arena. Freeing an address
// Alloc did not return for a live extent is an error — the
// double-free/bad-free signal the property tests assert on: one
// wrapping ErrDoubleFree when the extent is already free, another for
// an address the arena never issued. A leak-forever arena forgets the
// extents it frees, so its double free reads as the second kind.
func (a *Arena) Free(addr uint64) error {
	r, ok := a.byAddr[addr]
	switch {
	case !ok:
		return fmt.Errorf("extent: free of %#x: not an extent of this arena", addr)
	case !r.live:
		return fmt.Errorf("%w of %#x", ErrDoubleFree, addr)
	}
	r.live = false
	a.liveBytes -= r.size + a.head
	a.frees++
	if a.noReclaim {
		delete(a.byAddr, addr)
		return nil
	}
	c := a.classes[r.size]
	c.free = append(c.free, r)
	return nil
}

// Size returns the allocated capacity of the live extent at addr (its
// rounded Alloc size, not the value length stored in it, nor its head).
func (a *Arena) Size(addr uint64) (uint64, bool) {
	if r, ok := a.byAddr[addr]; ok && r.live {
		return r.size, true
	}
	return 0, false
}

// Stats is an arena accounting snapshot.
type Stats struct {
	LiveExtents int    // live extent count
	LiveBytes   uint64 // bytes in live extents (allocated capacity and head)
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
