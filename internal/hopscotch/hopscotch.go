// Package hopscotch implements the Hopscotch hash table of §5.2, laid
// out in simulated host memory so RDMA verbs (and RedN offloads) can
// traverse it. Each key is hashed by H functions (two, as in MemC3 and
// the paper's setup) and stored in one of the H buckets' neighborhoods.
//
// The bucket layout is designed for RedN's self-modifying injection
// (Fig 9): the first word is the key pre-encoded as a WQE control word
// (NOOP opcode | 48-bit key) and the second is the value address, so a
// single 16-byte RDMA READ of a bucket lands the key in a response
// WQE's id field and the value pointer in its src field, readying it
// for the conditional CAS. Values are referenced by pointer (not
// inlined) to support dynamic value sizes. All fields are big-endian,
// as the paper requires of Memcached's buckets. The third word, valLen,
// is host-written: the fabric's pointer-CAS writes never update it, so
// a service table's lengths live in its values' [version, length]
// headers (internal/extent), read through serviceShard.stored.
//
// Every read of a bucket goes by its pointer. A key is resident only
// while its pointer is an address (opcode bits zero). A bucket is free
// iff its pointer is not: FreePtr beside key word 0 if no key is there,
// FreedPtr(k) beside NOOP|k once k's fabric delete swapped k's extent
// out. A delete keeps the key word, so the pointer alone names the
// bucket's state, and the key word beside an address is the resident.
// An address beside key word 0 is a fabric fresh claim in flight, which
// holds the bucket: the host neither places into it nor walks through
// it (FreeAt).
package hopscotch

import (
	"errors"
	"fmt"

	"repro/internal/mem"
	"repro/internal/wqe"
)

// BucketSize is the on-memory size of a bucket in bytes: three words
// and a fourth of padding no path writes, kept because FaRM-KV's
// neighborhood READ spans whole buckets.
const BucketSize = 32

// Bucket field offsets.
const (
	OffKeyCtrl = 0  // MakeCtrl(OpNoop, key48); zero means empty
	OffValAddr = 8  // address of the value bytes
	OffValLen  = 16 // value length in bytes, as the host path wrote it
)

// DefaultNeighborhood is FaRM's default neighborhood size (§5.2: "the
// neighborhood size is set to 6 by default, implying a 6x overhead for
// RDMA metadata operations" for one-sided readers).
const DefaultNeighborhood = 6

// KeyMask bounds keys to 48 bits (the paper's operand/key width).
const KeyMask = wqe.IDMask

// PendingBit is the reserved top bit of the 48-bit id space: keys must
// keep it clear (Insert rejects violators). Every key word a bucket can
// hold — zero, or a key's NOOP|key — shares the NOOP opcode
// deliberately: a lookup chain's probe READ copies the bucket word
// VERBATIM onto its response WQE's control field, so any non-NOOP
// opcode in a bucket's key word would arm the response and serve
// whatever pointer the bucket carries. Write chains inject too: a claim
// CAS returns the bucket's old word onto the WQE the claim guards,
// where a refused claim leaves it to execute. Inert-under-injection is
// the safety invariant of every key word.
const PendingBit = uint64(1) << 47

// FreePtr is the pointer of a bucket no key holds or left: beside key
// word 0, from New, or after a host Remove. Its opcode bits are a WRITE,
// and every address is below them. A fabric fresh claim (internal/core)
// swaps it for its staging extent with one CAS, whose returned word
// lands on the control field of the claim's publishing WRITE: the free
// pointer arms that WRITE, an address (the bucket was taken first)
// leaves it a NOOP, and a freed pointer (FreedPtr) a MAX of zero, which
// writes nothing. Where a key word is inert under injection, this
// pointer is executable on purpose.
var FreePtr = wqe.MakeCtrl(wqe.OpWrite, 0)

// FreedPtr returns the pointer a bucket holds once key's fabric delete
// swapped key's extent out: MAX|key, free and naming the key that left.
// A CAS that expects it names that key's delete, not just a free
// bucket: the key's re-insert takes the bucket back with one CAS beside
// the key word the delete kept, and a fresh claim armed while the
// bucket was empty is refused, writing nothing, once another key was
// published there and deleted. Its MAX opcode is what keeps that
// refused claim's publish from running: landed on the publish's control
// word, it maxes the bucket's key word with zero.
func FreedPtr(key uint64) uint64 { return wqe.MakeCtrl(wqe.OpMax, key&KeyMask) }

// address reports whether va, a bucket's pointer, is a value's address
// rather than a free pointer.
func address(va uint64) bool { return va <= wqe.IDMask }

// ErrFull reports that neither candidate neighborhood has room.
var ErrFull = errors.New("hopscotch: table full (both neighborhoods exhausted)")

// ErrClaimed reports a kick walk that reached a bucket a claim holds.
var ErrClaimed = errors.New("hopscotch: kick walk reached a bucket a claim in flight holds")

// Table is a Hopscotch hash table resident in simulated memory.
type Table struct {
	mem          *mem.Memory
	base         uint64
	nBuckets     uint64 // power of two
	hashes       int    // H
	neighborhood int
	entries      int
}

// New allocates a table with nBuckets (rounded up to a power of two)
// in m, using two hash functions and the given neighborhood size
// (0 selects DefaultNeighborhood). Every bucket starts empty, naming
// FreePtr.
func New(m *mem.Memory, nBuckets uint64, neighborhood int) *Table {
	n := uint64(1)
	for n < nBuckets {
		n <<= 1
	}
	if neighborhood <= 0 {
		neighborhood = DefaultNeighborhood
	}
	base := m.Alloc(n*BucketSize, 64)
	for addr := base; addr < base+n*BucketSize; addr += BucketSize {
		m.PutU64(addr+OffValAddr, FreePtr)
	}
	return &Table{mem: m, base: base, nBuckets: n, hashes: 2, neighborhood: neighborhood}
}

// Base returns the address of bucket 0.
func (t *Table) Base() uint64 { return t.base }

// Size returns the table size in bytes (for MR registration).
func (t *Table) Size() uint64 { return t.nBuckets * BucketSize }

// NumBuckets returns the bucket count.
func (t *Table) NumBuckets() uint64 { return t.nBuckets }

// Neighborhood returns the neighborhood size.
func (t *Table) Neighborhood() int { return t.neighborhood }

// Len returns the number of stored entries. It tracks HOST-path
// mutations only: fabric chains write bucket memory directly, so under
// fabric traffic it is an approximation (scan EntryAt for ground truth).
func (t *Table) Len() int { return t.entries }

// BucketAddr returns the address of bucket i.
func (t *Table) BucketAddr(i uint64) uint64 { return t.base + (i%t.nBuckets)*BucketSize }

// hash mixes k with one of two 64-bit avalanche constants
// (splitmix64-style finalizers), deterministic across runs.
func (t *Table) hash(k uint64, fn int) uint64 {
	x := k & KeyMask
	if fn == 0 {
		x ^= 0x9E3779B97F4A7C15
	} else {
		x ^= 0xC2B2AE3D27D4EB4F
	}
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x % t.nBuckets
}

// Hash returns the fn-th (0 or 1) candidate bucket index for key.
func (t *Table) Hash(key uint64, fn int) uint64 { return t.hash(key, fn) }

// HashAddr returns the address of the fn-th candidate bucket for key —
// the value clients send as H1(x)/H2(x) in the lookup trigger.
func (t *Table) HashAddr(key uint64, fn int) uint64 { return t.BucketAddr(t.hash(key, fn)) }

// slotFor finds key's slot in its candidate neighborhoods: the key's
// existing bucket when resident (overwrite — checked across BOTH
// neighborhoods before any free slot is taken, so a hole opened by an
// earlier delete can never shadow the live entry with a duplicate),
// else the first free slot (inserts reclaim deleted buckets).
func (t *Table) slotFor(key uint64) (uint64, error) {
	free := uint64(0)
	for fn := 0; fn < t.hashes; fn++ {
		h := t.hash(key, fn)
		for d := 0; d < t.neighborhood; d++ {
			addr := t.BucketAddr(h + uint64(d))
			k, va, ok := t.entry(addr)
			switch {
			case ok && k == key&KeyMask:
				return addr, nil // overwrite existing
			case !address(va) && free == 0:
				free = addr
			}
		}
	}
	if free != 0 {
		return free, nil
	}
	return 0, ErrFull
}

// entry reads the bucket at addr by its pointer: a free one's names the
// key that left it (0 for FreePtr) with no read of its key word, and
// beside an address the key word is the resident's, ok unless it is 0
// (a fresh claim in flight). A bucket past the table reads as a claim,
// neither free nor resident.
func (t *Table) entry(addr uint64) (key, va uint64, ok bool) {
	va, err := t.mem.U64(addr + OffValAddr)
	if err != nil {
		return 0, 0, false
	}
	if !address(va) {
		_, key = wqe.SplitCtrl(va)
		return key, va, false
	}
	ctrl, _ := t.mem.U64(addr + OffKeyCtrl)
	_, key = wqe.SplitCtrl(ctrl)
	return key, va, key != 0
}

// storeBucket writes key -> (valAddr, valLen) at addr, maintaining the
// entry count against the slot's previous state. Keys wider than 48
// bits, and the reserved ids, are rejected rather than silently
// truncated.
func (t *Table) storeBucket(addr, key, valAddr, valLen uint64) error {
	if key&^KeyMask != 0 {
		return fmt.Errorf("hopscotch: key %#x exceeds 48 bits", key)
	}
	if key&PendingBit != 0 {
		return fmt.Errorf("hopscotch: key %#x uses the reserved id space", key)
	}
	if _, _, resident := t.entry(addr); !resident {
		t.entries++
	}
	if err := t.mem.PutU64(addr+OffKeyCtrl, wqe.MakeCtrl(wqe.OpNoop, key)); err != nil {
		return err
	}
	if err := t.mem.PutU64(addr+OffValAddr, valAddr); err != nil {
		return err
	}
	return t.mem.PutU64(addr+OffValLen, valLen)
}

// Insert stores key -> (valAddr, valLen).
func (t *Table) Insert(key, valAddr, valLen uint64) error {
	addr, err := t.slotFor(key)
	if err != nil {
		return err
	}
	return t.storeBucket(addr, key, valAddr, valLen)
}

// InsertAt places key directly into the d-th slot of its fn-th
// neighborhood, overwriting any occupant — for experiments that force
// collisions (Fig 11 places every key in the second bucket) and for
// the service layer's offload-reachable placement.
func (t *Table) InsertAt(key, valAddr, valLen uint64, fn, d int) error {
	return t.storeBucket(t.BucketAddr(t.hash(key, fn)+uint64(d)), key, valAddr, valLen)
}

// WriteBucket stores key -> (valAddr, valLen) directly into bucket i,
// overwriting any occupant — the restore primitive behind kick-walk
// rollback, where an evictee (possibly a spilled resident that lives
// at neither of its candidate buckets) must go back to exactly the
// bucket it was taken from.
func (t *Table) WriteBucket(i, key, valAddr, valLen uint64) error {
	return t.storeBucket(t.BucketAddr(i), key, valAddr, valLen)
}

// maxKicks bounds Place's cuckoo relocation walk.
const maxKicks = 16

// Place stores key at one of its candidate buckets, relocating
// residents cuckoo-style (each moves to its other candidate) up to
// maxKicks deep, then spills the last evictee into a neighborhood slot:
// spilled reports that entry, which host Lookup finds but a NIC's
// exact-bucket probes miss. moved lists the residents the walk
// displaced, in walk order, so a caller that remembers where keys sit
// can forget theirs. A key already resident anywhere, a spilled one
// included, is overwritten in its own slot and reports no new spill.
// With a neighborhood of 1 nothing can spill, so Place is two-choice
// cuckoo placement. An error rolls the walk back: no resident is lost,
// and none is reported moved. A walk that reaches a bucket a fabric
// fresh claim holds mid-flight (an address beside key word 0: no key
// to re-place) fails with ErrClaimed.
func (t *Table) Place(key, valAddr, valLen uint64) (spilled bool, moved []uint64, err error) {
	if _, _, ok := t.find(key); ok {
		return false, nil, t.Insert(key, valAddr, valLen) // overwrites where it lives
	}
	// The kick walk records every displacement so a failed spill can be
	// rolled back: without the trail, an exhausted walk whose final
	// neighborhood insert also fails would lose the last evictee — a
	// previously acknowledged resident — forever.
	type move struct {
		bucket     uint64 // bucket index the evictee was taken from
		kk, va, vl uint64
	}
	var trail []move
	// undo puts each kicked resident back in exactly the bucket it was
	// taken from, newest first (by recorded index, not by hash: an
	// evictee may have been a spilled resident living at neither of its
	// candidate buckets), and fails with err without losing anyone.
	undo := func(err error) (bool, []uint64, error) {
		for i := len(trail) - 1; i >= 0; i-- {
			m := trail[i]
			if rerr := t.WriteBucket(m.bucket, m.kk, m.va, m.vl); rerr != nil {
				return false, nil, rerr
			}
		}
		return false, nil, err
	}
	curKey, curVa, curVl := key, valAddr, valLen
	fn := 0
	for kick := 0; ; kick++ {
		// A free candidate bucket ends the walk.
		for _, f := range []int{0, 1} {
			if t.FreeAt(t.Hash(curKey, f)) {
				return false, moved, t.InsertAt(curKey, curVa, curVl, f, 0)
			}
		}
		if kick == maxKicks {
			break
		}
		// Evict the resident of the fn-th candidate and re-place it at
		// its own alternate candidate on the next iteration.
		b := t.Hash(curKey, fn)
		vk, vva, vvl, ok := t.EntryAt(b)
		if !ok {
			return undo(ErrClaimed) // neither free nor a resident: a claim holds it
		}
		trail = append(trail, move{bucket: b, kk: vk, va: vva, vl: vvl})
		if err := t.InsertAt(curKey, curVa, curVl, fn, 0); err != nil {
			return undo(err)
		}
		moved = append(moved, vk)
		curKey, curVa, curVl = vk, vva, vvl
		if t.Hash(curKey, 0) == b {
			fn = 1
		} else {
			fn = 0
		}
	}
	// Walk exhausted: spill the last evictee into a neighborhood slot.
	if err := t.Insert(curKey, curVa, curVl); err != nil {
		return undo(err) // no room even in the neighborhoods
	}
	return true, moved, nil
}

// EntryAt reports bucket i's key and pointer whatever it holds, and a
// resident's host-written length; ok reports a resident, a key beside
// an address. The service layer's placement uses it to find cuckoo-kick
// victims — a deleted bucket is a reclaimable slot, not a resident —
// and its write router to read a free bucket's pointer: FreePtr, or the
// FreedPtr of the key that left it. valLen is the host-written word
// (see the package doc).
func (t *Table) EntryAt(i uint64) (key, valAddr, valLen uint64, ok bool) {
	addr := t.BucketAddr(i)
	if key, valAddr, ok = t.entry(addr); ok {
		valLen, _ = t.mem.U64(addr + OffValLen)
	}
	return key, valAddr, valLen, ok
}

// FreeAt reports whether a new key may take bucket i: its pointer is
// not an address. An address beside key word 0 is held by a fabric
// fresh claim in flight.
func (t *Table) FreeAt(i uint64) bool {
	va, err := t.mem.U64(t.BucketAddr(i) + OffValAddr)
	return err == nil && !address(va)
}

// Remove empties key's bucket if present — key word 0 beside FreePtr,
// length 0 — and returns the value extent it referenced, so the caller
// can retire it. The host-CPU delete path — the spilled-resident
// fallback the NIC delete chain cannot reach — and crash-recovery
// housekeeping both run through here.
func (t *Table) Remove(key uint64) (valAddr, valLen uint64, ok bool) {
	addr, _, ok := t.find(key)
	if !ok {
		return 0, 0, false
	}
	valAddr, _ = t.mem.U64(addr + OffValAddr)
	valLen, _ = t.mem.U64(addr + OffValLen)
	t.mem.PutU64(addr+OffKeyCtrl, 0)
	t.mem.PutU64(addr+OffValAddr, FreePtr)
	t.mem.PutU64(addr+OffValLen, 0)
	t.entries--
	return valAddr, valLen, true
}

// Delete removes key if present (emptying its bucket).
func (t *Table) Delete(key uint64) bool {
	_, _, ok := t.Remove(key)
	return ok
}

// find returns the address of key's bucket and which candidate (0 or
// 1) holds it, scanning both candidate neighborhoods; fn is -1 when
// the key is absent. A key word beside a free pointer is no resident:
// the key's own delete left it there.
func (t *Table) find(key uint64) (addr uint64, fn int, ok bool) {
	for fn := 0; fn < t.hashes; fn++ {
		h := t.hash(key, fn)
		for d := 0; d < t.neighborhood; d++ {
			addr := t.BucketAddr(h + uint64(d))
			ctrl, err := t.mem.U64(addr + OffKeyCtrl)
			if _, k := wqe.SplitCtrl(ctrl); err != nil || k == 0 || k != key&KeyMask {
				continue
			}
			if va, _ := t.mem.U64(addr + OffValAddr); address(va) {
				return addr, fn, true
			}
		}
	}
	return 0, -1, false
}

// Lookup is the host-CPU lookup used by two-sided baselines: scan both
// candidate neighborhoods for key. valLen is host-written (see the
// package doc).
func (t *Table) Lookup(key uint64) (valAddr, valLen uint64, ok bool) {
	addr, _, ok := t.find(key)
	if !ok {
		return 0, 0, false
	}
	valAddr, _ = t.mem.U64(addr + OffValAddr)
	valLen, _ = t.mem.U64(addr + OffValLen)
	return valAddr, valLen, true
}

// LookupBucket reports which candidate bucket (0-based hash function
// index) holds key, or -1. One-sided readers use it to model FaRM's
// neighborhood scan.
func (t *Table) LookupBucket(key uint64) int {
	_, fn, _ := t.find(key)
	return fn
}
