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
// keep it clear (Insert rejects violators), so NOOP|(key|PendingBit) is
// a per-key bucket word that can never be a resident entry. Fabric
// write and delete chains park a bucket on it between claiming and
// publishing. The whole family of special bucket words — zero,
// tombstone, pending — shares the NOOP opcode deliberately: a lookup
// chain's probe READ copies the bucket word VERBATIM onto its response
// WQE's control field, so any non-NOOP opcode in a bucket would arm
// the response and serve whatever stale pointer the bucket carries.
// Write chains inject too: a claim CAS returns the bucket's old word onto
// the WQE the claim guards, where a refused claim leaves it to execute.
// Inert-under-injection is the safety invariant of every bucket word.
const PendingBit = uint64(1) << 47

// TombstoneID is the reserved 48-bit id marking a deleted bucket; keys
// of this value are rejected by Insert (it has PendingBit set, so the
// general reservation already excludes it). The tombstone control word
// is a NOOP — inert under probe injection, and the conditional CAS
// compares against NOOP|key which can never match the reserved id —
// so a tombstoned bucket misses on the NIC path with no special
// casing.
const TombstoneID = wqe.IDMask

// PendingCtrl returns the claimed-but-unpublished bucket word for key:
// inert under probe injection (NOOP opcode), matching no lookup's
// conditional (reserved id bit), yet key-specific so only the claiming
// chain's follow-up CAS can advance it.
func PendingCtrl(key uint64) uint64 {
	return wqe.MakeCtrl(wqe.OpNoop, (key&KeyMask)|PendingBit)
}

// Tombstone is the bucket control word of a deleted entry:
// NOOP | TombstoneID. Distinct from zero so a delete chain's CAS can
// tell "deleted" from "never present", yet executable as a harmless
// NOOP anywhere self-modifying machinery copies it.
var Tombstone = wqe.MakeCtrl(wqe.OpNoop, TombstoneID)

// FreePtr is the value pointer every free bucket — empty or tombstoned —
// holds, and no resident's can: its opcode bits are a WRITE, and every
// address is below them. A fabric fresh claim (internal/core) swaps it
// for its staging extent with one CAS, whose returned word lands on the
// control field of the claim's publishing WRITE: the free pointer arms
// that WRITE, any address (the bucket was taken first) leaves it a
// NOOP. Where a bucket word is inert under injection, this pointer is
// executable on purpose. A bucket whose key word is free but whose
// pointer is not is held by a fabric claim or delete in flight: the
// host neither places into it nor walks through it (FreeAt), as with a
// pending word.
var FreePtr = wqe.MakeCtrl(wqe.OpWrite, 0)

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
	tombstones   int
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

// Len returns the number of stored entries.
func (t *Table) Len() int { return t.entries }

// Tombstones returns the number of buckets currently holding delete
// tombstones. Tombstoned buckets are reclaimed by the next insert (or
// kick walk) that reaches them, so the count falls as churn reuses the
// slots. Like Len, this tracks HOST-path mutations only: fabric chains
// write bucket memory directly, so under mixed fabric/host traffic the
// counters are an approximation (scan TombstoneAt for ground truth).
func (t *Table) Tombstones() int { return t.tombstones }

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
// else the first empty or tombstoned slot (inserts reclaim tombstones).
func (t *Table) slotFor(key uint64) (uint64, error) {
	free := uint64(0)
	for fn := 0; fn < t.hashes; fn++ {
		h := t.hash(key, fn)
		for d := 0; d < t.neighborhood; d++ {
			addr := t.BucketAddr(h + uint64(d))
			ctrl, err := t.mem.U64(addr + OffKeyCtrl)
			if err != nil {
				return 0, err
			}
			if ctrl == 0 || ctrl == Tombstone {
				if free == 0 && t.free(addr) {
					free = addr
				}
				continue
			}
			if _, k := wqe.SplitCtrl(ctrl); k == key&KeyMask {
				return addr, nil // overwrite existing
			}
		}
	}
	if free != 0 {
		return free, nil
	}
	return 0, ErrFull
}

// storeBucket writes key -> (valAddr, valLen) at addr, maintaining the
// entry and tombstone accounting against the slot's previous state.
// Keys wider than 48 bits, and the reserved ids, are rejected rather
// than silently truncated.
func (t *Table) storeBucket(addr, key, valAddr, valLen uint64) error {
	if key&^KeyMask != 0 {
		return fmt.Errorf("hopscotch: key %#x exceeds 48 bits", key)
	}
	if key&PendingBit != 0 {
		return fmt.Errorf("hopscotch: key %#x uses the reserved pending/tombstone id space", key)
	}
	prev, _ := t.mem.U64(addr + OffKeyCtrl)
	if err := t.mem.PutU64(addr+OffKeyCtrl, wqe.MakeCtrl(wqe.OpNoop, key)); err != nil {
		return err
	}
	if err := t.mem.PutU64(addr+OffValAddr, valAddr); err != nil {
		return err
	}
	if err := t.mem.PutU64(addr+OffValLen, valLen); err != nil {
		return err
	}
	if prev == Tombstone {
		// Clamped: fabric chains install tombstones directly in bucket
		// memory without touching these host-side counters, so a host
		// insert can reclaim a tombstone the counter never saw.
		if t.tombstones > 0 {
			t.tombstones--
		}
		t.entries++
	} else if prev == 0 {
		t.entries++
	}
	return nil
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
// claim holds mid-flight (its PENDING word names no key to re-place)
// fails with ErrClaimed.
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
		if !ok || vk&PendingBit != 0 {
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

// EntryAt reports the entry stored in bucket i (ok=false when empty or
// tombstoned). The service layer's placement uses it to find
// cuckoo-kick victims — a tombstoned bucket is a reclaimable slot, not
// a resident. valLen is the host-written word (see the package doc).
func (t *Table) EntryAt(i uint64) (key, valAddr, valLen uint64, ok bool) {
	addr := t.BucketAddr(i)
	ctrl, err := t.mem.U64(addr + OffKeyCtrl)
	if err != nil || ctrl == 0 || ctrl == Tombstone {
		return 0, 0, 0, false
	}
	_, key = wqe.SplitCtrl(ctrl)
	valAddr, _ = t.mem.U64(addr + OffValAddr)
	valLen, _ = t.mem.U64(addr + OffValLen)
	return key, valAddr, valLen, true
}

// FreeAt reports whether a new key may take bucket i: its key word is
// empty or a tombstone, and it names FreePtr. A free key word beside
// another pointer is held by a fabric claim or delete in flight.
func (t *Table) FreeAt(i uint64) bool {
	return t.free(t.BucketAddr(i))
}

func (t *Table) free(addr uint64) bool {
	ctrl, _ := t.mem.U64(addr + OffKeyCtrl)
	va, _ := t.mem.U64(addr + OffValAddr)
	return (ctrl == 0 || ctrl == Tombstone) && va == FreePtr
}

// TombstoneAt reports whether bucket i holds a delete tombstone. The
// write router needs the distinction: claiming a tombstoned bucket
// CASes against the tombstone word, claiming an empty one against
// zero.
func (t *Table) TombstoneAt(i uint64) bool {
	ctrl, _ := t.mem.U64(t.BucketAddr(i) + OffKeyCtrl)
	return ctrl == Tombstone
}

// Remove tombstones key's bucket if present and returns the value
// extent it referenced, so the caller can retire it. The host-CPU
// delete path — the spilled-resident fallback the NIC delete chain
// cannot reach — and crash-recovery housekeeping both run through
// here.
func (t *Table) Remove(key uint64) (valAddr, valLen uint64, ok bool) {
	addr, _, ok := t.find(key)
	if !ok {
		return 0, 0, false
	}
	valAddr, _ = t.mem.U64(addr + OffValAddr)
	valLen, _ = t.mem.U64(addr + OffValLen)
	t.mem.PutU64(addr+OffKeyCtrl, Tombstone)
	t.mem.PutU64(addr+OffValAddr, FreePtr)
	t.mem.PutU64(addr+OffValLen, 0)
	t.entries--
	t.tombstones++
	return valAddr, valLen, true
}

// Delete removes key if present (tombstoning its bucket).
func (t *Table) Delete(key uint64) bool {
	_, _, ok := t.Remove(key)
	return ok
}

// find returns the address of key's bucket and which candidate (0 or
// 1) holds it, scanning both candidate neighborhoods; fn is -1 when
// the key is absent. Keys in the reserved id space never match: their
// control words are the tombstone and pending markers, so comparing
// them would phantom-hit a deleted or claimed bucket.
func (t *Table) find(key uint64) (addr uint64, fn int, ok bool) {
	if key&PendingBit != 0 {
		return 0, -1, false
	}
	for fn := 0; fn < t.hashes; fn++ {
		h := t.hash(key, fn)
		for d := 0; d < t.neighborhood; d++ {
			addr := t.BucketAddr(h + uint64(d))
			ctrl, err := t.mem.U64(addr + OffKeyCtrl)
			if err != nil || ctrl == 0 {
				continue
			}
			if _, k := wqe.SplitCtrl(ctrl); k == key&KeyMask {
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
