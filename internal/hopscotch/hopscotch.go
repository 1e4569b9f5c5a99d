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
// as the paper requires of Memcached's buckets.
package hopscotch

import (
	"errors"
	"fmt"

	"repro/internal/mem"
	"repro/internal/wqe"
)

// BucketSize is the on-memory size of a bucket in bytes.
const BucketSize = 32

// Bucket field offsets.
const (
	OffKeyCtrl = 0  // MakeCtrl(OpNoop, key48); zero means empty
	OffValAddr = 8  // address of the value bytes
	OffValLen  = 16 // value length in bytes
	OffVersion = 24 // per-key write version (the coordinator's quorum sequence)
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

// ErrFull reports that neither candidate neighborhood has room.
var ErrFull = errors.New("hopscotch: table full (both neighborhoods exhausted)")

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
// (0 selects DefaultNeighborhood).
func New(m *mem.Memory, nBuckets uint64, neighborhood int) *Table {
	n := uint64(1)
	for n < nBuckets {
		n <<= 1
	}
	if neighborhood <= 0 {
		neighborhood = DefaultNeighborhood
	}
	base := m.Alloc(n*BucketSize, 64)
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
				if free == 0 {
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

// VersionAt returns the version word of bucket i. The version is the
// coordinator's per-key quorum sequence, stamped by every versioned
// write and delete; replicas compare it to detect divergence (probe
// chains read it over RDMA, the repair subsystem rolls laggards
// forward). It lives in the bucket's fourth word — outside the 16 bytes
// a lookup probe READ injects — so carrying it costs the inert-under-
// injection invariant nothing.
func (t *Table) VersionAt(i uint64) uint64 {
	v, _ := t.mem.U64(t.BucketAddr(i) + OffVersion)
	return v
}

// setVersionAt stamps bucket i's version word.
func (t *Table) setVersionAt(i, ver uint64) error {
	return t.mem.PutU64(t.BucketAddr(i)+OffVersion, ver)
}

// VersionOf returns the version word of key's bucket (ok=false when
// absent).
func (t *Table) VersionOf(key uint64) (uint64, bool) {
	addr, _, ok := t.find(key)
	if !ok {
		return 0, false
	}
	v, _ := t.mem.U64(addr + OffVersion)
	return v, true
}

// storeBucket writes key -> (valAddr, valLen) at addr, maintaining the
// entry and tombstone accounting against the slot's previous state.
// The version word is left untouched: unversioned writes (compaction
// relocations, raw test plumbing) must not regress a version a fabric
// chain already published — versioned paths go through the *V variants.
func (t *Table) storeBucket(addr, key, valAddr, valLen uint64) error {
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

// Insert stores key -> (valAddr, valLen). Keys wider than 48 bits —
// and the reserved tombstone id — are rejected rather than silently
// truncated.
func (t *Table) Insert(key, valAddr, valLen uint64) error {
	if key&^KeyMask != 0 {
		return fmt.Errorf("hopscotch: key %#x exceeds 48 bits", key)
	}
	if key&PendingBit != 0 {
		return fmt.Errorf("hopscotch: key %#x uses the reserved pending/tombstone id space", key)
	}
	addr, err := t.slotFor(key)
	if err != nil {
		return err
	}
	return t.storeBucket(addr, key, valAddr, valLen)
}

// InsertV is Insert stamping ver into the stored bucket's version word
// — the host-path sibling of the fabric set chain's version WRITE.
func (t *Table) InsertV(key, valAddr, valLen, ver uint64) error {
	if key&^KeyMask != 0 {
		return fmt.Errorf("hopscotch: key %#x exceeds 48 bits", key)
	}
	if key&PendingBit != 0 {
		return fmt.Errorf("hopscotch: key %#x uses the reserved pending/tombstone id space", key)
	}
	addr, err := t.slotFor(key)
	if err != nil {
		return err
	}
	if err := t.storeBucket(addr, key, valAddr, valLen); err != nil {
		return err
	}
	return t.mem.PutU64(addr+OffVersion, ver)
}

// InsertAt places key directly into the d-th slot of its fn-th
// neighborhood, overwriting any occupant — for experiments that force
// collisions (Fig 11 places every key in the second bucket) and for
// the service layer's offload-reachable placement.
func (t *Table) InsertAt(key, valAddr, valLen uint64, fn, d int) error {
	if key&^KeyMask != 0 {
		return fmt.Errorf("hopscotch: key %#x exceeds 48 bits", key)
	}
	if key&PendingBit != 0 {
		return fmt.Errorf("hopscotch: key %#x uses the reserved pending/tombstone id space", key)
	}
	return t.storeBucket(t.BucketAddr(t.hash(key, fn)+uint64(d)), key, valAddr, valLen)
}

// InsertAtV is InsertAt stamping ver into the bucket's version word —
// the service layer's versioned placement (kick walks carry each
// evictee's version along with its entry).
func (t *Table) InsertAtV(key, valAddr, valLen, ver uint64, fn, d int) error {
	if err := t.InsertAt(key, valAddr, valLen, fn, d); err != nil {
		return err
	}
	return t.setVersionAt(t.hash(key, fn)+uint64(d), ver)
}

// WriteBucket stores key -> (valAddr, valLen) directly into bucket i,
// overwriting any occupant — the restore primitive behind kick-walk
// rollback, where an evictee (possibly a spilled resident that lives
// at neither of its candidate buckets) must go back to exactly the
// bucket it was taken from.
func (t *Table) WriteBucket(i, key, valAddr, valLen uint64) error {
	if key&^KeyMask != 0 {
		return fmt.Errorf("hopscotch: key %#x exceeds 48 bits", key)
	}
	if key&PendingBit != 0 {
		return fmt.Errorf("hopscotch: key %#x uses the reserved pending/tombstone id space", key)
	}
	return t.storeBucket(t.BucketAddr(i), key, valAddr, valLen)
}

// writeBucketV is WriteBucket stamping ver into the bucket's version
// word — the restore primitive for Place's versioned rollback.
func (t *Table) writeBucketV(i, key, valAddr, valLen, ver uint64) error {
	if err := t.WriteBucket(i, key, valAddr, valLen); err != nil {
		return err
	}
	return t.setVersionAt(i, ver)
}

// maxKicks bounds Place's cuckoo relocation walk.
const maxKicks = 16

// Place stores key at one of its candidate buckets, relocating
// residents cuckoo-style (each moves to its other candidate) up to
// maxKicks deep, then spills the last evictee into a neighborhood slot:
// spilled reports that entry, which host Lookup finds but a NIC's
// exact-bucket probes miss. A key already resident anywhere, a spilled
// one included, is overwritten in its own slot and reports no new
// spill. With a neighborhood of 1 nothing can spill, so Place is
// two-choice cuckoo placement. An error rolls the walk back: no
// resident is lost.
func (t *Table) Place(key, valAddr, valLen, ver uint64) (spilled bool, err error) {
	if _, _, ok := t.find(key); ok {
		return false, t.InsertV(key, valAddr, valLen, ver) // overwrites where it lives
	}
	// The kick walk records every displacement so a failed spill can be
	// rolled back: without the trail, an exhausted walk whose final
	// neighborhood insert also fails would lose the last evictee — a
	// previously acknowledged resident — forever. Versions travel with
	// their entries: an evictee's version moves (and rolls back) along
	// with its key and extent pointer.
	type move struct {
		bucket          uint64 // bucket index the evictee was taken from
		kk, va, vl, ver uint64
	}
	var trail []move
	curKey, curVa, curVl, curVer := key, valAddr, valLen, ver
	fn := 0
	for kick := 0; ; kick++ {
		// A free candidate bucket ends the walk.
		for _, f := range []int{0, 1} {
			if _, _, _, ok := t.EntryAt(t.Hash(curKey, f)); !ok {
				return false, t.InsertAtV(curKey, curVa, curVl, curVer, f, 0)
			}
		}
		if kick == maxKicks {
			break
		}
		// Evict the resident of the fn-th candidate and re-place it at
		// its own alternate candidate on the next iteration.
		b := t.Hash(curKey, fn)
		vk, vva, vvl, _ := t.EntryAt(b)
		vver := t.VersionAt(b)
		trail = append(trail, move{bucket: b, kk: vk, va: vva, vl: vvl, ver: vver})
		if err := t.InsertAtV(curKey, curVa, curVl, curVer, fn, 0); err != nil {
			return false, err
		}
		curKey, curVa, curVl, curVer = vk, vva, vvl, vver
		if t.Hash(curKey, 0) == b {
			fn = 1
		} else {
			fn = 0
		}
	}
	// Walk exhausted: spill the last evictee into a neighborhood slot.
	if err := t.InsertV(curKey, curVa, curVl, curVer); err != nil {
		// No room even in the neighborhoods: undo the walk — each
		// kicked resident goes back to exactly the bucket it was taken
		// from (by recorded index, not by hash: an evictee may have
		// been a spilled resident living at neither of its candidate
		// buckets) — and fail without losing anyone.
		for i := len(trail) - 1; i >= 0; i-- {
			m := trail[i]
			if rerr := t.writeBucketV(m.bucket, m.kk, m.va, m.vl, m.ver); rerr != nil {
				return false, rerr
			}
		}
		return false, err
	}
	return true, nil
}

// EntryAt reports the entry stored in bucket i (ok=false when empty or
// tombstoned). The service layer's placement uses it to find
// cuckoo-kick victims — a tombstoned bucket is a reclaimable slot, not
// a resident.
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
	return t.remove(key, 0, false)
}

// RemoveV is Remove stamping ver into the tombstoned bucket's version
// word — the host-path sibling of the fabric delete chain's version
// WRITE, so a tombstone carries the delete's quorum sequence and the
// repair subsystem can order it against live replicas.
func (t *Table) RemoveV(key, ver uint64) (valAddr, valLen uint64, ok bool) {
	return t.remove(key, ver, true)
}

func (t *Table) remove(key, ver uint64, stamp bool) (valAddr, valLen uint64, ok bool) {
	addr, _, ok := t.find(key)
	if !ok {
		return 0, 0, false
	}
	valAddr, _ = t.mem.U64(addr + OffValAddr)
	valLen, _ = t.mem.U64(addr + OffValLen)
	t.mem.PutU64(addr+OffKeyCtrl, Tombstone)
	t.mem.PutU64(addr+OffValAddr, 0)
	t.mem.PutU64(addr+OffValLen, 0)
	if stamp {
		t.mem.PutU64(addr+OffVersion, ver)
	}
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
// candidate neighborhoods for key.
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
