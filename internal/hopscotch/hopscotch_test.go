package hopscotch

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/wqe"
)

func newTable(t testing.TB, buckets uint64) (*Table, *mem.Memory) {
	t.Helper()
	m := mem.New(1 << 22)
	return New(m, buckets, 0), m
}

func TestInsertLookupDelete(t *testing.T) {
	tbl, _ := newTable(t, 256)
	if err := tbl.Insert(42, 0x1000, 64); err != nil {
		t.Fatal(err)
	}
	va, vl, ok := tbl.Lookup(42)
	if !ok || va != 0x1000 || vl != 64 {
		t.Fatalf("lookup: %v %v %v", va, vl, ok)
	}
	if _, _, ok := tbl.Lookup(43); ok {
		t.Fatal("phantom key")
	}
	if !tbl.Delete(42) {
		t.Fatal("delete failed")
	}
	if _, _, ok := tbl.Lookup(42); ok {
		t.Fatal("lookup after delete")
	}
	if tbl.Delete(42) {
		t.Fatal("double delete")
	}
}

func TestOverwrite(t *testing.T) {
	tbl, _ := newTable(t, 64)
	tbl.Insert(7, 0x1000, 8)
	tbl.Insert(7, 0x2000, 16)
	va, vl, _ := tbl.Lookup(7)
	if va != 0x2000 || vl != 16 {
		t.Fatalf("overwrite: %#x %d", va, vl)
	}
	if tbl.Len() != 1 {
		t.Fatalf("len %d", tbl.Len())
	}
}

func TestBucketLayoutMatchesWQEInjection(t *testing.T) {
	// The first 16 bytes of a bucket must be [MakeCtrl(NOOP,key),
	// valAddr] so one READ lands them on a WQE's [ctrl, src] fields.
	tbl, m := newTable(t, 64)
	tbl.Insert(0x1234, 0xabcd, 8)
	addr := tbl.BucketAddr(tbl.Hash(0x1234, 0))
	// May live in a neighborhood slot; find it.
	fn := tbl.LookupBucket(0x1234)
	if fn < 0 {
		t.Fatal("not found")
	}
	for d := 0; d < tbl.Neighborhood(); d++ {
		a := tbl.BucketAddr(tbl.Hash(0x1234, fn) + uint64(d))
		kc, _ := m.U64(a + OffKeyCtrl)
		if kc == wqe.MakeCtrl(wqe.OpNoop, 0x1234) {
			va, _ := m.U64(a + OffValAddr)
			if va != 0xabcd {
				t.Fatalf("valAddr %#x", va)
			}
			return
		}
	}
	_ = addr
	t.Fatal("bucket encoding not found")
}

func TestKeyWidthRejected(t *testing.T) {
	tbl, _ := newTable(t, 64)
	if err := tbl.Insert(1<<48, 1, 1); err == nil {
		t.Fatal("49-bit key accepted")
	}
}

func TestNeighborhoodCollisions(t *testing.T) {
	tbl, _ := newTable(t, 8) // tiny: force collisions
	inserted := 0
	for k := uint64(1); k <= 60; k++ {
		if err := tbl.Insert(k, k*16, 8); err != nil {
			break
		}
		inserted++
	}
	if inserted < 8 {
		t.Fatalf("only %d inserted before full", inserted)
	}
	for k := uint64(1); k <= uint64(inserted); k++ {
		va, _, ok := tbl.Lookup(k)
		if !ok || va != k*16 {
			t.Fatalf("key %d lost after collisions", k)
		}
	}
}

func TestInsertAtForcedBucket(t *testing.T) {
	tbl, _ := newTable(t, 256)
	tbl.InsertAt(5, 0x100, 8, 1, 0)
	if fn := tbl.LookupBucket(5); fn != 1 {
		t.Fatalf("key in bucket %d, want forced 1", fn)
	}
}

// Property: any set of distinct 20-bit keys inserted into a large table
// is fully retrievable with correct values.
func TestInsertLookupProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		tbl, _ := newTable(t, 4096)
		seen := map[uint64]uint64{}
		for i, r := range raw {
			if i >= 100 {
				break
			}
			k := uint64(r%0xFFFFF) + 1
			v := uint64(i + 1)
			if err := tbl.Insert(k, v, 8); err != nil {
				return true // full is acceptable
			}
			seen[k] = v
		}
		for k, v := range seen {
			va, _, ok := tbl.Lookup(k)
			if !ok || va != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Deletes tombstone buckets; inserts reclaim them, and an overwrite of
// a key that sits beyond an earlier hole must update the resident
// entry, never shadow it with a duplicate in the hole.
func TestTombstoneLifecycle(t *testing.T) {
	tbl, _ := newTable(t, 64)
	if err := tbl.Insert(5, 0x1000, 16); err != nil {
		t.Fatal(err)
	}
	if va, vl, ok := tbl.Remove(5); !ok || va != 0x1000 || vl != 16 {
		t.Fatalf("remove returned (%#x,%d,%v), want the extent", va, vl, ok)
	}
	if tbl.Tombstones() != 1 || tbl.Len() != 0 {
		t.Fatalf("tombstones=%d len=%d after remove", tbl.Tombstones(), tbl.Len())
	}
	if _, _, ok := tbl.Lookup(5); ok {
		t.Fatal("lookup found a tombstoned key")
	}
	if !tbl.TombstoneAt(tbl.Hash(5, 0)) {
		t.Fatal("TombstoneAt missed the tombstoned bucket")
	}
	if _, _, _, ok := tbl.EntryAt(tbl.Hash(5, 0)); ok {
		t.Fatal("EntryAt reported a tombstone as a resident")
	}
	// Reinsert reclaims the tombstone.
	if err := tbl.Insert(5, 0x2000, 16); err != nil {
		t.Fatal(err)
	}
	if tbl.Tombstones() != 0 || tbl.Len() != 1 {
		t.Fatalf("tombstones=%d len=%d after reinsert", tbl.Tombstones(), tbl.Len())
	}
}

// A hole opened in a neighborhood before a resident's slot must not
// swallow an overwrite of that resident: slotFor scans for the key
// across both neighborhoods before taking any free slot.
func TestOverwriteSkipsEarlierHole(t *testing.T) {
	tbl, _ := newTable(t, 64)
	const key = 9
	h := tbl.Hash(key, 0)
	// Occupy the first two slots of key's neighborhood with keys that
	// genuinely hash there (so Remove can find one), then place key in
	// the third slot.
	var fillers []uint64
	for k := uint64(1000000); len(fillers) < 2; k++ {
		if tbl.Hash(k, 0) == h {
			fillers = append(fillers, k)
		}
	}
	if err := tbl.InsertAt(fillers[0], 0x100, 8, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertAt(fillers[1], 0x200, 8, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertAt(key, 0x300, 8, 0, 2); err != nil {
		t.Fatal(err)
	}
	// Open a hole ahead of key (tombstone via Remove of the first
	// filler), then overwrite key.
	if _, _, ok := tbl.Remove(fillers[0]); !ok {
		t.Fatal("remove of filler failed")
	}
	if err := tbl.Insert(key, 0x999, 8); err != nil {
		t.Fatal(err)
	}
	// The resident slot must carry the new extent, and only one copy of
	// the key may exist in the neighborhood.
	copies := 0
	for d := 0; d < tbl.Neighborhood(); d++ {
		if k, va, _, ok := tbl.EntryAt(h + uint64(d)); ok && k == key {
			copies++
			if va != 0x999 {
				t.Fatalf("resident holds %#x, want the overwrite", va)
			}
		}
	}
	if copies != 1 {
		t.Fatalf("%d copies of the key after overwrite-past-hole, want 1", copies)
	}
}

// Inert under injection: whatever a table leaves in a bucket's key slot
// — never written, resident, tombstoned — and the word a fabric chain
// parks there decode as NOOPs. Lookup probes and write-chain claims
// both drop these words onto WQE control fields and let them execute.
func TestBucketWordsAreNoops(t *testing.T) {
	tbl, m := newTable(t, 64)
	for k := uint64(1); k <= 40; k++ {
		if err := tbl.Insert(k, k*16, 8); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= 40; k += 3 {
		tbl.Remove(k)
	}
	words := []uint64{Tombstone, PendingCtrl(7), PendingCtrl(KeyMask)}
	for i := uint64(0); i < tbl.NumBuckets(); i++ {
		w, err := m.U64(tbl.BucketAddr(i) + OffKeyCtrl)
		if err != nil {
			t.Fatal(err)
		}
		words = append(words, w)
	}
	for _, w := range words {
		if op, _ := wqe.SplitCtrl(w); op != wqe.OpNoop {
			t.Fatalf("bucket word %#x decodes as %v", w, op)
		}
	}
}

// The reserved tombstone id is not a usable key anywhere keys enter.
func TestTombstoneIDRejectedEverywhere(t *testing.T) {
	tbl, _ := newTable(t, 16)
	if err := tbl.Insert(TombstoneID, 0x1000, 8); err == nil {
		t.Fatal("Insert accepted the tombstone id")
	}
	if err := tbl.InsertAt(TombstoneID, 0x1000, 8, 0, 0); err == nil {
		t.Fatal("InsertAt accepted the tombstone id")
	}
	if err := tbl.WriteBucket(0, TombstoneID, 0x1000, 8); err == nil {
		t.Fatal("WriteBucket accepted the tombstone id")
	}
}

// Version words ride every versioned mutation: InsertV stamps, plain
// Insert (the standalone host path) preserves, RemoveV carries the
// delete's sequence onto the tombstone, and direct-placement variants
// stamp their buckets.
func TestVersionWord(t *testing.T) {
	tbl, _ := newTable(t, 256)
	if err := tbl.InsertV(42, 0x1000, 64, 7); err != nil {
		t.Fatal(err)
	}
	if v, ok := tbl.VersionOf(42); !ok || v != 7 {
		t.Fatalf("VersionOf = %d,%v want 7,true", v, ok)
	}
	// An unversioned overwrite (a standalone host set) must not regress
	// the version.
	if err := tbl.Insert(42, 0x2000, 64); err != nil {
		t.Fatal(err)
	}
	if v, _ := tbl.VersionOf(42); v != 7 {
		t.Fatalf("plain Insert clobbered the version: %d", v)
	}
	// A newer versioned overwrite advances it.
	if err := tbl.InsertV(42, 0x3000, 64, 9); err != nil {
		t.Fatal(err)
	}
	if v, _ := tbl.VersionOf(42); v != 9 {
		t.Fatalf("version after overwrite = %d, want 9", v)
	}
	// RemoveV stamps the tombstoned bucket with the delete's sequence.
	b := tbl.Hash(42, 0)
	var home uint64
	for fn := 0; fn < 2; fn++ {
		if k, _, _, ok := tbl.EntryAt(tbl.Hash(42, fn)); ok && k == 42 {
			home = tbl.Hash(42, fn)
		}
	}
	_ = b
	if _, _, ok := tbl.RemoveV(42, 10); !ok {
		t.Fatal("RemoveV missed a resident key")
	}
	if !tbl.TombstoneAt(home) {
		t.Fatal("RemoveV left no tombstone")
	}
	if v := tbl.VersionAt(home); v != 10 {
		t.Fatalf("tombstone version = %d, want 10", v)
	}
	if _, ok := tbl.VersionOf(42); ok {
		t.Fatal("VersionOf matched a tombstone")
	}
}

// InsertAtV / writeBucketV stamp the exact bucket they place into.
func TestVersionDirectPlacement(t *testing.T) {
	tbl, _ := newTable(t, 64)
	if err := tbl.InsertAtV(5, 0x100, 8, 3, 1, 0); err != nil {
		t.Fatal(err)
	}
	if v := tbl.VersionAt(tbl.Hash(5, 1)); v != 3 {
		t.Fatalf("InsertAtV version = %d, want 3", v)
	}
	if err := tbl.writeBucketV(17, 9, 0x200, 8, 4); err != nil {
		t.Fatal(err)
	}
	if v := tbl.VersionAt(17); v != 4 {
		t.Fatalf("writeBucketV version = %d, want 4", v)
	}
}

// Keys in the reserved id space miss on every host lookup. On a bucket
// holding the tombstone word (NOOP|TombstoneID) or a pending word
// (NOOP|(key|PendingBit)), comparing a reserved key's id would hit.
func TestReservedKeysMiss(t *testing.T) {
	tbl, m := newTable(t, 64)
	miss := func(key uint64) {
		t.Helper()
		if _, _, ok := tbl.Lookup(key); ok {
			t.Fatalf("Lookup(%#x) hit", key)
		}
		if fn := tbl.LookupBucket(key); fn != -1 {
			t.Fatalf("LookupBucket(%#x) = %d, want -1", key, fn)
		}
		if _, ok := tbl.VersionOf(key); ok {
			t.Fatalf("VersionOf(%#x) hit", key)
		}
	}
	// A tombstone in the tombstone id's own first candidate bucket.
	h := tbl.Hash(TombstoneID, 0)
	k := uint64(1)
	for tbl.Hash(k, 0) != h {
		k++
	}
	if err := tbl.InsertAt(k, 0x1000, 8, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tbl.Remove(k); !ok {
		t.Fatal("remove failed")
	}
	miss(TombstoneID)

	// A claimed-but-unpublished bucket where k|PendingBit hashes.
	const key = 9
	b := tbl.Hash(key|PendingBit, 0)
	if err := m.PutU64(tbl.BucketAddr(b)+OffKeyCtrl, PendingCtrl(key)); err != nil {
		t.Fatal(err)
	}
	miss(key | PendingBit)

	if err := tbl.Insert(key, 0x2000, 8); err != nil {
		t.Fatal(err)
	}
	if va, _, ok := tbl.Lookup(key); !ok || va != 0x2000 {
		t.Fatalf("valid key: Lookup = %#x,%v", va, ok)
	}
}

// newCuckoo is a two-choice cuckoo table: with a neighborhood of 1,
// Place has no slot to spill into.
func newCuckoo(t testing.TB, buckets uint64) (*Table, *mem.Memory) {
	t.Helper()
	m := mem.New(1 << 20)
	return New(m, buckets, 1), m
}

// bothTaken reports that key's two candidate buckets hold other keys:
// plain two-choice insertion has no slot for it.
func bothTaken(tbl *Table, key uint64) bool {
	for fn := 0; fn < 2; fn++ {
		if k, _, _, ok := tbl.EntryAt(tbl.Hash(key, fn)); !ok || k == key {
			return false
		}
	}
	return true
}

// Place relocates residents where plain two-choice insertion fails.
// Every placed key keeps its extent and its version through the kicks,
// and an overwrite stays in the key's bucket.
func TestPlaceDisplacement(t *testing.T) {
	tbl, _ := newCuckoo(t, 32)
	var keys []uint64
	kicked := false
	for k := uint64(1); k <= 200; k++ {
		taken := bothTaken(tbl, k)
		if spilled, err := tbl.Place(k, k*8, 8, k*10); err != nil {
			break
		} else if spilled {
			t.Fatalf("key %d spilled with a neighborhood of 1", k)
		}
		kicked = kicked || taken
		keys = append(keys, k)
	}
	if !kicked {
		t.Fatal("no placement needed a kick — test shape is wrong")
	}
	if len(keys) < 12 { // single-slot cuckoo tops out near 50% load
		t.Fatalf("only %d keys before full", len(keys))
	}
	for _, k := range keys {
		va, _, ok := tbl.Lookup(k)
		ver, _ := tbl.VersionOf(k)
		if !ok || va != k*8 || ver != k*10 {
			t.Fatalf("key %d: (%#x, v%d, %v), want (%#x, v%d)", k, va, ver, ok, k*8, k*10)
		}
	}
	if tbl.Len() != len(keys) {
		t.Fatalf("len %d, want %d", tbl.Len(), len(keys))
	}
	k := keys[len(keys)-1]
	before := tbl.LookupBucket(k)
	if _, err := tbl.Place(k, 0x9000, 16, 1); err != nil {
		t.Fatal(err)
	}
	if va, vl, _ := tbl.Lookup(k); va != 0x9000 || vl != 16 || tbl.LookupBucket(k) != before {
		t.Fatalf("overwrite: (%#x, %d) in bucket %d, want (0x9000, 16) in %d", va, vl, tbl.LookupBucket(k), before)
	}
}

// Random sets and deletes on a small table: an acknowledged key is
// never lost, and a Place that finds the table full rolls its walk
// back — every bucket word, versions included, is as it was.
func TestPlaceFullTableRollsBack(t *testing.T) {
	tbl, m := newCuckoo(t, 32)
	words := func() []uint64 {
		w := make([]uint64, 0, tbl.Size()/8)
		for off := uint64(0); off < tbl.Size(); off += 8 {
			v, _ := m.U64(tbl.Base() + off)
			w = append(w, v)
		}
		return w
	}
	type ent struct{ va, ver uint64 }
	model := map[uint64]ent{}
	rng := rand.New(rand.NewSource(11))
	fulls := 0
	for i := 0; i < 4000; i++ {
		key := uint64(rng.Intn(64) + 1)
		va, ver := uint64(0x1000+i*8), uint64(i+1)
		_, present := model[key]
		switch {
		case rng.Intn(10) >= 7:
			if _, _, ok := tbl.Remove(key); ok != present {
				t.Fatalf("step %d: Remove(%d) = %v, model says %v", i, key, ok, present)
			}
			delete(model, key)
		case present:
			if err := tbl.InsertV(key, va, 8, ver); err != nil {
				t.Fatalf("step %d: overwrite: %v", i, err)
			}
			model[key] = ent{va, ver}
		default:
			before := words()
			if _, err := tbl.Place(key, va, 8, ver); err == nil {
				model[key] = ent{va, ver}
			} else if !errors.Is(err, ErrFull) {
				t.Fatalf("step %d: %v", i, err)
			} else if fulls++; !slices.Equal(before, words()) {
				t.Fatalf("step %d: a refused Place changed bucket memory", i)
			}
		}
		for k, e := range model {
			va, _, ok := tbl.Lookup(k)
			ver, _ := tbl.VersionOf(k)
			if !ok || va != e.va || ver != e.ver {
				t.Fatalf("step %d: key %d is (%#x, v%d, %v), want (%#x, v%d)", i, k, va, ver, ok, e.va, e.ver)
			}
		}
	}
	if fulls == 0 {
		t.Fatal("no walk ran dry — table too large to exercise rollback")
	}
}

// A kick walk that reaches a tombstoned bucket reclaims it: the evictee
// lands there instead of displacing further.
func TestPlaceReclaimsTombstones(t *testing.T) {
	tbl, _ := newCuckoo(t, 64)
	for k := uint64(1); k <= 24; k++ {
		if _, err := tbl.Place(k, k*8, 8, 0); err != nil {
			t.Fatal(err)
		}
	}
	// x's first candidate holds r, whose other candidate (not one of
	// x's) holds a: tombstone a, and x's walk kicks r into its slot.
	for x := uint64(1000); x < 100000; x++ {
		if !bothTaken(tbl, x) {
			continue
		}
		b0 := tbl.Hash(x, 0)
		r, _, _, _ := tbl.EntryAt(b0)
		alt := tbl.Hash(r, 0)
		if alt == b0 {
			alt = tbl.Hash(r, 1)
		}
		a, _, _, ok := tbl.EntryAt(alt)
		if alt == b0 || alt == tbl.Hash(x, 1) || !ok {
			continue
		}
		if _, _, ok := tbl.Remove(a); !ok || tbl.Tombstones() != 1 {
			t.Fatalf("remove(%d) = %v, tombstones %d", a, ok, tbl.Tombstones())
		}
		if spilled, err := tbl.Place(x, 0x5000, 8, 0); err != nil || spilled {
			t.Fatalf("place: spilled=%v err=%v", spilled, err)
		}
		if k, _, _, _ := tbl.EntryAt(alt); k != r || tbl.Tombstones() != 0 {
			t.Fatalf("bucket %d holds %d with %d tombstones, want %d reclaimed", alt, k, tbl.Tombstones(), r)
		}
		if k, _, _, _ := tbl.EntryAt(b0); k != x || tbl.Len() != 24 {
			t.Fatalf("bucket %d holds %d, len %d; want %d, 24", b0, k, tbl.Len(), x)
		}
		return
	}
	t.Fatal("no key's walk reaches a removable resident")
}

// A key spilled into a neighborhood slot is overwritten where it lives:
// Place must not take a free candidate bucket for a second copy and
// leave the spilled one pointing at the extent the caller retires.
func TestPlaceOverwritesSpilledResident(t *testing.T) {
	tbl, _ := newTable(t, 64)
	const key = 42
	if err := tbl.InsertAtV(key, 0x1000, 8, 1, 0, 2); err != nil {
		t.Fatal(err)
	}
	spilled, err := tbl.Place(key, 0x2000, 16, 2)
	if err != nil || spilled {
		t.Fatalf("place: spilled=%v err=%v", spilled, err)
	}
	var holders []uint64
	for i := uint64(0); i < tbl.NumBuckets(); i++ {
		if k, _, _, ok := tbl.EntryAt(i); ok && k == key {
			holders = append(holders, i)
		}
	}
	if want := (tbl.Hash(key, 0) + 2) % tbl.NumBuckets(); len(holders) != 1 || holders[0] != want {
		t.Fatalf("key held by buckets %v, want only %d", holders, want)
	}
	va, vl, _ := tbl.Lookup(key)
	if ver, _ := tbl.VersionOf(key); va != 0x2000 || vl != 16 || ver != 2 || tbl.Len() != 1 {
		t.Fatalf("entry (%#x, %d, v%d), len %d; want (0x2000, 16, v2), len 1", va, vl, ver, tbl.Len())
	}
}
