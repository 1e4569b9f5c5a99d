package hopscotch

import (
	"bytes"
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

// fabricDelete does to key's bucket what a fabric delete's one CAS
// does: it swaps the key's extent for FreedPtr(key), keeping the key
// word. It returns the bucket's index.
func fabricDelete(t testing.TB, tbl *Table, m *mem.Memory, key uint64) uint64 {
	t.Helper()
	addr, _, ok := tbl.find(key)
	if !ok {
		t.Fatalf("fabric delete of absent key %d", key)
	}
	if err := m.PutU64(addr+OffValAddr, FreedPtr(key)); err != nil {
		t.Fatal(err)
	}
	return (addr - tbl.Base()) / BucketSize
}

// A host Remove empties its bucket, key word 0 beside FreePtr; a fabric
// delete leaves the key's word beside its freed pointer. Either way the
// key misses, the bucket is free and no resident, and an insert reclaims
// it; an overwrite of a key that sits beyond an earlier hole must update
// the resident entry, never shadow it with a duplicate in the hole.
func TestTombstoneLifecycle(t *testing.T) {
	tbl, m := newTable(t, 64)
	if err := tbl.Insert(5, 0x1000, 16); err != nil {
		t.Fatal(err)
	}
	if va, vl, ok := tbl.Remove(5); !ok || va != 0x1000 || vl != 16 {
		t.Fatalf("remove returned (%#x,%d,%v), want the extent", va, vl, ok)
	}
	b := tbl.Hash(5, 0)
	if k, va, vl, ok := tbl.EntryAt(b); k != 0 || va != FreePtr || vl != 0 || ok || tbl.Len() != 0 {
		t.Fatalf("after remove: bucket (%d, %#x, %d, resident %v), len %d; want (0, FreePtr, 0), none", k, va, vl, ok, tbl.Len())
	}
	// Reinsert reclaims the bucket.
	if err := tbl.Insert(5, 0x2000, 16); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("len=%d after reinsert", tbl.Len())
	}
	b = fabricDelete(t, tbl, m, 5)
	if _, _, ok := tbl.Lookup(5); ok || tbl.LookupBucket(5) != -1 {
		t.Fatal("lookup found a fabric-deleted key")
	}
	if k, va, _, ok := tbl.EntryAt(b); k != 5 || va != FreedPtr(5) || ok || !tbl.FreeAt(b) {
		t.Fatalf("after a fabric delete: bucket (%d, %#x, resident %v), free %v; want (5, FreedPtr(5)), free", k, va, ok, tbl.FreeAt(b))
	}
	if _, _, ok := tbl.Remove(5); ok {
		t.Fatal("host Remove found a fabric-deleted key")
	}
	if err := tbl.Insert(5, 0x3000, 16); err != nil {
		t.Fatal(err)
	}
	if va, _, ok := tbl.Lookup(5); !ok || va != 0x3000 || tbl.LookupBucket(5) != 0 {
		t.Fatalf("reinsert after a fabric delete: lookup (%#x, %v), bucket %d", va, ok, tbl.LookupBucket(5))
	}
}

// The pointer rule, bucket by bucket: a key is resident only while its
// pointer is an address, and a bucket is free iff its pointer is not.
// Host lookups, EntryAt and FreeAt agree on every state a bucket can
// be in: empty, resident, emptied by a host Remove, freed by a fabric
// delete, reused by another key, and held by a fresh claim in flight
// (an address beside key word 0). Placed as control words, the free
// pointer is a WRITE, a freed one a MAX and an address a NOOP.
func TestFreedPointerRule(t *testing.T) {
	tbl, m := newTable(t, 64)
	const a, b = 5, 6
	bucket := tbl.Hash(a, 0)
	addr := tbl.BucketAddr(bucket)
	check := func(state string, key, va uint64, resident, free bool) {
		t.Helper()
		k, v, _, ok := tbl.EntryAt(bucket)
		if k != key || v != va || ok != resident || tbl.FreeAt(bucket) != free {
			t.Fatalf("%s: EntryAt (%d, %#x, resident %v), free %v; want (%d, %#x, resident %v), free %v",
				state, k, v, ok, tbl.FreeAt(bucket), key, va, resident, free)
		}
		if _, _, found := tbl.Lookup(key); key != 0 && found != resident {
			t.Fatalf("%s: Lookup(%d) found %v, want %v", state, key, found, resident)
		}
	}
	check("empty", 0, FreePtr, false, true)
	if err := tbl.InsertAt(a, 0x1000, 8, 0, 0); err != nil {
		t.Fatal(err)
	}
	check("resident", a, 0x1000, true, false)
	tbl.Remove(a)
	check("emptied", 0, FreePtr, false, true)
	tbl.InsertAt(a, 0x1000, 8, 0, 0)
	fabricDelete(t, tbl, m, a)
	check("freed", a, FreedPtr(a), false, true)
	if tbl.Len() != 1 {
		t.Fatalf("len %d: a fabric delete is no host mutation", tbl.Len())
	}
	if err := tbl.WriteBucket(bucket, b, 0x2000, 8); err != nil {
		t.Fatal(err)
	}
	check("reused", b, 0x2000, true, false)
	if _, _, ok := tbl.Lookup(a); ok {
		t.Fatal("the deleted key is resident again")
	}
	m.PutU64(addr+OffKeyCtrl, 0)
	check("claimed", 0, 0x2000, false, false)
	for _, c := range []struct {
		ptr uint64
		op  wqe.Opcode
	}{{FreePtr, wqe.OpWrite}, {FreedPtr(a), wqe.OpMax}, {FreedPtr(KeyMask), wqe.OpMax}, {0x2000, wqe.OpNoop}} {
		if op, _ := wqe.SplitCtrl(c.ptr); op != c.op {
			t.Fatalf("pointer %#x decodes as %v, want %v", c.ptr, op, c.op)
		}
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
	// Open a hole ahead of key (Remove of the first filler), then
	// overwrite key.
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
// — never written, resident, emptied by a host Remove, kept by a fabric
// delete — decodes as a NOOP. Lookup probes and write-chain claims both
// drop these words onto WQE control fields and let them execute.
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
	for k := uint64(2); k <= 40; k += 3 {
		fabricDelete(t, tbl, m, k)
	}
	var words []uint64
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

// The reserved id space is not a usable key anywhere keys enter: its
// top id (KeyMask) is rejected as every PendingBit key is.
func TestTombstoneIDRejectedEverywhere(t *testing.T) {
	tbl, _ := newTable(t, 16)
	if err := tbl.Insert(KeyMask, 0x1000, 8); err == nil {
		t.Fatal("Insert accepted a reserved id")
	}
	if err := tbl.InsertAt(KeyMask, 0x1000, 8, 0, 0); err == nil {
		t.Fatal("InsertAt accepted a reserved id")
	}
	if err := tbl.WriteBucket(0, KeyMask, 0x1000, 8); err == nil {
		t.Fatal("WriteBucket accepted a reserved id")
	}
}

// Key 0 and the reserved ids miss on every host lookup, and so does a
// fabric-deleted key, whose word its bucket kept: key 0's word is an
// empty bucket's, and a key word beside a free pointer is no resident.
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
	}
	miss(0)
	miss(KeyMask)
	const key = 9
	if err := tbl.Insert(key, 0x2000, 8); err != nil {
		t.Fatal(err)
	}
	if va, _, ok := tbl.Lookup(key); !ok || va != 0x2000 {
		t.Fatalf("valid key: Lookup = %#x,%v", va, ok)
	}
	miss(key | PendingBit)
	fabricDelete(t, tbl, m, key)
	miss(key)
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
// Every placed key keeps its extent and its length through the kicks,
// and an overwrite stays in the key's bucket.
func TestPlaceDisplacement(t *testing.T) {
	tbl, _ := newCuckoo(t, 32)
	var keys []uint64
	kicked := false
	for k := uint64(1); k <= 200; k++ {
		taken := bothTaken(tbl, k)
		if spilled, _, err := tbl.Place(k, k*8, k*10); err != nil {
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
		va, vl, ok := tbl.Lookup(k)
		if !ok || va != k*8 || vl != k*10 {
			t.Fatalf("key %d: (%#x, %d, %v), want (%#x, %d)", k, va, vl, ok, k*8, k*10)
		}
	}
	if tbl.Len() != len(keys) {
		t.Fatalf("len %d, want %d", tbl.Len(), len(keys))
	}
	k := keys[len(keys)-1]
	before := tbl.LookupBucket(k)
	if _, _, err := tbl.Place(k, 0x9000, 16); err != nil {
		t.Fatal(err)
	}
	if va, vl, _ := tbl.Lookup(k); va != 0x9000 || vl != 16 || tbl.LookupBucket(k) != before {
		t.Fatalf("overwrite: (%#x, %d) in bucket %d, want (0x9000, 16) in %d", va, vl, tbl.LookupBucket(k), before)
	}
}

// Random sets and deletes on a small table: an acknowledged key is
// never lost, and a Place that finds the table full rolls its walk
// back — every bucket word, lengths included, is as it was.
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
	type ent struct{ va, vl uint64 }
	model := map[uint64]ent{}
	rng := rand.New(rand.NewSource(11))
	fulls := 0
	for i := 0; i < 4000; i++ {
		key := uint64(rng.Intn(64) + 1)
		va, vl := uint64(0x1000+i*8), uint64(i+1)
		_, present := model[key]
		switch {
		case rng.Intn(10) >= 7:
			if _, _, ok := tbl.Remove(key); ok != present {
				t.Fatalf("step %d: Remove(%d) = %v, model says %v", i, key, ok, present)
			}
			delete(model, key)
		case present:
			if err := tbl.Insert(key, va, vl); err != nil {
				t.Fatalf("step %d: overwrite: %v", i, err)
			}
			model[key] = ent{va, vl}
		default:
			before := words()
			if _, _, err := tbl.Place(key, va, vl); err == nil {
				model[key] = ent{va, vl}
			} else if !errors.Is(err, ErrFull) {
				t.Fatalf("step %d: %v", i, err)
			} else if fulls++; !slices.Equal(before, words()) {
				t.Fatalf("step %d: a refused Place changed bucket memory", i)
			}
		}
		for k, e := range model {
			va, vl, ok := tbl.Lookup(k)
			if !ok || va != e.va || vl != e.vl {
				t.Fatalf("step %d: key %d is (%#x, %d, %v), want (%#x, %d)", i, k, va, vl, ok, e.va, e.vl)
			}
		}
	}
	if fulls == 0 {
		t.Fatal("no walk ran dry — table too large to exercise rollback")
	}
}

// A kick walk that reaches a deleted bucket reclaims it, whether a host
// Remove emptied it or a fabric delete freed it beside its key's word:
// the evictee lands there instead of displacing further.
func TestPlaceReclaimsTombstones(t *testing.T) {
	for _, fabric := range []bool{false, true} {
		placeReclaims(t, fabric)
	}
}

func placeReclaims(t *testing.T, fabric bool) {
	tbl, m := newCuckoo(t, 64)
	for k := uint64(1); k <= 24; k++ {
		if _, _, err := tbl.Place(k, k*8, 8); err != nil {
			t.Fatal(err)
		}
	}
	// x's first candidate holds r, whose other candidate (not one of
	// x's) holds a: delete a, and x's walk kicks r into its slot.
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
		live := 23
		if fabric {
			fabricDelete(t, tbl, m, a)
			live = 24 // a fabric delete is no host mutation
		} else if _, _, ok := tbl.Remove(a); !ok {
			t.Fatalf("remove(%d) failed", a)
		}
		if spilled, moved, err := tbl.Place(x, 0x5000, 8); err != nil || spilled || !slices.Equal(moved, []uint64{r}) {
			t.Fatalf("place: spilled=%v moved=%v err=%v; want %d moved", spilled, moved, err, r)
		}
		if k, _, _, ok := tbl.EntryAt(alt); k != r || !ok {
			t.Fatalf("bucket %d holds %d (resident %v), want %d reclaimed", alt, k, ok, r)
		}
		if k, _, _, _ := tbl.EntryAt(b0); k != x || tbl.Len() != live+1 {
			t.Fatalf("bucket %d holds %d, len %d; want %d, %d", b0, k, tbl.Len(), x, live+1)
		}
		if _, _, ok := tbl.Lookup(a); ok {
			t.Fatalf("deleted key %d resident after the walk", a)
		}
		return
	}
	t.Fatal("no key's walk reaches a removable resident")
}

// A kick walk that reaches a bucket a fabric fresh claim holds
// mid-flight stops there and rolls back: its pointer landed and its
// publish has not, so key word 0 beside an address names no key to
// re-place, and the walk used to fail half done, leaving the new key
// placed while reporting an error (its caller then freed the extent it
// points at).
func TestPlaceStopsAtClaimedBucket(t *testing.T) {
	tbl, m := newCuckoo(t, 64)
	for k := uint64(1); k <= 24; k++ {
		if _, _, err := tbl.Place(k, k*8, 8); err != nil {
			t.Fatal(err)
		}
	}
	// x's first candidate holds r, whose other candidate (not one of
	// x's) holds a: a claim of a's bucket is in flight.
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
		_, _, _, ok := tbl.EntryAt(alt)
		if alt == b0 || alt == tbl.Hash(x, 1) || !ok {
			continue
		}
		if err := m.PutU64(tbl.BucketAddr(alt)+OffKeyCtrl, 0); err != nil {
			t.Fatal(err)
		}
		before, _ := m.Read(tbl.Base(), tbl.Size())
		if _, moved, err := tbl.Place(x, 0x5000, 8); !errors.Is(err, ErrClaimed) || moved != nil {
			t.Fatalf("place: moved=%v err=%v; want ErrClaimed, none moved", moved, err)
		}
		if after, _ := m.Read(tbl.Base(), tbl.Size()); !bytes.Equal(after, before) {
			t.Fatal("a failed walk left the table changed")
		}
		return
	}
	t.Fatal("no key's walk reaches a second resident")
}

// A key spilled into a neighborhood slot is overwritten where it lives:
// Place must not take a free candidate bucket for a second copy and
// leave the spilled one pointing at the extent the caller retires.
func TestPlaceOverwritesSpilledResident(t *testing.T) {
	tbl, _ := newTable(t, 64)
	const key = 42
	if err := tbl.InsertAt(key, 0x1000, 8, 0, 2); err != nil {
		t.Fatal(err)
	}
	spilled, _, err := tbl.Place(key, 0x2000, 16)
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
	if va, vl, _ := tbl.Lookup(key); va != 0x2000 || vl != 16 || tbl.Len() != 1 {
		t.Fatalf("entry (%#x, %d), len %d; want (0x2000, 16), len 1", va, vl, tbl.Len())
	}
}
