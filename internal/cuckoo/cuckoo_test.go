// Package cuckoo_test checks the two-choice cuckoo index of §5.4
// (MemC3 style), which is a hopscotch table with a neighborhood of 1:
// every key lives in one of its two candidate buckets, and Place kicks
// residents to their other candidate to make room. The Memcached
// figures and the failover example index their values this way.
package cuckoo_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hopscotch"
	"repro/internal/mem"
	"repro/internal/wqe"
)

func newTable(buckets uint64) (*hopscotch.Table, *mem.Memory) {
	m := mem.New(1 << 22)
	return hopscotch.New(m, buckets, 1), m
}

// kicks reports that plain two-choice insertion has no slot for key:
// both its candidate buckets hold other keys, so Place must displace.
func kicks(tbl *hopscotch.Table, key uint64) bool {
	for fn := 0; fn < 2; fn++ {
		if k, _, _, ok := tbl.EntryAt(tbl.Hash(key, fn)); !ok || k == key {
			return false
		}
	}
	return true
}

// fabricDelete does to key's bucket what a fabric delete's one CAS
// does: it swaps the key's extent for hopscotch.FreedPtr(key), keeping
// the key word.
func fabricDelete(t *testing.T, tbl *hopscotch.Table, m *mem.Memory, key uint64) {
	t.Helper()
	for fn := 0; fn < 2; fn++ {
		b := tbl.Hash(key, fn)
		if k, _, _, ok := tbl.EntryAt(b); ok && k == key {
			if err := m.PutU64(tbl.BucketAddr(b)+hopscotch.OffValAddr, hopscotch.FreedPtr(key)); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("fabric delete of %d: not at a candidate bucket", key)
}

// tombstoneBucket finds which candidate bucket of key holds the key's
// freed pointer (exactly one after the key's fabric delete).
func tombstoneBucket(tbl *hopscotch.Table, key uint64) uint64 {
	for fn := 0; fn < 2; fn++ {
		b := tbl.Hash(key, fn)
		if _, va, _, _ := tbl.EntryAt(b); va == hopscotch.FreedPtr(key) {
			return b
		}
	}
	return tbl.Hash(key, 0)
}

// freedBuckets counts the buckets whose pointer is some key's freed
// pointer: the deleted buckets no insert has reclaimed.
func freedBuckets(tbl *hopscotch.Table) int {
	n := 0
	for i := uint64(0); i < tbl.NumBuckets(); i++ {
		if k, va, _, _ := tbl.EntryAt(i); k != 0 && va == hopscotch.FreedPtr(k) {
			n++
		}
	}
	return n
}

func TestInsertLookupDelete(t *testing.T) {
	tbl, _ := newTable(256)
	if _, _, err := tbl.Place(42, 0x1000, 64); err != nil {
		t.Fatal(err)
	}
	va, vl, ok := tbl.Lookup(42)
	if !ok || va != 0x1000 || vl != 64 {
		t.Fatalf("lookup: %v %v %v", va, vl, ok)
	}
	if !tbl.Delete(42) {
		t.Fatal("delete")
	}
	if _, _, ok := tbl.Lookup(42); ok {
		t.Fatal("lookup after delete")
	}
}

func TestOverwriteInPlace(t *testing.T) {
	tbl, _ := newTable(64)
	tbl.Place(7, 0x1000, 8)
	before := tbl.LookupBucket(7)
	tbl.Insert(7, 0x2000, 16)
	va, vl, _ := tbl.Lookup(7)
	if va != 0x2000 || vl != 16 {
		t.Fatalf("overwrite: %#x %d", va, vl)
	}
	if tbl.LookupBucket(7) != before || tbl.Len() != 1 {
		t.Fatal("overwrite moved the key (would break armed offloads)")
	}
}

func TestDisplacement(t *testing.T) {
	// Fill a small table beyond direct placement: displacement must
	// preserve every inserted key, and nothing spills.
	tbl, _ := newTable(32)
	var keys []uint64
	for k := uint64(1); k <= 200; k++ {
		spilled, _, err := tbl.Place(k, k*8, 8)
		if err != nil {
			break
		}
		if spilled {
			t.Fatalf("key %d spilled with a neighborhood of 1", k)
		}
		keys = append(keys, k)
	}
	if len(keys) < 12 { // single-slot cuckoo tops out near 50% load
		t.Fatalf("only %d keys before full", len(keys))
	}
	for _, k := range keys {
		va, _, ok := tbl.Lookup(k)
		if !ok || va != k*8 {
			t.Fatalf("key %d lost after displacement", k)
		}
	}
}

func TestFullTable(t *testing.T) {
	tbl, _ := newTable(2)
	sawFull := false
	for k := uint64(1); k <= 100; k++ {
		if _, _, err := tbl.Place(k, k, 8); errors.Is(err, hopscotch.ErrFull) {
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("tiny table never reported full")
	}
}

// The index's buckets are the layout the RedN lookup injects: the key
// in a NOOP control word and the value pointer in the src field.
func TestBucketABIMatchesHopscotch(t *testing.T) {
	tbl, m := newTable(64)
	tbl.Place(9, 0x500, 32)
	addr := tbl.HashAddr(9, tbl.LookupBucket(9))
	kc, _ := m.U64(addr + hopscotch.OffKeyCtrl)
	if kc != wqe.MakeCtrl(wqe.OpNoop, 9) {
		t.Fatalf("keyCtrl %#x", kc)
	}
	va, _ := m.U64(addr + hopscotch.OffValAddr)
	if va != 0x500 {
		t.Fatalf("valAddr %#x", va)
	}
}

func TestWideKeyRejected(t *testing.T) {
	tbl, _ := newTable(64)
	if _, _, err := tbl.Place(1<<48, 1, 1); err == nil {
		t.Fatal("49-bit key accepted")
	}
}

// Property: placed keys remain retrievable with their latest values.
func TestCuckooProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		tbl, _ := newTable(4096)
		seen := map[uint64]uint64{}
		for i, r := range raw {
			if i >= 150 {
				break
			}
			k := uint64(r%0xFFFFF) + 1
			v := uint64(i + 1)
			var err error
			if _, ok := seen[k]; ok {
				err = tbl.Insert(k, v, 8)
			} else {
				_, _, err = tbl.Place(k, v, 8)
			}
			if err != nil {
				return true
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

// Property: random interleaved set/delete/lookup sequences, sets placed
// the way the Memcached store does (overwrite in place, new keys by
// Place), never lose an acknowledged key, and ErrFull rolls back
// cleanly: every resident survives, bit-exact.
func TestCuckooPropertyRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl, _ := newTable(128) // small table: displacement chains exhaust for real
	type ent struct{ va, vl uint64 }
	model := map[uint64]ent{}

	checkAll := func(step int) {
		for k, e := range model {
			va, vl, ok := tbl.Lookup(k)
			if !ok {
				t.Fatalf("step %d: acked key %d lost", step, k)
			}
			if va != e.va || vl != e.vl {
				t.Fatalf("step %d: key %d has (%#x,%d), want (%#x,%d)", step, k, va, vl, e.va, e.vl)
			}
		}
		if tbl.Len() != len(model) {
			t.Fatalf("step %d: table len %d, model %d", step, tbl.Len(), len(model))
		}
	}

	fulls, kicked := 0, 0
	for i := 0; i < 4000; i++ {
		key := uint64(rng.Intn(200) + 1)
		switch op := rng.Intn(10); {
		case op < 6: // insert/overwrite
			va, vl := uint64(0x1000+i*8), uint64(rng.Intn(100)+1)
			if _, acked := model[key]; acked {
				if err := tbl.Insert(key, va, vl); err != nil {
					t.Fatalf("step %d: overwrite: %v", i, err)
				}
				model[key] = ent{va, vl}
				break
			}
			if kicks(tbl, key) {
				kicked++
			}
			if _, _, err := tbl.Place(key, va, vl); err == nil {
				model[key] = ent{va, vl}
			} else {
				if !errors.Is(err, hopscotch.ErrFull) {
					t.Fatalf("step %d: unexpected insert error %v", i, err)
				}
				fulls++
				// Rollback must leave every acked key untouched.
				checkAll(i)
			}
		case op < 8: // delete
			_, acked := model[key]
			if tbl.Delete(key) != acked {
				t.Fatalf("step %d: delete(%d) disagrees with model", i, key)
			}
			delete(model, key)
		default: // lookup of a random (possibly absent) key
			_, _, ok := tbl.Lookup(key)
			if _, acked := model[key]; ok != acked {
				t.Fatalf("step %d: lookup(%d)=%v disagrees with model", i, key, ok)
			}
		}
	}
	checkAll(4000)
	if fulls == 0 {
		t.Fatal("run never exhausted a displacement chain — table too large to exercise rollback")
	}
	if kicked == 0 {
		t.Fatal("run never displaced a resident — no cuckoo behavior exercised")
	}
}

// A fabric delete leaves its key's word beside its freed pointer, which
// no longer counts toward occupancy: a new key whose candidate is that
// bucket reclaims it, writing both words.
func TestTombstoneReclaim(t *testing.T) {
	tbl, m := newTable(64)
	if _, _, err := tbl.Place(1, 0x1000, 8); err != nil {
		t.Fatal(err)
	}
	fabricDelete(t, tbl, m, 1)
	if freedBuckets(tbl) != 1 {
		t.Fatalf("after delete: %d freed buckets, want 1", freedBuckets(tbl))
	}
	// Lookup must not see the key word beside the freed pointer.
	if _, _, ok := tbl.Lookup(1); ok {
		t.Fatal("lookup found a deleted key")
	}
	// A new key whose first candidate is exactly the deleted bucket
	// reclaims it (Place put key 1 at its first candidate, and the
	// delete freed it there).
	b := tombstoneBucket(tbl, 1)
	var k uint64
	for k = 100; tbl.Hash(k, 0) != b; k++ {
	}
	if _, _, err := tbl.Place(k, 0x2000, 8); err != nil {
		t.Fatal(err)
	}
	if got, va, _, ok := tbl.EntryAt(b); got != k || va != 0x2000 || !ok || freedBuckets(tbl) != 0 {
		t.Fatalf("after reinsert: bucket holds %d at %#x with %d freed buckets, want %d reclaimed", got, va, freedBuckets(tbl), k)
	}
}

// A full table whose only slack is deleted buckets must still place new
// keys: the kick walk treats freed buckets as free instead of
// displacing through them forever.
func TestTombstonesDoNotCountTowardOccupancy(t *testing.T) {
	tbl, m := newTable(32)
	n := tbl.NumBuckets()
	// Saturate until full.
	var resident []uint64
	for k := uint64(1); uint64(len(resident)) < n && k < 100000; k++ {
		if _, _, err := tbl.Place(k, k*16, 8); err == nil {
			resident = append(resident, k)
		}
	}
	if uint64(len(resident)) < n/2 {
		t.Fatalf("only %d of %d buckets filled", len(resident), n)
	}
	// Delete half the residents: occupancy must drop accordingly.
	for i, k := range resident {
		if i%2 == 0 {
			fabricDelete(t, tbl, m, k)
		}
	}
	deleted := (len(resident) + 1) / 2
	if got := freedBuckets(tbl); got != deleted {
		t.Fatalf("freed buckets %d, want %d", got, deleted)
	}
	// New keys reclaim the deleted slack; at least half of the deleted
	// capacity must be reusable (both-candidates-deleted collisions can
	// strand a few).
	placed := 0
	for k := uint64(200000); k < 300000 && placed < deleted; k++ {
		if _, _, err := tbl.Place(k, k*16, 8); err == nil {
			placed++
		}
	}
	if placed < deleted/2 {
		t.Fatalf("reclaimed only %d of %d deleted slots", placed, deleted)
	}
	if freedBuckets(tbl) >= deleted {
		t.Fatal("no deleted bucket was reclaimed")
	}
}

// The reserved id space is not a usable key: its top id is rejected.
func TestTombstoneIDRejected(t *testing.T) {
	tbl, _ := newTable(16)
	if _, _, err := tbl.Place(hopscotch.KeyMask, 0x1000, 8); err == nil {
		t.Fatal("insert of a reserved id succeeded")
	}
}
