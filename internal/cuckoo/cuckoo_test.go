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

// tombstoneBucket finds which candidate bucket of key holds a
// tombstone (exactly one after the key's delete).
func tombstoneBucket(tbl *hopscotch.Table, key uint64) uint64 {
	for fn := 0; fn < 2; fn++ {
		if b := tbl.Hash(key, fn); tbl.TombstoneAt(b) {
			return b
		}
	}
	return tbl.Hash(key, 0)
}

func TestInsertLookupDelete(t *testing.T) {
	tbl, _ := newTable(256)
	if _, err := tbl.Place(42, 0x1000, 64, 0); err != nil {
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
	tbl.Place(7, 0x1000, 8, 0)
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
		spilled, err := tbl.Place(k, k*8, 8, 0)
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
		if _, err := tbl.Place(k, k, 8, 0); errors.Is(err, hopscotch.ErrFull) {
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
	tbl.Place(9, 0x500, 32, 0)
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
	if _, err := tbl.Place(1<<48, 1, 1, 0); err == nil {
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
				_, err = tbl.Place(k, v, 8, 0)
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
			if _, err := tbl.Place(key, va, vl, 0); err == nil {
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

// Deletes leave tombstones that no longer count toward occupancy: a
// new key whose candidate is the tombstoned bucket reclaims it.
func TestTombstoneReclaim(t *testing.T) {
	tbl, _ := newTable(64)
	if _, err := tbl.Place(1, 0x1000, 8, 0); err != nil {
		t.Fatal(err)
	}
	if !tbl.Delete(1) {
		t.Fatal("delete of resident failed")
	}
	if tbl.Tombstones() != 1 || tbl.Len() != 0 {
		t.Fatalf("after delete: %d tombstones / %d entries, want 1 / 0", tbl.Tombstones(), tbl.Len())
	}
	// Lookup must not see through the tombstone.
	if _, _, ok := tbl.Lookup(1); ok {
		t.Fatal("lookup found a tombstoned key")
	}
	// A new key whose first candidate is exactly the tombstoned bucket
	// reclaims it (Place put key 1 at its first candidate, and Delete
	// tombstoned it there).
	b := tombstoneBucket(tbl, 1)
	var k uint64
	for k = 100; tbl.Hash(k, 0) != b; k++ {
	}
	if _, err := tbl.Place(k, 0x2000, 8, 0); err != nil {
		t.Fatal(err)
	}
	if got, _, _, _ := tbl.EntryAt(b); got != k || tbl.Tombstones() != 0 {
		t.Fatalf("after reinsert: bucket holds %d with %d tombstones, want %d reclaimed", got, tbl.Tombstones(), k)
	}
}

// A full table whose only slack is tombstones must still place new
// keys: the kick walk treats tombstoned buckets as free instead of
// displacing through them forever.
func TestTombstonesDoNotCountTowardOccupancy(t *testing.T) {
	tbl, _ := newTable(32)
	n := tbl.NumBuckets()
	// Saturate until full.
	var resident []uint64
	for k := uint64(1); uint64(len(resident)) < n && k < 100000; k++ {
		if _, err := tbl.Place(k, k*16, 8, 0); err == nil {
			resident = append(resident, k)
		}
	}
	if uint64(len(resident)) < n/2 {
		t.Fatalf("only %d of %d buckets filled", len(resident), n)
	}
	// Delete half the residents: occupancy must drop accordingly.
	for i, k := range resident {
		if i%2 == 0 {
			if !tbl.Delete(k) {
				t.Fatalf("delete(%d) failed", k)
			}
		}
	}
	deleted := (len(resident) + 1) / 2
	if got := tbl.Tombstones(); got != deleted {
		t.Fatalf("tombstones %d, want %d", got, deleted)
	}
	// New keys reclaim the tombstone slack; at least half of the
	// deleted capacity must be reusable (both-candidates-tombstoned
	// collisions can strand a few).
	placed := 0
	for k := uint64(200000); k < 300000 && placed < deleted; k++ {
		if _, err := tbl.Place(k, k*16, 8, 0); err == nil {
			placed++
		}
	}
	if placed < deleted/2 {
		t.Fatalf("reclaimed only %d of %d tombstoned slots", placed, deleted)
	}
	if tbl.Tombstones() >= deleted {
		t.Fatal("no tombstone was reclaimed")
	}
}

// The reserved tombstone id is not a usable key.
func TestTombstoneIDRejected(t *testing.T) {
	tbl, _ := newTable(16)
	if _, err := tbl.Place(hopscotch.TombstoneID, 0x1000, 8, 0); err == nil {
		t.Fatal("insert of the reserved tombstone id succeeded")
	}
}

// Versions move with their entries: a kick walk that displaces a
// resident carries its version to the new bucket, and RemoveV stamps
// the tombstone.
func TestVersionRidesKicks(t *testing.T) {
	tbl, _ := newTable(64)
	stored, kicked := uint64(0), false
	for k := uint64(1); k <= 40; k++ {
		kicked = kicked || kicks(tbl, k)
		if _, err := tbl.Place(k, 0x1000+k*64, 64, k*10); err != nil {
			break // table full: versions of everything placed so far still hold
		}
		stored = k
	}
	if !kicked {
		t.Fatal("load produced no kicks — test shape is wrong")
	}
	for k := uint64(1); k <= stored; k++ {
		if v, ok := tbl.VersionOf(k); !ok || v != k*10 {
			t.Fatalf("key %d version = %d,%v want %d", k, v, ok, k*10)
		}
	}
	if _, _, ok := tbl.RemoveV(7, 99); !ok {
		t.Fatal("delete failed")
	}
	if v := tbl.VersionAt(tombstoneBucket(tbl, 7)); v != 99 {
		t.Fatalf("tombstone version = %d, want 99", v)
	}
}

// Plain (unversioned) Insert and Delete must preserve the bucket's
// version word: an unversioned overwrite or delete can never regress a
// version a versioned path already published.
func TestVersionPreservedByUnversionedOps(t *testing.T) {
	tbl, _ := newTable(256)
	if _, err := tbl.Place(42, 0x1000, 64, 7); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(42, 0x2000, 64); err != nil {
		t.Fatal(err)
	}
	if v, ok := tbl.VersionOf(42); !ok || v != 7 {
		t.Fatalf("plain Insert clobbered the version: %d,%v want 7,true", v, ok)
	}
	if !tbl.Delete(42) {
		t.Fatal("delete failed")
	}
	if v := tbl.VersionAt(tombstoneBucket(tbl, 42)); v != 7 {
		t.Fatalf("plain Delete clobbered the tombstone version: %d, want 7", v)
	}
}
