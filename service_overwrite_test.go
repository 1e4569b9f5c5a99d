package redn

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// bucketWords reads the four words of the bucket at addr on sh.
func bucketWords(sh *serviceShard, addr uint64) (w [4]uint64) {
	for i := range w {
		w[i], _ = sh.srv.node.Mem.U64(addr + uint64(8*i))
	}
	return w
}

// oneShard builds a one-shard r=1 service of 64-byte values and stores
// key there through the fabric.
func oneShard(t *testing.T, key uint64) (*Service, *serviceShard) {
	t.Helper()
	s := NewServiceWith(ServiceConfig{
		Shards: 1, ClientsPerShard: 1, Pipeline: 8, Mode: LookupSeq,
		Replicas: 1, Buckets: 1 << 10, MaxValLen: 64,
	})
	if err := s.Set(key, Value(key, 64)); err != nil {
		t.Fatal(err)
	}
	return s, s.order[0]
}

// A fabric delete keeps its key's placement hint, and a hinted get of
// the deleted key never returns bytes: it reads the bucket's words
// against the shard's null extent, not the extent the delete retired,
// and answers the miss in one round trip, with no re-probe. That holds
// while the key's word stands beside its freed pointer, once another
// key has reclaimed the bucket (a host Place, the only write that may
// reuse a bucket another key's delete freed), and once another value
// has been staged into the retired extent.
func TestHintedGetAfterFabricDeleteReturnsNoBytes(t *testing.T) {
	const key = 7
	cases := []struct {
		name  string
		after func(t *testing.T, s *Service, sh *serviceShard, bucket, retired uint64)
	}{
		{"the tombstone stands", func(*testing.T, *Service, *serviceShard, uint64, uint64) {}},
		{"another key reclaims the bucket", func(t *testing.T, s *Service, sh *serviceShard, bucket, _ uint64) {
			tb := sh.table.table
			other := uint64(key + 1)
			for tb.HashAddr(other, 0) != bucket {
				other++
			}
			if err := sh.set(other, Value(other, 64), 1); err != nil {
				t.Fatal(err)
			}
			if k, _, _, ok := tb.EntryAt((bucket - tb.Base()) / 32); !ok || k != other {
				t.Fatalf("setup: bucket holds %d (%v), want %d", k, ok, other)
			}
		}},
		{"another value reuses the old extent", func(t *testing.T, s *Service, sh *serviceShard, _, retired uint64) {
			const other = 1000
			if err := s.Set(other, Value(other, 64)); err != nil {
				t.Fatal(err)
			}
			if va, _, _ := sh.table.table.Lookup(other); va != retired {
				t.Fatalf("setup: %d staged into %#x, want the retired extent %#x", other, va, retired)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, sh := oneShard(t, key)
			fn, retired := s.placedAt(key, sh)
			bucket := sh.table.table.HashAddr(key, fn-1)
			if !s.Delete(key) || s.Stats().FabricDeletes != 1 {
				t.Fatalf("setup: %d fabric deletes, want 1", s.Stats().FabricDeletes)
			}
			if f, ext := s.placedAt(key, sh); f != fn || ext != sh.null {
				t.Fatalf("hint after the delete (%d, %#x), want (%d, the null extent %#x)", f, ext, fn, sh.null)
			}
			c.after(t, s, sh, bucket, retired)
			before := s.Stats().PlacedMisses
			got, lat, ok := s.Get(key, 64)
			if ok || len(got) != 0 || lat > 20*sim.Microsecond || s.Stats().PlacedMisses != before {
				t.Fatalf("get of the deleted key: hit %v, %d bytes after %v, %d re-probes; want a miss of no bytes in one round trip",
					ok, len(got), lat, s.Stats().PlacedMisses-before)
			}
		})
	}
}

// A get that races its key's re-insert returns the new value or a
// miss, never other bytes. In the first round the get is issued with the
// re-insert. In the second it reads the deleted key's hint, waits behind
// a get that holds the one get slot, and arms after the re-insert has
// landed: it finds the key's word beside the new extent, re-aims there
// once, and answers the new value. In the third the re-insert queues
// behind three sets of another key and the get is issued after it: the
// hint finds the tombstone, the delete is no longer the key's newest
// write, so the get locates the key: the re-insert has not landed, and
// the get answers the miss in two round trips (two requests, under three
// idle round trips with the sets' fetches beside them), not a
// MissTimeout.
func TestHintedGetRacingReinsert(t *testing.T) {
	const key, other = 7, 8
	s := NewServiceWith(ServiceConfig{
		Shards: 1, ClientsPerShard: 1, Pipeline: 1, Mode: LookupSeq,
		Replicas: 1, Buckets: 1 << 10, MaxValLen: 64,
	})
	for _, k := range []uint64{key, other} {
		if err := s.Set(k, Value(k<<8, 64)); err != nil {
			t.Fatal(err)
		}
	}
	_, rt, _ := s.Get(other, 64) // one idle round trip: a hinted hit
	set := func(k uint64, val []byte) {
		s.SetAsync(k, val, func(_ Duration, err error) {
			if err != nil {
				t.Errorf("set of %d: %v", k, err)
			}
		})
	}
	for round := uint64(1); round <= 3; round++ {
		val := Value(key<<8|round, 64)
		if !s.Delete(key) {
			t.Fatal("setup: delete failed")
		}
		var got []byte
		var lat Duration
		var ok, done bool
		get := func() {
			s.GetAsync(key, 64, func(v []byte, l Duration, o bool) { got, lat, ok, done = append([]byte(nil), v...), l, o, true })
		}
		before, issued := s.Stats().PlacedMisses, s.order[0].clients[0].get.issued
		switch round {
		case 1:
			get()
			set(key, val)
		case 2:
			holdGetSlot(s.order[0])
			get()
			set(key, val)
		case 3:
			for i := range uint64(3) {
				set(other, Value(other<<8|i, 64))
			}
			set(key, val)
			get()
		}
		s.Flush()
		s.Run()
		switch {
		case !done:
			t.Fatalf("round %d: the get never answered", round)
		case ok && !bytes.Equal(got, val):
			t.Fatalf("round %d: the get returned %x, want the re-inserted %x or a miss", round, got, val)
		case round == 2 && (!ok || s.Stats().PlacedMisses != before+1):
			t.Fatalf("the parked get: hit %v after %d re-aims; want the new value after one", ok, s.Stats().PlacedMisses-before)
		case round == 3 && (ok || s.order[0].clients[0].get.issued-issued != 2 || lat > 3*rt):
			t.Fatalf("the get behind the queued re-insert: hit %v after %d requests and %v (round trip %v); want a miss after 2",
				ok, s.order[0].clients[0].get.issued-issued, lat, rt)
		}
	}
}

// A host overwrite installs a fresh extent, so a hinted overwrite armed
// before it still expects the old one: it is refused, and changes no
// bucket word.
func TestHostOverwriteRefusesAnArmedHintedOverwrite(t *testing.T) {
	const key = 7
	s, sh := oneShard(t, key)
	bucket, ext, ok := residentBucket(sh.table.table, LookupSeq, key)
	if !ok {
		t.Fatal("setup: key not at a candidate bucket")
	}
	var applied, done bool
	cli := sh.setClient(key)
	cli.setAsyncClaim(key, Value(2, 64), core.SetClaim{BucketAddr: bucket, Extent: ext}, 2, 0,
		func(_ Duration, ok bool) { applied, done = ok, true })
	// Armed, its trigger not yet rung: the host overwrites first.
	if err := sh.set(key, Value(3, 64), 3); err != nil {
		t.Fatal(err)
	}
	before := bucketWords(sh, bucket)
	if before[1] == ext {
		t.Fatalf("the host overwrite kept extent %#x", ext)
	}
	cli.Flush()
	s.Run()
	if !done || applied {
		t.Fatalf("hinted overwrite done %v applied %v, want refused", done, applied)
	}
	if after := bucketWords(sh, bucket); after != before {
		t.Fatalf("the refused overwrite changed the bucket: %#x -> %#x", before, after)
	}
	if v, ok := ownerValue(t, s, sh.id, key); !ok || !bytes.Equal(v, Value(3, 64)) {
		t.Fatalf("key holds %x, want the host overwrite's value", v)
	}
}

// ABA: a hinted overwrite whose deadline passed before its chain ran is
// a straggler that still expects its extent. The key's next write
// retires that extent, but the straggler's retire mark holds it: it is
// not freed, so no staging — the key's own included — can be handed it
// while the straggler is armed. When the straggler runs, the bucket
// names the newer extent, so it is refused and changes nothing; only
// then is the old extent freed.
func TestArmedHintedOverwriteHoldsItsExtent(t *testing.T) {
	const key = 7
	s, sh := oneShard(t, key)
	bucket, ext, _ := residentBucket(sh.table.table, LookupSeq, key)
	cli := sh.setClient(key)
	s.Run() // every deadline queue empties: a deadline change needs that
	cli.missTimeout = 500 * sim.Nanosecond
	var applied bool
	cli.setAsyncClaim(key, Value(2, 64), core.SetClaim{BucketAddr: bucket, Extent: ext}, 2, 0,
		func(_ Duration, ok bool) { applied = ok })
	cli.Flush()
	s.Testbed().RunFor(600 * sim.Nanosecond)
	if applied || cli.lastExecuted(pipeSet) || cli.set.nWedged != 1 {
		t.Fatalf("setup: applied %v, executed %v, %d wedged slots; want a straggler", applied, cli.lastExecuted(pipeSet), cli.set.nWedged)
	}
	cli.missTimeout = DefaultMissTimeout // every deadline queue is empty
	// The key's next write retires the straggler's extent.
	if err := sh.set(key, Value(3, 64), 3); err != nil {
		t.Fatal(err)
	}
	arena := sh.srv.arena
	if _, live := arena.Size(ext); !live {
		t.Fatal("the extent an armed straggler expects was freed")
	}
	for i := 0; i < 4; i++ {
		if next := arena.Alloc(64, key); next == ext {
			t.Fatal("the key's next staging is the extent an armed straggler expects")
		} else {
			defer arena.Free(next)
		}
	}
	before := bucketWords(sh, bucket)
	s.Run()
	if after := bucketWords(sh, bucket); after != before {
		t.Fatalf("the straggler changed the bucket: %#x -> %#x", before, after)
	}
	if cli.set.nWedged != 0 {
		t.Fatal("the straggler's slot is still quarantined after it ran")
	}
	if _, live := arena.Size(ext); live {
		t.Fatal("the old extent is still live after the straggler ran")
	}
}
