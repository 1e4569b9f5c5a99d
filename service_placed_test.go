package redn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/hopscotch"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// A get probes only the bucket the coordinator's last fabric claim
// placed its key at. A host-path set whose kick walk moves a hinted
// resident to its other candidate must drop that resident's hint: a
// kept one would aim every later get at the bucket the key left, and
// each would pay a miss before probing both candidates. After the walk,
// every key answers on its first probe.
func TestPlacementHintDroppedByKickWalk(t *testing.T) {
	const valLen = 64
	s := NewServiceWith(ServiceConfig{
		Shards: 1, ClientsPerShard: 1, Pipeline: 8, Mode: LookupSeq,
		Replicas: 1, Buckets: 64, MaxValLen: valLen,
	})
	sh := s.order[0]
	tb := sh.table.table
	var keys []uint64
	for k := uint64(1); k <= 24; k++ {
		if err := s.Set(k, Value(k, valLen)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	// fnOf is the candidate key sits at, -1 for neither (spilled).
	fnOf := func(key uint64) int {
		for fn := range 2 {
			if k, _, _, ok := tb.EntryAt(tb.Hash(key, fn)); ok && k == key {
				return fn
			}
		}
		return -1
	}
	hinted := 0
	for _, k := range keys {
		if p := placedFn(s, k, sh); p != 0 {
			hinted++
			if p-1 != fnOf(k) {
				t.Fatalf("key %d: hint names candidate %d, key sits at %d", k, p-1, fnOf(k))
			}
		}
	}
	if hinted < len(keys)*3/4 {
		t.Fatalf("%d of %d keys hinted after their fabric sets", hinted, len(keys))
	}

	// x's candidates both hold keys, so its set takes the host path; the
	// walk kicks the hinted resident r of x's first candidate to r's
	// other candidate, which is free.
	var x, r uint64
	for c := uint64(1000); x == 0; c++ {
		ka, _, _, okA := tb.EntryAt(tb.Hash(c, 0))
		_, _, _, okB := tb.EntryAt(tb.Hash(c, 1))
		if !okA || !okB || placedFn(s, ka, sh) == 0 {
			continue
		}
		other := tb.Hash(ka, 1-fnOf(ka))
		if _, _, _, taken := tb.EntryAt(other); !taken && other != tb.Hash(c, 1) {
			x, r = c, ka
		}
	}
	from := fnOf(r)
	host := s.Stats().HostSets
	if err := s.Set(x, Value(x, valLen)); err != nil {
		t.Fatal(err)
	}
	keys = append(keys, x)
	if s.Stats().HostSets != host+1 || fnOf(r) != 1-from {
		t.Fatalf("set of %d: host sets %d -> %d, resident %d at candidate %d -> %d; want a host-path walk moving it",
			x, host, s.Stats().HostSets, r, from, fnOf(r))
	}

	for _, k := range keys {
		if got, _, ok := s.Get(k, valLen); !ok || string(got) != string(Value(k, valLen)) {
			t.Fatalf("key %d read back %x (hit %v)", k, got, ok)
		}
	}
	if st := s.Stats(); st.Misses != 0 || st.PlacedMisses != 0 {
		t.Fatalf("%d misses, %d single-probe gets missed their placed bucket; want 0 and 0", st.Misses, st.PlacedMisses)
	}
}

// A kick walk can move a key whose own fabric set has published but
// whose ack has not landed yet. The ack must not learn the bucket the
// key left: the next get would aim its single probe there and pay a
// MissTimeout as a placed miss.
func TestPlacementHintNotLearnedAfterAKickWalk(t *testing.T) {
	const valLen = 64
	s := NewServiceWith(ServiceConfig{
		Shards: 1, ClientsPerShard: 1, Pipeline: 8, Mode: LookupSeq,
		Replicas: 1, Buckets: 64, MaxValLen: valLen,
	})
	sh := s.order[0]
	tb := sh.table.table
	for k := uint64(1); k <= 24; k++ {
		if err := s.Set(k, Value(k, valLen)); err != nil {
			t.Fatal(err)
		}
	}
	taken := func(b uint64) bool { _, _, _, ok := tb.EntryAt(b); return ok }
	// k's candidates are distinct and both free, so its fabric set claims
	// the first and a walk can kick it to the second. j's first candidate
	// is k's first and its second holds a key, so j's host-path set walks
	// and kicks k.
	var k, j uint64
	for c := uint64(1000); k == 0; c++ {
		if h1, h2 := tb.Hash(c, 0), tb.Hash(c, 1); h1 != h2 && !taken(h1) && !taken(h2) {
			k = c
		}
	}
	h1, h2 := tb.Hash(k, 0), tb.Hash(k, 1)
	for c := k + 1; j == 0; c++ {
		if tb.Hash(c, 0) == h1 && tb.Hash(c, 1) != h2 && taken(tb.Hash(c, 1)) {
			j = c
		}
	}
	acked := false
	s.SetAsync(k, Value(k, valLen), func(_ Duration, err error) {
		if err != nil {
			t.Errorf("set of %d: %v", k, err)
		}
		acked = true
	})
	s.Flush()
	// Step to the publish: k's word is in its bucket, its ack in flight.
	eng := s.Testbed().Engine()
	for key, _, _, _ := tb.EntryAt(h1); key != k && !acked; key, _, _, _ = tb.EntryAt(h1) {
		eng.RunUntil(eng.Now() + 10*sim.Nanosecond)
	}
	if acked {
		t.Fatal("setup: the ack landed before the publish was seen")
	}
	if err := sh.set(j, Value(j, valLen), 1); err != nil {
		t.Fatal(err)
	}
	if key, _, _, _ := tb.EntryAt(h2); key != k || acked {
		t.Fatalf("setup: the walk for %d left %d out of its second candidate (acked %v)", j, k, acked)
	}
	s.Run()
	if got, _, ok := s.Get(k, valLen); !ok || string(got) != string(Value(k, valLen)) {
		t.Fatalf("key %d read back %x (hit %v)", k, got, ok)
	}
	if st := s.Stats(); st.Misses != 0 || st.PlacedMisses != 0 {
		t.Fatalf("%d misses, %d placed misses; want 0 and 0", st.Misses, st.PlacedMisses)
	}
}

// Correctness never rests on a hint: a get aimed at the candidate a
// stale hint names misses there, locates its key on the same owner and
// aims where the locate found it, answering the hit with no failover in
// three round trips, not a MissTimeout. The located hit re-learns the
// hint at the candidate the key sits at.
func TestStaleHintLocatesItsKey(t *testing.T) {
	const valLen = 64
	s := NewServiceWith(ServiceConfig{
		Shards: 2, ClientsPerShard: 1, Pipeline: 8, Mode: LookupSeq,
		Replicas: 2, WriteQuorum: 2, Buckets: 1 << 10, MaxValLen: valLen,
	})
	const key = 7
	if err := s.Set(key, Value(key, valLen)); err != nil {
		t.Fatal(err)
	}
	sh := s.shards[s.Owners(key)[0]]
	p := placedFn(s, key, sh)
	if p == 0 {
		t.Fatal("no hint after a fabric set")
	}
	_, rt, _ := s.Get(key, valLen) // one idle round trip: a hinted hit
	rec := s.keys[key]
	rec.placed[0] = uint8(3 - p) // the other candidate
	s.keys[key] = rec
	got, lat, ok := s.Get(key, valLen)
	if !ok || string(got) != string(Value(key, valLen)) {
		t.Fatalf("get after a stale hint: %x (hit %v)", got, ok)
	}
	st := s.Stats()
	if st.PlacedMisses != 1 || st.Misses != 0 || st.Retries != 0 || placedFn(s, key, sh) != p {
		t.Fatalf("placed misses %d, misses %d, failovers %d, hint %d; want 1, 0, 0 and %d",
			st.PlacedMisses, st.Misses, st.Retries, placedFn(s, key, sh), p)
	}
	if lat > 3*rt {
		t.Fatalf("latency %v: the stale hint's miss, the locate and the located get should cost three round trips of %v", lat, rt)
	}
}

// A hit reached through a locate learns no hint when a write to its key
// was issued after the get began: what it read may already be the
// write's past. The write's own ack learns where it put the key; the
// test drops that hint as the ack lands, ahead of the get's answer, so
// a learned hint could only be the get's.
func TestLocatedHitRacingAWriteLearnsNoHint(t *testing.T) {
	const key, valLen = 7, 64
	s, sh := oneShard(t, key)
	s.dropPlaced(key)
	var acked, answered sim.Time
	s.GetAsync(key, valLen, func(_ []byte, _ Duration, ok bool) {
		if !ok {
			t.Error("the located get missed")
		}
		answered = s.Now()
	})
	s.SetAsync(key, Value(key+1, valLen), func(_ Duration, err error) {
		if err != nil {
			t.Error(err)
		}
		acked = s.Now()
		s.dropPlaced(key)
	})
	s.Flush()
	s.Run()
	if acked == 0 || answered <= acked {
		t.Fatalf("setup: the set acked at %v, the get answered at %v; want the ack first", acked, answered)
	}
	if fn := placedFn(s, key, sh); fn != 0 {
		t.Fatalf("the located hit learned candidate %d across a write issued after it began", fn)
	}
}

// holdGetSlot keeps sh's first connection from issuing a get for a
// MissTimeout: its get window is shut, then reopened. A service get on
// that connection queues behind it, holding nothing.
func holdGetSlot(sh *serviceShard) {
	p := sh.clients[0].get
	w := p.win.w
	p.win.w = 0
	sh.svc.Testbed().Engine().After(DefaultMissTimeout, func() {
		p.win.w = w
		p.pump()
		p.c.Flush()
	})
}

// placedFn is the candidate half of key's hint on sh (placedAt).
func placedFn(s *Service, key uint64, sh *serviceShard) int {
	fn, _ := s.placedAt(key, sh)
	return fn
}

// hintedGet runs one hinted get of key through cli, aimed at candidate
// fn-1 and the extent ext, and returns what its callback saw: the value,
// the latency, the verdict and the extent it reported moved.
func hintedGet(s *Service, cli *Client, key, valLen uint64, fn int, ext uint64) (got []byte, lat Duration, ok bool, moved uint64) {
	done := false
	cli.getAsync(key, valLen, 0, fn, ext, func(val []byte, l Duration, o bool) {
		got, lat, ok, moved, done = append([]byte(nil), val...), l, o, cli.moved, true
	})
	cli.Flush()
	s.Run()
	if !done {
		panic("hinted get never answered")
	}
	return got, lat, ok, moved
}

// A hinted get decides nothing on the NIC: it answers its bucket's
// [keyCtrl, valAddr] ahead of the bytes at the extent its hint names,
// and its client accepts the value iff those words are the key's and
// that extent. A bucket holding another key, the key's own word beside
// its freed pointer (its delete's) or a fresh claim in flight (key word
// 0 beside an address) answers at once, as a miss whose chain ran, and
// the client delivers no bytes and reports no move; so does the key's
// own word beside another extent — the key moved since the hint was
// learned — which the client reports as moved; the key's own words
// answer the value.
func TestHintedGetAnswersItsBucketsWord(t *testing.T) {
	const valLen, key, other = 64, 7, 8
	s := NewServiceWith(ServiceConfig{
		Shards: 1, ClientsPerShard: 1, Pipeline: 8, Mode: LookupSeq,
		Replicas: 1, Buckets: 1 << 10, MaxValLen: valLen,
	})
	for _, k := range []uint64{key, other} {
		if err := s.Set(k, Value(k, valLen)); err != nil {
			t.Fatal(err)
		}
	}
	sh := s.order[0]
	p, ext := s.placedAt(key, sh)
	if p == 0 || ext == 0 {
		t.Fatal("setup: no hint after a fabric set")
	}
	tb := sh.table.table
	bucket := tb.HashAddr(key, p-1)
	otherExt, _, _ := tb.Lookup(other)
	m, cli := sh.srv.node.Mem, sh.clients[0]
	resident, _ := m.U64(bucket + hopscotch.OffKeyCtrl)
	for _, c := range []struct{ word, va uint64 }{
		{core.ClaimCtrl(other), ext}, {resident, hopscotch.FreedPtr(key)}, {0, ext},
		{resident, otherExt}, {resident, ext},
	} {
		m.PutU64(bucket+hopscotch.OffKeyCtrl, c.word)
		m.PutU64(bucket+hopscotch.OffValAddr, c.va)
		slot := cli.get.free[len(cli.get.free)-1] // the slot the get issues on
		got, lat, ok, moved := hintedGet(s, cli, key, valLen, p, ext)
		word, _ := cli.node.Mem.U64(cli.get.resp[slot])
		va, _ := cli.node.Mem.U64(cli.get.resp[slot] + 8)
		hit := c.word == resident && c.va == ext
		wantMoved := uint64(0)
		if c.word == resident && !hit && c.va != hopscotch.FreedPtr(key) {
			wantMoved = c.va
		}
		switch {
		case word != c.word || va != c.va:
			t.Fatalf("bucket [%#x, %#x]: answered [%#x, %#x]", c.word, c.va, word, va)
		case hit && (!ok || string(got) != string(Value(key, valLen))):
			t.Fatalf("the key's own words: hit %v, value %x", ok, got)
		case !hit && (ok || len(got) != 0 || !cli.lastExecuted(pipeGet) || lat > 20*sim.Microsecond):
			t.Fatalf("bucket [%#x, %#x]: hit %v, %d bytes, chain ran %v, after %v; want a miss of no bytes in one round trip",
				c.word, c.va, ok, len(got), cli.lastExecuted(pipeGet), lat)
		case moved != wantMoved:
			t.Fatalf("bucket [%#x, %#x]: reported %#x moved, want %#x", c.word, c.va, moved, wantMoved)
		}
	}
}

// A hinted get never delivers bytes its bucket does not name, however
// far the key moved between the get reading its hint and arming. Each
// case reads the hint, parks the get behind a miss that holds the one
// get slot, and moves the key before the get arms:
//
//   - reused by another key: the key is overwritten, its old extent
//     retired, freed and staged into by a fresh key. The get gathers the
//     other key's bytes beside its own key word and the new extent, is
//     refused, and re-aims once, at that extent, for the new value.
//   - re-staged by its own key: two overwrites later the key's bucket
//     names its old extent again, with the newest value, which the get
//     accepts on its first attempt.
//
// And after a crash's hint drain every key's hint names the extent its
// replay installed, so gets through the recovered owner hit on their
// first hinted attempt with no re-aim.
func TestHintedGetRejectsAMovedExtent(t *testing.T) {
	const valLen, key, other = 64, 7, 8
	val := func(k, gen uint64) []byte { return Value(k<<8|gen, valLen) }
	// park reads key's hint into a get queued behind a held get slot
	// (holdGetSlot), and runs 30 µs.
	park := func(t *testing.T) (s *Service, got *[]byte, ok *bool) {
		s = NewServiceWith(ServiceConfig{
			Shards: 1, ClientsPerShard: 1, Pipeline: 1, Mode: LookupSeq,
			Replicas: 1, Buckets: 1 << 10, MaxValLen: valLen,
		})
		if err := s.Set(key, val(key, 1)); err != nil {
			t.Fatal(err)
		}
		got, ok = new([]byte), new(bool)
		holdGetSlot(s.order[0])
		s.GetAsync(key, valLen, func(v []byte, _ Duration, o bool) { *got, *ok = append([]byte(nil), v...), o })
		s.Flush()
		s.Testbed().RunFor(30 * sim.Microsecond)
		return s, got, ok
	}
	set := func(t *testing.T, s *Service, k, gen uint64) uint64 {
		t.Helper()
		s.SetAsync(k, val(k, gen), func(_ Duration, err error) {
			if err != nil {
				t.Errorf("set of %d: %v", k, err)
			}
		})
		s.Flush()
		s.Testbed().RunFor(30 * sim.Microsecond)
		va, _, _ := s.order[0].table.table.Lookup(k)
		return va
	}

	t.Run("reused by another key", func(t *testing.T) {
		s, got, ok := park(t)
		_, ext1 := s.placedAt(key, s.order[0])
		ext2 := set(t, s, key, 2)
		if reused := set(t, s, other, 1); reused != ext1 || ext2 == ext1 {
			t.Fatalf("setup: %d staged into %#x, %d moved %#x -> %#x; want %d in %d's old extent", other, reused, key, ext1, ext2, other, key)
		}
		s.Run()
		fn, ext := s.placedAt(key, s.order[0])
		if st := s.Stats(); !*ok || string(*got) != string(val(key, 2)) || st.PlacedMisses != 1 || fn == 0 || ext != ext2 {
			t.Fatalf("get: hit %v, value %x (other's is %x); %d placed misses, hint (%d, %#x); want the new value after one re-aim, hint (_, %#x) kept",
				*ok, *got, val(other, 1), st.PlacedMisses, fn, ext, ext2)
		}
	})

	t.Run("re-staged by its own key", func(t *testing.T) {
		s, got, ok := park(t)
		_, ext1 := s.placedAt(key, s.order[0])
		set(t, s, key, 2)
		if ext3 := set(t, s, key, 3); ext3 != ext1 {
			t.Fatalf("setup: the third set of %d staged into %#x, want its first extent %#x", key, ext3, ext1)
		}
		s.Run()
		if st := s.Stats(); !*ok || string(*got) != string(val(key, 3)) || st.PlacedMisses != 0 {
			t.Fatalf("get: hit %v, value %x, %d placed misses; want the newest value on the first attempt", *ok, *got, st.PlacedMisses)
		}
	})

	t.Run("after a hint drain", func(t *testing.T) {
		const n = 64
		s, victim, _ := hintedOutage(t, n, 4)
		s.Run()
		if st := s.Stats(); st.HintsApplied != n {
			t.Fatalf("setup: %d of %d hints applied", st.HintsApplied, n)
		}
		for k := uint64(1); k <= n; k++ {
			fn, ext := s.placedAt(k, victim)
			if fn == 0 {
				t.Fatalf("key %d: no hint on the recovered owner after its replay", k)
			}
			got, _, ok, moved := hintedGet(s, victim.clients[0], k, 48, fn, ext)
			if !ok || moved != 0 || string(got) != string(Value(k+1, 48)) {
				t.Fatalf("key %d: first hinted attempt hit %v, moved %#x, value %x; want the replayed value", k, ok, moved, got)
			}
		}
		before := s.Stats().PlacedMisses
		for k := uint64(1); k <= n; k++ {
			if got, _, ok := s.Get(k, 48); !ok || string(got) != string(Value(k+1, 48)) {
				t.Fatalf("key %d read back %x (hit %v)", k, got, ok)
			}
		}
		if st := s.Stats(); st.PlacedMisses != before || st.Misses != 0 {
			t.Fatalf("%d re-aims or fallbacks, %d misses after the drain; want 0 and 0", st.PlacedMisses-before, st.Misses)
		}
	})
}

// A hinted get gathers the extent its hint names whatever its bucket
// holds, and its client reads the bucket's words first: a hinted get of
// an empty, tombstoned or pending bucket answers a miss in one round
// trip, delivers no bytes, and leaves its slot's response QP healthy,
// whatever the bucket's value address: the free pointer where no key
// ever lived or a host delete left it, the key's freed pointer where a
// fabric delete did, a staging extent where a fresh claim's pointer
// landed ahead of its publish.
// The probes run after the preload, a host-path kick walk, a host and a
// fabric delete, and a process crash's rebuild.
func TestHintedGetOfAnUnoccupiedBucketMisses(t *testing.T) {
	const valLen = 64
	s := NewServiceWith(ServiceConfig{
		Shards: 1, ClientsPerShard: 1, Pipeline: 8, Mode: LookupSeq,
		Replicas: 1, Buckets: 64, MaxValLen: valLen,
	})
	sh := s.order[0]
	tb, m := sh.table.table, sh.srv.node.Mem
	seen := map[string]bool{}
	probe := func(after string) {
		t.Helper()
		cli := sh.clients[0]
		ext, _, _ := tb.Lookup(1) // a live extent for the gets to gather
		// onto returns a key not in the table whose first candidate is
		// bucket i.
		onto := func(i uint64) uint64 {
			for k := uint64(5000); ; k++ {
				if _, _, ok := tb.Lookup(k); !ok && tb.Hash(k, 0) == i {
					return k
				}
			}
		}
		pending := false
		for i := uint64(0); i < tb.NumBuckets(); i++ {
			held, va, _, ok := tb.EntryAt(i)
			if ok {
				continue
			}
			k, kind := onto(i), "empty"
			word := tb.BucketAddr(i) + hopscotch.OffValAddr
			switch {
			case held != 0 && va == hopscotch.FreedPtr(held):
				kind = "tombstoned"
			case !pending:
				// A fresh claim in flight: its staging pointer beside key
				// word 0, for one get.
				pending, kind = true, "pending"
				m.PutU64(word, ext)
			}
			slot := cli.get.free[len(cli.get.free)-1]
			got, lat, ok, _ := hintedGet(s, cli, k, valLen, 1, ext)
			if kind == "pending" {
				m.PutU64(word, va)
			}
			seen[kind] = true
			if ok || len(got) != 0 || !cli.lastExecuted(pipeGet) || lat > 20*sim.Microsecond {
				t.Fatalf("after %s: hinted get of %s bucket %d: hit %v, %d bytes, chain ran %v, after %v; want a miss of no bytes in one round trip",
					after, kind, i, ok, len(got), cli.lastExecuted(pipeGet), lat)
			}
			if q := cli.gets.Ctxs[slot].Resp; q.SQ().Errored() {
				t.Fatalf("after %s: hinted get of %s bucket %d errored its slot's response QP %d", after, kind, i, q.QPN())
			}
		}
		if got, _, ok := s.Get(1, valLen); !ok || string(got) != string(Value(1, valLen)) {
			t.Fatalf("after %s: key 1 read back %x (hit %v)", after, got, ok)
		}
	}
	for k := uint64(1); k <= 24; k++ {
		if err := s.Set(k, Value(k, valLen)); err != nil {
			t.Fatal(err)
		}
	}
	probe("the preload")

	// x's candidates both hold keys, so its set walks on the host.
	var x uint64
	for c := uint64(1000); x == 0; c++ {
		_, _, _, okA := tb.EntryAt(tb.Hash(c, 0))
		_, _, _, okB := tb.EntryAt(tb.Hash(c, 1))
		if okA && okB {
			x = c
		}
	}
	st := s.Stats()
	if err := s.Set(x, Value(x, valLen)); err != nil || s.Stats().HostSets != st.HostSets+1 {
		t.Fatalf("setup: set of %d took %d host paths (%v), want 1", x, s.Stats().HostSets-st.HostSets, err)
	}
	probe("a kick walk")

	if !sh.del(x) {
		t.Fatalf("setup: host delete of %d found nothing", x)
	}
	probe("a host delete")
	if !s.Delete(3) || s.Stats().FabricDeletes != st.FabricDeletes+1 {
		t.Fatalf("setup: delete of 3 took %d fabric deletes, want 1", s.Stats().FabricDeletes-st.FabricDeletes)
	}
	probe("a fabric delete")

	s.CrashShard(0, failure.ProcessCrash, s.Now())
	s.Run()
	if s.Stats().Rebuilds != 1 {
		t.Fatalf("setup: %d rebuilds after a process crash, want 1", s.Stats().Rebuilds)
	}
	probe("a process crash's rebuild")
	for _, kind := range []string{"empty", "tombstoned", "pending"} {
		if !seen[kind] {
			t.Errorf("no %s bucket was probed", kind)
		}
	}
}

// Item 11's law: a closed loop at saturation runs the busiest shard's
// managed-fetch units flat out, one per NIC port at 1 / FetchManaged
// fetches per second each, so ops/s = ports × that rate ÷ the managed
// fetches the busiest shard spends per op: per get, its share of the
// primaries × a get's fetches; per set, its share of the keys it owns ×
// a leg's fetches, every owner running every leg. Here, at
// read_uniform's shape scaled down (4 shards × 2 clients × 16 deep, 128
// users, r=1, 98 % gets of uniform keys), each shard serves its two
// connections on its NIC's two ports, and a get is a single hinted probe
// (1 fetch, its RECV's) and a set a hinted overwrite (1, its RECV's:
// the pointer CAS is final when posted), the "get hinted H1/H2" and "set
// hinted overwrite" rows of TestProgramShapes. The measured rate must
// sit within ±3 % of the law's (measured +0.07 %). At quorum_write's
// shape (r=3, W=2, read-primary, one op in two a set) the busiest
// shard's set legs dominate, and the law holds within ±3 % there too
// (measured +1.07 %; priced at the 2 fetches a set took before its CAS
// left the managed ring, it reads +77 %): the W=2 writes' third legs
// queue behind the set pipelines but run at the rate the law prices.
//
// The balanced row: at the same shape with r=2 and pure uniform gets,
// hot-spread sends each get to the owner with the shortest queue, so
// every shard's fetch units run flat out and the busiest share is
// 1 / shards: ops/s = ports × shards × rate ÷ a get's fetches, within
// ±2 %. Measured -0.21 %; read-primary at the same shape, logged beside it, loses
// ~7 % to the busiest shard's larger share of the primaries.
func TestGetThroughputLaw(t *testing.T) {
	const (
		nKeys      = 2000
		valLen     = 64
		getFetches = 1 // "get hinted H1/H2" in TestProgramShapes
		setFetches = 1 // "set hinted overwrite"
	)
	// run drives the closed loop and returns the measured ops/s and the
	// law's fetches per op at the busiest shard.
	run := func(replicas, quorum int, policy ReadPolicy, writeEvery int) (s *Service, perOp, measured float64) {
		s = NewServiceWith(ServiceConfig{
			Shards: 4, ClientsPerShard: 2, Pipeline: 16, Mode: LookupSeq,
			Replicas: replicas, WriteQuorum: quorum, ReadPolicy: policy, Buckets: 1 << 14, MaxValLen: valLen,
		})
		keys := make([]uint64, nKeys)
		primary, owned := map[string]float64{}, map[string]float64{}
		for i := range keys {
			keys[i] = uint64(i + 1)
			if err := s.Set(keys[i], Value(keys[i], valLen)); err != nil {
				t.Fatal(err)
			}
			for r, id := range s.Owners(keys[i]) {
				if r == 0 {
					primary[id]++
				}
				owned[id]++
			}
		}
		sets := 0.0
		if writeEvery > 0 {
			sets = 1 / float64(writeEvery)
		}
		for id := range owned {
			perOp = max(perOp, ((1-sets)*primary[id]*getFetches+sets*owned[id]*setFetches)/nKeys)
		}
		rep := workload.RunClosedLoop(s.Testbed().Engine(), s, workload.ClosedLoopConfig{
			Requests:   40000,
			Window:     128,
			Keys:       &workload.Uniform{Keys: keys, Rng: workload.Rng(1)},
			ValLen:     valLen,
			WriteEvery: writeEvery,
		})
		if rep.Misses != 0 || rep.SetErrs != 0 {
			t.Fatalf("r=%d %v: %d misses, %d failed sets", replicas, policy, rep.Misses, rep.SetErrs)
		}
		return s, perOp, rep.GetsPerSec + rep.SetsPerSec
	}
	check := func(name string, law, measured, tol float64) {
		t.Logf("%s: law %.4g ops/s, measured %.4g (%+.2f %%)", name, law, measured, 100*(measured/law-1))
		if math.Abs(measured/law-1) > tol {
			t.Errorf("%s: measured %.4g ops/s, law %.4g: off by %+.2f %%, beyond ±%.0f %%",
				name, measured, law, 100*(measured/law-1), 100*tol)
		}
	}

	s, perOp, measured := run(1, 0, ReadPrimary, 50)
	dev := s.order[0].srv.node.Dev
	ports := float64(len(dev.Ports()))
	fetchRate := float64(sim.Second) / float64(dev.Profile().FetchManaged)
	check(fmt.Sprintf("r=1, busiest shard at %.3f fetches an op on %.0f ports", perOp, ports),
		ports*fetchRate/perOp, measured, 0.03)

	_, perOp, measured = run(3, 2, ReadPrimary, 2)
	check(fmt.Sprintf("r=3 W=2 read-primary, one op in two a set, busiest shard at %.3f fetches an op", perOp),
		ports*fetchRate/perOp, measured, 0.03)

	balanced := ports * float64(len(s.order)) * fetchRate / getFetches
	_, _, measured = run(2, 0, ReadHotSpread, 0)
	check("r=2 hot-spread, balanced", balanced, measured, 0.02)
	_, _, measured = run(2, 0, ReadPrimary, 0)
	t.Logf("r=2 read-primary at the same shape: %.4g ops/s (%+.2f %% of the balanced law)",
		measured, 100*(measured/balanced-1))
}

// A shard serves its client connection c on its NIC's port c % 2: every
// server-side queue of the connection — its three trigger QPs, each
// slot's response QP, and the control queues and chain rings of its
// pool contexts, and the loopback peers of the last two — sits on that
// port, and nothing else is on the NIC but the two builders' own control
// queues and their peers. Under a closed get loop the two
// ports' fetch units are then busy within 10 % of each other.
func TestShardServesOnBothPorts(t *testing.T) {
	const (
		nKeys  = 2000
		valLen = 64
	)
	s := NewServiceWith(ServiceConfig{
		Shards: 2, ClientsPerShard: 4, Pipeline: 8, Mode: LookupSeq,
		Replicas: 1, Buckets: 1 << 14, MaxValLen: valLen,
	})
	for _, sh := range s.order {
		dev := sh.srv.node.Dev
		if len(dev.Ports()) != 2 {
			t.Fatalf("%s: %d NIC ports, want 2", sh.id, len(dev.Ports()))
		}
		// conn names the connection each op context belongs to: its
		// trigger QPs' and its slots' contexts.
		conn := map[*telemetry.OpContext]int{}
		for c, cli := range sh.clients {
			for _, p := range cli.pipes {
				conn[p.qp.Context()] = c
				for _, ctx := range p.ctxs {
					conn[ctx] = c
				}
			}
		}
		queues, other := make([]int, len(sh.clients)), 0
		for n := uint32(0); dev.QPByNum(n) != nil; n++ {
			q := dev.QPByNum(n)
			c, ok := conn[q.Context()]
			if r := q.Remote(); !ok && r != nil && r.Device() == dev {
				c, ok = conn[r.Context()] // a loopback queue's peer
			}
			if !ok {
				other++
				continue
			}
			queues[c]++
			if q.Port() != dev.Ports()[c%2] {
				t.Errorf("%s: QP %d of connection %d is not on port %d", sh.id, n, c, c%2)
			}
		}
		// Per connection: 2 trigger QPs, and per slot a response QP and
		// a control queue on each of the two paths, plus a get's chain
		// ring and a set's two; each loopback queue has a peer.
		if want := 2 + 8*(2+2*(2+1+2)); other != 2*len(dev.Ports()) || queues[0] != want {
			t.Fatalf("%s: %d queues outside every connection, connection 0 has %d; want 4 and %d",
				sh.id, other, queues[0], want)
		}
		for c := range queues {
			if queues[c] != queues[0] {
				t.Fatalf("%s: connection %d has %d queues, connection 0 %d", sh.id, c, queues[c], queues[0])
			}
		}
	}

	keys := make([]uint64, nKeys)
	for i := range keys {
		keys[i] = uint64(i + 1)
		if err := s.Set(keys[i], Value(keys[i], valLen)); err != nil {
			t.Fatal(err)
		}
	}
	busy := func(sh *serviceShard, port int) sim.Time { return sh.srv.node.Dev.Ports()[port].FetchUnit().Busy() }
	before := map[*serviceShard][2]sim.Time{}
	for _, sh := range s.order {
		before[sh] = [2]sim.Time{busy(sh, 0), busy(sh, 1)}
	}
	rep := workload.RunClosedLoop(s.Testbed().Engine(), s, workload.ClosedLoopConfig{
		Requests: 20000,
		Window:   64,
		Keys:     &workload.Uniform{Keys: keys, Rng: workload.Rng(1)},
		ValLen:   valLen,
	})
	if rep.Misses != 0 {
		t.Fatalf("%d misses", rep.Misses)
	}
	for _, sh := range s.order {
		b0, b1 := busy(sh, 0)-before[sh][0], busy(sh, 1)-before[sh][1]
		t.Logf("%s: fetch units busy %v on port 0, %v on port 1", sh.id, b0, b1)
		if b0 == 0 || b1 == 0 || math.Abs(float64(b0-b1)) > 0.1*float64(max(b0, b1)) {
			t.Errorf("%s: fetch units busy %v on port 0 and %v on port 1, want within 10 %%", sh.id, b0, b1)
		}
	}
}

// A host-path set whose kick walk reaches a bucket another key's fabric
// fresh claim holds (key word 0 beside its pointer) waits the claim out
// and walks again: the claim resolves within microseconds, so the set
// succeeds instead of failing its leg as if the table were full.
func TestHostWalkWaitsOutAClaim(t *testing.T) {
	const valLen = 64
	s := NewServiceWith(ServiceConfig{
		Shards: 1, ClientsPerShard: 1, Pipeline: 8, Mode: LookupSeq,
		Replicas: 1, Buckets: 64, MaxValLen: valLen,
	})
	sh := s.order[0]
	tb, m := sh.table.table, sh.srv.node.Mem
	keys := []uint64{}
	for k := uint64(1); k <= 24; k++ {
		if err := s.Set(k, Value(k, valLen)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	// x's candidates both hold keys, so its set takes the host path; the
	// walk kicks the resident r of x's first candidate toward r's other
	// bucket, which a fresh claim holds in flight until claimEnds: its
	// pointer landed, its key word is still 0.
	for x := uint64(1000); x < 100000; x++ {
		b0, b1 := tb.Hash(x, 0), tb.Hash(x, 1)
		r, _, _, okA := tb.EntryAt(b0)
		_, _, _, okB := tb.EntryAt(b1)
		alt := tb.Hash(r, 0)
		if alt == b0 {
			alt = tb.Hash(r, 1)
		}
		_, _, _, ok := tb.EntryAt(alt)
		if !okA || !okB || !ok || alt == b0 || alt == b1 {
			continue
		}
		word := tb.BucketAddr(alt) + hopscotch.OffKeyCtrl
		resident, err := m.U64(word)
		if err == nil {
			err = m.PutU64(word, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		eng := s.Testbed().Engine()
		claimEnds := eng.Now() + 10*sim.Microsecond
		eng.At(claimEnds, func() {
			if err := m.PutU64(word, resident); err != nil {
				t.Error(err)
			}
		})
		before := s.Stats()
		if err := s.Set(x, Value(x, valLen)); err != nil {
			t.Fatalf("set of %d, whose walk met a claim: %v", x, err)
		}
		st := s.Stats()
		if st.HostSets != before.HostSets+1 || st.Sets != before.Sets+1 || s.Now() < claimEnds {
			t.Fatalf("host sets %d -> %d, owner sets %d -> %d, done at %v (claim ends %v); want one host leg, one set, after the claim",
				before.HostSets, st.HostSets, before.Sets, st.Sets, s.Now(), claimEnds)
		}
		for _, k := range append(keys, x) {
			if got, _, ok := s.Get(k, valLen); !ok || string(got) != string(Value(k, valLen)) {
				t.Fatalf("key %d read back %x (hit %v)", k, got, ok)
			}
		}
		return
	}
	t.Fatal("no key's walk reaches a second resident")
}

// A get whose hint was read before a delete of its key was issued may
// find the key gone at the placed bucket. That miss is the delete's and
// stands: the get answers it, and does not re-probe both candidates,
// whose miss of the absent key would wait out a MissTimeout of its own
// on top of the one this get queues behind.
func TestHintedGetRacingDeleteMissesOnce(t *testing.T) {
	const valLen = 64
	s := NewServiceWith(ServiceConfig{
		Shards: 1, ClientsPerShard: 1, Pipeline: 1, Mode: LookupSeq,
		Replicas: 1, Buckets: 1 << 10, MaxValLen: valLen,
	})
	const key = 7
	if err := s.Set(key, Value(key, valLen)); err != nil {
		t.Fatal(err)
	}
	if placedFn(s, key, s.order[0]) == 0 {
		t.Fatal("no hint after a fabric set")
	}
	// The one get slot is held for a MissTimeout; the get of key reads
	// its hint now and waits behind it, and the delete lands meanwhile.
	var (
		hit  bool
		lat  Duration
		done bool
	)
	holdGetSlot(s.order[0])
	s.GetAsync(key, valLen, func(_ []byte, l Duration, ok bool) { hit, lat, done = ok, l, true })
	s.DeleteAsync(key, func(Duration, error) {})
	s.Flush()
	s.Run()
	st := s.Stats()
	if !done || hit || st.PlacedMisses != 0 {
		t.Fatalf("get done %v hit %v, %d placed misses; want a miss with none", done, hit, st.PlacedMisses)
	}
	t.Logf("get latency %v", lat)
	if lat >= 2*DefaultMissTimeout {
		t.Fatalf("get latency %v: the miss paid a second MissTimeout", lat)
	}
}

// A locate reads each bucket by its pointer: the key's word beside its
// freed pointer at H1 is the key's delete's, not the key, so the locate
// reads on to H2 and reports the key there; with H2 freed too it
// reports no move. So no hint is ever learned at a free pointer.
func TestLocateReadsPastAFreedWord(t *testing.T) {
	const valLen = 64
	s := NewServiceWith(ServiceConfig{
		Shards: 1, ClientsPerShard: 1, Pipeline: 8, Mode: LookupSeq,
		Replicas: 1, Buckets: 1 << 10, MaxValLen: valLen,
	})
	sh := s.order[0]
	tb, m, cli := sh.table.table, sh.srv.node.Mem, sh.clients[0]
	key := uint64(7)
	for tb.Hash(key, 0) == tb.Hash(key, 1) {
		key++
	}
	if err := s.Set(key, Value(key, valLen)); err != nil {
		t.Fatal(err)
	}
	h1, h2 := tb.HashAddr(key, 0), tb.HashAddr(key, 1)
	ext, n, _ := tb.Lookup(key)
	if tb.LookupBucket(key) != 0 {
		t.Fatal("setup: the key's set did not claim H1")
	}
	m.PutU64(h1+hopscotch.OffValAddr, hopscotch.FreedPtr(key))
	if err := tb.InsertAt(key, ext, n, 1, 0); err != nil {
		t.Fatal(err)
	}
	locate := func() (fn, moved uint64) {
		hintedGet(s, cli, key, hintHead, 1, h2)
		return cli.movedFn, cli.moved
	}
	if fn, moved := locate(); fn != 2 || moved != ext {
		t.Fatalf("locate past H1's freed word reported candidate %d at %#x, want H2 (2) at %#x", fn, moved, ext)
	}
	m.PutU64(h2+hopscotch.OffValAddr, hopscotch.FreedPtr(key))
	if fn, moved := locate(); fn != 0 || moved != 0 {
		t.Fatalf("locate with both candidates freed reported candidate %d at %#x, want none", fn, moved)
	}
}
