package redn

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/failure"
	"repro/internal/sim"
	"repro/internal/workload"
)

// End-to-end: keys set through the service come back intact through
// NIC-offloaded pipelined gets on every shard.
func TestServiceRoundTrip(t *testing.T) {
	s := NewService(4, 2)
	const nKeys = 2000
	for k := uint64(1); k <= nKeys; k++ {
		if err := s.Set(k, Value(k, 64)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Sets != nKeys {
		t.Fatalf("sets %d, want %d", st.Sets, nKeys)
	}
	if st.Spills != 0 {
		t.Fatalf("%d keys spilled to NIC-unreachable slots at low load", st.Spills)
	}
	// Every shard should own a meaningful share of the ring.
	for _, sh := range st.Shards {
		if sh.Sets < nKeys/16 {
			t.Fatalf("shard %s owns only %d keys — ring imbalance", sh.ID, sh.Sets)
		}
	}

	done := 0
	for k := uint64(1); k <= nKeys; k++ {
		key := k
		s.GetAsync(key, 64, func(val []byte, lat Duration, ok bool) {
			done++
			if !ok {
				t.Errorf("get(%d) missed", key)
				return
			}
			if !bytes.Equal(val, Value(key, 64)) {
				t.Errorf("get(%d): wrong value", key)
			}
		})
	}
	s.Flush()
	s.Run()
	if done != nKeys {
		t.Fatalf("completed %d of %d gets", done, nKeys)
	}
	st = s.Stats()
	if st.Hits != nKeys || st.Misses != 0 {
		t.Fatalf("hits=%d misses=%d", st.Hits, st.Misses)
	}
	if st.MaxInFlight < 2 {
		t.Fatalf("pipeline never overlapped (max in flight %d)", st.MaxInFlight)
	}
}

// Cuckoo-kick placement keeps keys NIC-reachable far beyond the
// no-kick capacity; overflow is counted, not lost: spilled keys stay
// CPU-visible even though offloaded gets miss them.
func TestServicePlacementKicks(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 1, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq,
		Buckets: 256, MaxValLen: 64,
	})
	sh := s.order[0]
	const nKeys = 160 // ~62% load on 256 buckets
	for k := uint64(1); k <= nKeys; k++ {
		if err := s.Set(k, Value(k, 16)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	// Without kicks, random two-choice slot-0 placement at this load
	// loses >10% of keys; kicks must hold spills well under that.
	if st.Spills > nKeys/20 {
		t.Fatalf("%d of %d keys spilled despite kicks", st.Spills, nKeys)
	}
	// Every non-spilled key must sit exactly at one of its candidate
	// buckets (the NIC probes those addresses and nothing else).
	table := sh.table.Table()
	reachable := 0
	for k := uint64(1); k <= nKeys; k++ {
		for fn := 0; fn < 2; fn++ {
			if got, _, _, ok := table.EntryAt(table.Hash(k, fn)); ok && got == k {
				reachable++
				break
			}
		}
	}
	if reachable != nKeys-int(st.Spills) {
		t.Fatalf("reachable=%d, want %d - %d spills", reachable, nKeys, st.Spills)
	}
	// And all keys, spilled or not, remain CPU-visible.
	for k := uint64(1); k <= nKeys; k++ {
		if _, _, ok := table.Lookup(k); !ok {
			t.Fatalf("key %d lost during kicks", k)
		}
	}
}

// Replicated sets land on distinct shards; the primary serves gets.
func TestServiceReplication(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 4, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq, Replicas: 2,
	})
	const nKeys = 400
	for k := uint64(1); k <= nKeys; k++ {
		if err := s.Set(k, Value(k, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Sets != 2*nKeys {
		t.Fatalf("replicated sets %d, want %d", st.Sets, 2*nKeys)
	}
	val, _, ok := s.Get(7, 64)
	if !ok || !bytes.Equal(val, Value(7, 64)) {
		t.Fatal("replicated get failed")
	}
}

// The whole service stack must be deterministic: identical runs yield
// identical virtual-time outcomes.
func TestServiceDeterministic(t *testing.T) {
	run := func() (sim.Time, ServiceStats, workload.LoadReport) {
		s := NewService(2, 2)
		keys := make([]uint64, 500)
		for i := range keys {
			keys[i] = uint64(i + 1)
			s.Set(keys[i], Value(keys[i], 64))
		}
		rep := workload.RunClosedLoop(s.Testbed().clu.Eng, s, workload.ClosedLoopConfig{
			Requests:   3000,
			Window:     32,
			Keys:       workload.NewZipfian(keys, workload.DefaultZipfS, workload.Rng(1)),
			ValLen:     64,
			WriteEvery: 10,
		})
		return s.Now(), s.Stats(), rep
	}
	t1, s1, r1 := run()
	t2, s2, r2 := run()
	if t1 != t2 {
		t.Fatalf("virtual clocks diverged: %v vs %v", t1, t2)
	}
	if s1.Hits != s2.Hits || s1.Misses != s2.Misses || s1.Gets != s2.Gets {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	if r1.GetsPerSec != r2.GetsPerSec || r1.P99 != r2.P99 {
		t.Fatalf("reports diverged: %v vs %v", r1, r2)
	}
	if r1.Misses != 0 {
		t.Fatalf("%d misses on a fully resident key set", r1.Misses)
	}
}

// Round-robin replica reads spread a single hot key's gets across all
// of its owners; read-primary concentrates them on one shard.
func TestServiceReadSpreading(t *testing.T) {
	run := func(policy ReadPolicy) map[string]uint64 {
		s := NewServiceWith(ServiceConfig{
			Shards: 4, ClientsPerShard: 1, Pipeline: 8, Mode: LookupSeq,
			Replicas: 3, ReadPolicy: policy,
		})
		const hot = 42
		if err := s.Set(hot, Value(hot, 64)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			s.GetAsync(hot, 64, func(_ []byte, _ Duration, ok bool) {
				if !ok {
					t.Error("hot get missed")
				}
			})
		}
		s.Flush()
		s.Run()
		per := map[string]uint64{}
		for _, sh := range s.Stats().Shards {
			per[sh.ID] = sh.Gets
		}
		return per
	}

	primary := run(ReadPrimary)
	busy := 0
	for _, g := range primary {
		if g > 0 {
			busy++
		}
	}
	if busy != 1 {
		t.Fatalf("read-primary touched %d shards for one key, want 1", busy)
	}

	busy = 0
	for _, g := range run(ReadRoundRobin) {
		if g >= 50 {
			busy++
		}
	}
	if busy != 3 {
		t.Fatalf("round-robin sent meaningful load to %d shards, want all 3 owners", busy)
	}
}

// Hot-spread joins the shortest queue: a get goes to the owner with the
// fewest gets outstanding on the service's own connections to it (in
// flight, quarantined and waiting), ties to ring order, primary first,
// and the other owners follow in ring order. Hotness plays no part. (a)
// On an idle service every get goes to its key's primary. (b) Loaded
// owners lose the get to a less-loaded one. (c) A batch over keys with
// the same two owners, a tracked hot key among them, splits within one
// get between the two, each get to the owner less loaded when it is
// issued. (d) An owner whose get slots are all quarantined (a frozen NIC
// the breaker has not yet caught) is passed over while another owner
// has room.
func TestServiceHotSpreadJoinsShortestQueue(t *testing.T) {
	const valLen = 64
	newSvc := func(replicas int) (*Service, []uint64) {
		s := NewServiceWith(ServiceConfig{
			Shards: 4, ClientsPerShard: 2, Pipeline: 8, Mode: LookupSeq,
			Replicas: replicas, ReadPolicy: ReadHotSpread, HotKeyCache: 8,
		})
		keys := make([]uint64, 200)
		for i := range keys {
			keys[i] = uint64(i + 1)
			if err := s.Set(keys[i], Value(keys[i], valLen)); err != nil {
				t.Fatal(err)
			}
		}
		return s, keys
	}
	noop := func([]byte, Duration, bool) {}
	// load puts n gets of key on sh's connections, past the service's
	// routing: locates, which need no hint.
	load := func(sh *serviceShard, key uint64, n int) {
		for i := 0; i < n; i++ {
			sh.clients[i%len(sh.clients)].locateAsync(key, 0, noop)
		}
	}
	gets := func(s *Service) map[string]uint64 {
		m := map[string]uint64{}
		for _, sh := range s.order {
			m[sh.id] = sh.stats.Gets
		}
		return m
	}

	s, keys := newSvc(3)
	// (a) Every load is 0: every get ties, and the primary takes it.
	before := gets(s)
	want := map[string]uint64{}
	for _, k := range keys[:40] {
		want[s.Owners(k)[0]]++
		if _, _, ok := s.Get(k, valLen); !ok {
			t.Fatalf("get %d missed", k)
		}
	}
	for id, n := range gets(s) {
		if n-before[id] != want[id] {
			t.Fatalf("(a) idle: %s served %d gets, primary of %d", id, n-before[id], want[id])
		}
	}

	// (b) The owners of key hold 3, 1 and 2 outstanding gets: the middle
	// one goes first, the rest in ring order. Loading it to 3 leaves the
	// last owner least loaded, and 3, 3, 3 ties back to ring order.
	key := keys[0]
	own := s.Owners(key)
	sh := func(i int) *serviceShard { return s.shards[own[i]] }
	order := func() []string {
		g := s.takeGet(key, valLen, 0, noop)
		s.readOrder(g)
		ids := make([]string, len(g.order))
		for i, o := range g.order {
			ids[i] = o.id
		}
		g.release()
		return ids
	}
	load(sh(0), key, 3)
	load(sh(1), key, 1)
	load(sh(2), key, 2)
	for _, step := range []struct {
		more, n int
		want    []int
	}{{0, 0, []int{1, 0, 2}}, {1, 2, []int{2, 0, 1}}, {2, 1, []int{0, 1, 2}}} {
		load(sh(step.more), key, step.n)
		got := order()
		for i, o := range step.want {
			if got[i] != own[o] {
				t.Fatalf("(b) loads %d/%d/%d: order %v, want owners %v of %v",
					sh(0).getLoad(), sh(1).getLoad(), sh(2).getLoad(), got, step.want, own)
			}
		}
	}
	s.Flush()
	s.Run()
	// A real get follows the order: with 2, 2 and 0 outstanding it goes
	// to the idle third owner.
	load(sh(0), key, 2)
	load(sh(1), key, 2)
	before = gets(s)
	s.GetAsync(key, valLen, noop)
	if got := gets(s); got[own[2]] != before[own[2]]+1 {
		t.Fatalf("(b) the get went elsewhere than the idle owner %s: gets %v -> %v", own[2], before, got)
	}
	s.Flush()
	s.Run()

	// (c) Keys sharing the hot key's two owners, hot and cold alternating
	// in one batch.
	s, keys = newSvc(2)
	const hot = 7
	for i := 0; i < 5; i++ {
		if _, _, ok := s.Get(hot, valLen); !ok {
			t.Fatal("hot get missed")
		}
	}
	if s.hot.Count(hot) == 0 || len(s.cache) != 0 {
		t.Fatalf("setup: hot key counted %d, %d cached values; want tracked and none", s.hot.Count(hot), len(s.cache))
	}
	pair := s.Owners(hot)
	var cold []uint64
	for _, k := range keys {
		if o := s.Owners(k); k != hot && slices.Contains(o, pair[0]) && slices.Contains(o, pair[1]) {
			cold = append(cold, k)
		}
	}
	if len(cold) < 20 {
		t.Fatalf("setup: %d keys share the hot key's owners %v, want 20", len(cold), pair)
	}
	before = gets(s)
	for i := 0; i < 40; i++ {
		k := uint64(hot)
		if i%2 == 0 {
			k = cold[i/2]
		}
		o := s.Owners(k)
		exp := o[0]
		if s.shards[o[1]].getLoad() < s.shards[o[0]].getLoad() {
			exp = o[1]
		}
		was := gets(s)
		s.GetAsync(k, valLen, noop)
		if got := gets(s); got[exp] != was[exp]+1 {
			t.Fatalf("(c) get %d of key %d (hot %v): owners %v, want the less-loaded %s; gets %v -> %v",
				i, k, k == hot, o, exp, was, got)
		}
	}
	a, b := gets(s)[pair[0]]-before[pair[0]], gets(s)[pair[1]]-before[pair[1]]
	if a+b != 40 || max(a, b)-min(a, b) > 1 {
		t.Fatalf("(c) a batch of 40 split %d / %d over its two owners, want within one", a, b)
	}
	s.Flush()
	s.Run()

	// (d) Freeze the pair's first owner and quarantine every get slot on
	// both its connections; the breaker never hears of it.
	frozen, live := s.shards[pair[0]], s.shards[pair[1]]
	frozen.srv.node.Dev.Freeze()
	load(frozen, hot, 2*8)
	s.Flush()
	s.Run()
	for _, c := range frozen.clients {
		if st := c.pipelineStats(pipeGet); st.Wedged != 8 || st.InFlight != 0 || frozen.down() {
			t.Fatalf("setup: frozen owner's connection has %d of 8 get slots quarantined, %d in flight (down %v); want 8, 0 and the breaker closed",
				st.Wedged, st.InFlight, frozen.down())
		}
	}
	// The live owner holds 4 of its 16 slots: 11 more gets leave it room.
	load(live, hot, 4)
	before = gets(s)
	for _, k := range cold[:11] {
		s.GetAsync(k, valLen, noop)
	}
	if got := gets(s); got[frozen.id] != before[frozen.id] {
		t.Fatalf("(d) the quarantined owner was chosen while %s had room: gets %v -> %v", live.id, before, got)
	}
	s.Flush()
	s.Run()
}

// The client-side cache serves tracked-hot keys without touching the
// ring, and writes keep it coherent.
func TestServiceHotKeyCache(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 2, ClientsPerShard: 1, Pipeline: 8, Mode: LookupSeq,
		Replicas: 2, HotKeyCache: 8,
	})
	const hot = 99
	if err := s.Set(hot, Value(hot, 64)); err != nil {
		t.Fatal(err)
	}
	get := func() []byte {
		val, _, ok := s.Get(hot, 64)
		if !ok {
			t.Fatal("hot get missed")
		}
		return val
	}
	for i := 0; i < 20; i++ {
		get()
	}
	st := s.Stats()
	if st.CacheHits == 0 {
		t.Fatal("no cache hits after 20 accesses of one hot key")
	}
	ringGets := st.Gets
	// A set must update (not stale-serve) the cached value...
	if err := s.Set(hot, Value(hot+1, 64)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(get(), Value(hot+1, 64)) {
		t.Fatal("cache served a stale value after Set")
	}
	// ...and the refreshed get still comes from the cache.
	if s.Stats().Gets != ringGets {
		t.Fatal("post-Set get went to the ring despite a fresh cache entry")
	}
}

// A process crash with replicas: gets fail over to the backup owner,
// the dead shard is circuit-broken, and the rebuilt shard serves again
// after reconnect — all without losing a single get to a false miss.
func TestServiceCrashFailover(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 2, ClientsPerShard: 1, Pipeline: 8, Mode: LookupSeq,
		Replicas: 2, ReadPolicy: ReadRoundRobin,
	})
	keys := make([]uint64, 200)
	for i := range keys {
		keys[i] = uint64(i + 1)
		if err := s.Set(keys[i], Value(keys[i], 64)); err != nil {
			t.Fatal(err)
		}
	}
	crashAt := s.Now() + sim.Millisecond
	s.CrashShard(0, failure.ProcessCrash, crashAt)

	// Issue gets in closed loops across the crash and recovery window.
	misses := 0
	done := 0
	const total = 10000
	issued := 0
	var user func()
	user = func() {
		if issued >= total {
			return
		}
		k := keys[issued%len(keys)]
		issued++
		s.GetAsync(k, 64, func(_ []byte, _ Duration, ok bool) {
			done++
			if !ok {
				misses++
			}
			user()
			s.Flush()
		})
	}
	for i := 0; i < 8; i++ {
		user()
	}
	s.Flush()
	s.Run()

	if done != total {
		t.Fatalf("completed %d of %d gets across the crash", done, total)
	}
	if misses != 0 {
		t.Fatalf("%d gets lost to the crash despite a live replica", misses)
	}
	st := s.Stats()
	if st.Retries == 0 {
		t.Fatal("no failover retries recorded across a crash")
	}
	if st.Shards[0].Rebuilds != 1 {
		t.Fatalf("crashed shard rebuilt %d times, want 1", st.Shards[0].Rebuilds)
	}
	// Sets to the crashed shard error while its host is down.
	if s.Now() <= crashAt {
		t.Fatal("run ended before the crash")
	}
}

// Without replicas, a crashed shard's keys miss for the outage window
// but the service itself keeps running and recovers after reconnect.
func TestServiceCrashNoReplicaRecovers(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 2, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq,
	})
	const key = 17
	if err := s.Set(key, Value(key, 64)); err != nil {
		t.Fatal(err)
	}
	owner := s.Owners(key)[0]
	idx := 0
	for i, sh := range []string{s.ShardID(0), s.ShardID(1)} {
		if sh == owner {
			idx = i
		}
	}
	crashAt := s.Now() + sim.Millisecond
	s.CrashShard(idx, failure.ProcessCrash, crashAt)
	s.Testbed().RunFor(2 * sim.Millisecond)

	if _, _, ok := s.Get(key, 64); ok {
		t.Fatal("get succeeded on a frozen shard with no replica")
	}
	// Sets to the dead host fail.
	if err := s.Set(key, Value(key, 64)); err == nil {
		t.Fatal("set succeeded on a crashed host")
	}
	// Ride past bootstrap + rebuild: reconnected clients serve again.
	s.Testbed().RunFor(3 * sim.Second)
	if err := s.Set(key, Value(key, 64)); err != nil {
		t.Fatalf("set after recovery: %v", err)
	}
	val, _, ok := s.Get(key, 64)
	if !ok || !bytes.Equal(val, Value(key, 64)) {
		t.Fatal("get failed after recovery and reconnect")
	}
}

// Absent-key misses execute their chains on a live NIC and must not
// advance the crash detector: a healthy shard never gets suspected by
// workload misses. Each owner answers an absent key's locate in one
// round trip, so the miss takes one round trip per replica, not a
// MissTimeout per replica.
func TestServiceAbsentKeysDoNotSuspect(t *testing.T) {
	for r := 1; r <= 3; r++ {
		s := NewServiceWith(ServiceConfig{
			Shards: max(r, 2), ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq, Replicas: r,
		})
		if err := s.Set(1, Value(1, 64)); err != nil {
			t.Fatal(err)
		}
		_, rt, _ := s.Get(1, 64) // one idle round trip: a hinted hit
		for i := 0; i < 3*defaultSuspectAfter; i++ {
			_, lat, ok := s.Get(100000+uint64(i), 64)
			if ok {
				t.Fatal("absent key found")
			}
			if lat > Duration(r)*rt {
				t.Fatalf("r=%d: an absent key's miss took %v, over %d round trips of %v", r, lat, r, rt)
			}
		}
		for _, sh := range s.order {
			if sh.consecMiss != 0 || sh.suspectUntil != 0 {
				t.Fatalf("shard %s suspected by genuine misses (consecMiss=%d)", sh.id, sh.consecMiss)
			}
		}
		if _, _, ok := s.Get(1, 64); !ok {
			t.Fatal("present key missed after absent-key run")
		}
	}
}

// A delete of a key an owner does not hold asks nothing of that owner —
// it is at the delete's end state already — so it applies there whether
// or not the crash detector's breaker is open, and records the
// tombstone version. Hinting it instead would leave, once the hint is
// lost, a version skew between two absent replicas that neither probes
// nor anti-entropy scans (both read residents) can ever see.
func TestServiceAbsentDeleteAppliesUnderSuspicion(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 2, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq, Replicas: 2,
	})
	const key = 21
	if err := s.Set(key, Value(key, 64)); err != nil {
		t.Fatal(err)
	}
	if !s.Delete(key) {
		t.Fatal("setup delete failed")
	}
	s.Run()
	owners := s.Owners(key)
	s.shards[owners[1]].suspectUntil = s.Now() + 10*sim.Second
	var err error
	done := false
	s.DeleteAsync(key, func(_ Duration, e error) { err, done = e, true })
	s.Flush()
	s.Run()
	if !done || err != nil {
		t.Fatalf("delete of an absent key with a suspected owner: done=%v err=%v", done, err)
	}
	if st := s.Stats(); st.HintsQueued != 0 {
		t.Fatalf("%d hints queued for a delete the owner had nothing to do for", st.HintsQueued)
	}
	for _, id := range owners {
		if v, del, ok := s.ownerState(s.shards[id], key); !ok || !del || v != s.keys[key].seq {
			t.Fatalf("owner %s holds version %d (tombstone=%v, any=%v), want the tombstone at %d", id, v, del, ok, s.keys[key].seq)
		}
	}
}

// A refused claim is an answer, not silence: a write stream whose every
// claim loses its bucket to a racing host writer — each set finds its
// candidate bucket taken, each delete finds its key already gone —
// rolls forward on the host one round trip later, never waits out a
// miss deadline, and never moves the crash detector on the live shard.
func TestServiceRefusedClaimsRollForwardWithoutSuspicion(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 1, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq, Replicas: 1,
	})
	sh := s.order[0]
	ht := sh.table.Table()
	write := func(key uint64, del bool, race func()) {
		t.Helper()
		var lat Duration
		var err error
		done := false
		cb := func(l Duration, e error) { lat, err, done = l, e, true }
		if del {
			s.DeleteAsync(key, cb)
		} else {
			s.SetAsync(key, Value(key, 64), cb)
		}
		s.Flush()
		// The claim is computed and its chain posted; the race lands
		// before the trigger crosses the wire.
		race()
		s.Testbed().RunFor(DefaultMissTimeout / 2)
		if !done || err != nil || lat >= 20*sim.Microsecond {
			t.Fatalf("write of key %d (del=%v): done=%v err=%v lat=%v, want applied within a round trip and a host RPC",
				key, del, done, err, lat)
		}
	}
	const n = 3 * defaultSuspectAfter
	foreign := uint64(1) << 32
	for i := uint64(0); i < n; i++ {
		key := 1000 + i
		claim, fabric := claimForTable(ht, LookupSeq, key)
		if !fabric || claim.Expect != 0 {
			t.Fatalf("key %d: want a fresh fabric claim of an empty bucket, got %+v fabric=%v", key, claim, fabric)
		}
		write(key, false, func() {
			// A host insert of some other key whose first candidate is the
			// bucket just claimed.
			for ; ht.BucketAddr(ht.Hash(foreign, 0)) != claim.BucketAddr; foreign++ {
			}
			if err := sh.set(foreign, Value(foreign, 64), 1); err != nil {
				t.Fatal(err)
			}
			foreign++
		})
		if v, ok := ownerValue(t, s, sh.id, key); !ok || !bytes.Equal(v, Value(key, 64)) {
			t.Fatalf("key %d not applied by the host roll-forward", key)
		}
	}
	for i := uint64(0); i < n; i++ {
		key := 1000 + i
		if _, _, fabric := residentBucket(ht, LookupSeq, key); !fabric {
			continue // spilled by the race above: a host delete from the start
		}
		write(key, true, func() { sh.del(key) })
		if _, ok := ownerValue(t, s, sh.id, key); ok {
			t.Fatalf("key %d survived its delete", key)
		}
	}
	st := s.Stats()
	if st.FabricSets != n || st.HostSets != n {
		t.Fatalf("%d fabric sets, %d host sets; want every one of %d claims issued, refused and rolled forward", st.FabricSets, st.HostSets, n)
	}
	if st.FabricDeletes == 0 || st.HostDeletes != st.FabricDeletes {
		t.Fatalf("%d fabric deletes, %d host deletes; want every claim refused and rolled forward", st.FabricDeletes, st.HostDeletes)
	}
	if sh.consecMiss != 0 || sh.suspectUntil != 0 {
		t.Fatalf("refusals moved the crash detector: consecMiss=%d suspectUntil=%v", sh.consecMiss, sh.suspectUntil)
	}
	for _, c := range sh.clients {
		if set := c.pipelineStats(pipeSet); set.Acks != 0 || set.Wedged != 0 {
			t.Fatalf("client saw %d set or delete acks, %d wedged slots; want none", set.Acks, set.Wedged)
		}
	}
}

// ownerValue reads key's bytes straight out of one owner's table (the
// CPU-visible ground truth, bypassing the fabric).
func ownerValue(t *testing.T, s *Service, id string, key uint64) ([]byte, bool) {
	t.Helper()
	sh := s.shards[id]
	va, _, vl, ok := sh.stored(key)
	if !ok {
		return nil, false
	}
	v, err := sh.srv.node.Mem.Read(va, vl)
	if err != nil {
		t.Fatalf("owner %s value read: %v", id, err)
	}
	return v, true
}

// Regression for the torn-replica bug: the old Set returned on the
// first owner error, leaving earlier owners updated and the write
// neither done nor undone. Partial writes are now explicit: a failed
// write-all quorum reports a typed *QuorumError, the owners that
// applied KEEP the new value (roll forward, never roll back), and
// hinted handoff completes the write on the dead owner at recovery —
// replicas converge instead of diverging.
func TestServiceSetRollsForward(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 2, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq, Replicas: 2,
	})
	const key = 21
	if err := s.Set(key, Value(key, 64)); err != nil {
		t.Fatal(err)
	}
	owners := s.Owners(key)
	idx := 0
	for i := 0; i < s.NumShards(); i++ {
		if s.ShardID(i) == owners[1] {
			idx = i
		}
	}
	crashAt := s.Now() + sim.Millisecond
	s.CrashShard(idx, failure.ProcessCrash, crashAt)
	s.Testbed().RunFor(2 * sim.Millisecond) // NIC frozen, host down

	// Overwrite with one of two owners dead under write-all (W=N=2).
	err := s.Set(key, Value(key+1, 64))
	var qe *QuorumError
	if !errors.As(err, &qe) {
		t.Fatalf("want *QuorumError with an owner down, got %v", err)
	}
	if qe.Acks != 1 || qe.Need != 2 {
		t.Fatalf("quorum error %+v, want 1/2 acks", qe)
	}
	// The live owner rolled FORWARD: it serves the new value already.
	if v, ok := ownerValue(t, s, owners[0], key); !ok || !bytes.Equal(v, Value(key+1, 64)) {
		t.Fatal("surviving owner does not hold the new value after a failed quorum")
	}
	// The dead owner still has the old value, with a hint queued.
	if v, ok := ownerValue(t, s, owners[1], key); !ok || !bytes.Equal(v, Value(key, 64)) {
		t.Fatal("dead owner's table changed while its host was down")
	}
	if st := s.Stats(); st.HintsPending != 1 || st.QuorumFails != 1 {
		t.Fatalf("hints pending %d / quorum fails %d, want 1/1", st.HintsPending, st.QuorumFails)
	}
	// Recovery drains the hint: replicas converge on the new value.
	s.Testbed().RunFor(4 * sim.Second)
	for _, id := range owners {
		if v, ok := ownerValue(t, s, id, key); !ok || !bytes.Equal(v, Value(key+1, 64)) {
			t.Fatalf("owner %s did not converge after handoff", id)
		}
	}
	st := s.Stats()
	if st.HintsApplied != 1 || st.HintsPending != 0 {
		t.Fatalf("hints applied %d pending %d, want 1/0", st.HintsApplied, st.HintsPending)
	}
}

// Regression: Service.Set never checked len(value) against MaxValLen,
// so an oversized value panicked inside the first owner leg's client —
// after the coordinator had issued a sequence number, counted the key
// unsettled and written the cache through. A caller that recovered was
// left with a key that could never be cache-admitted or repaired
// again. The write is refused at admission with a typed error,
// before any coordinator state is touched.
func TestServiceSetRejectsOversizedValue(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 2, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq, Replicas: 2,
		Buckets: 1 << 12, MaxValLen: 64,
	})
	const key = 7
	if err := s.Set(key, make([]byte, 65)); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("oversized set returned %v, want ErrValueTooLarge", err)
	}
	if len(s.keys) != 0 {
		t.Fatalf("refused set touched coordinator state: key records %v", s.keys)
	}
	if st := s.Stats(); st.SetOps != 0 || st.FabricSets+st.HostSets != 0 {
		t.Fatalf("refused set reached the fan-out: %d ops, %d owner writes", st.SetOps, st.FabricSets+st.HostSets)
	}
	// The key is not poisoned: a value at the limit goes through.
	if err := s.Set(key, Value(key, 64)); err != nil {
		t.Fatalf("in-range set after a refusal: %v", err)
	}
	if v, _, ok := s.Get(key, 64); !ok || !bytes.Equal(v, Value(key, 64)) {
		t.Fatal("in-range set after a refusal did not read back")
	}
	for k, rec := range s.keys {
		if rec.unsettled != 0 {
			t.Fatalf("key %d left unsettled: %+v", k, rec)
		}
	}
}

// Roll forward, never back: a repair's replay re-derives the winning
// state when it reaches the owner's per-key slot, not when it was
// queued. A repair is parked on a lagging owner's slot behind a newer
// write's leg in flight to it; when its turn comes the owner is already
// past the state it was queued to deliver, and it may not touch it.
func TestServiceConvergeNeverRollsBack(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 3, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq,
		Replicas: 3, WriteQuorum: 2, Buckets: 1 << 12,
	})
	const key = 41
	if err := s.Set(key, Value(key+1, 64)); err != nil {
		t.Fatal(err)
	}
	// Make one owner lag: it is down for seq 2 and its hint is lost.
	lagID := s.Owners(key)[2]
	s.CrashShard(crashIdx(t, s, lagID), failure.ProcessCrash, s.Now()+sim.Millisecond)
	s.Testbed().RunFor(2 * sim.Millisecond)
	if err := s.Set(key, Value(key+2, 64)); err != nil {
		t.Fatal(err)
	}
	s.Testbed().RunFor(sim.Millisecond) // the dead owner's leg times out into a hint
	if s.DropHints() != 1 {
		t.Fatal("the down owner's hint was not queued")
	}
	s.Testbed().RunFor(4 * sim.Second) // recovery; nothing heals the laggard
	lag := s.shards[lagID]
	if v, ok := ownerValue(t, s, lagID, key); !ok || !bytes.Equal(v, Value(key+1, 64)) {
		t.Fatal("setup: the recovered owner does not lag at seq 1")
	}
	var applied []uint64
	s.applyHook = func(id string, _, seq uint64) {
		if id == lagID {
			applied = append(applied, seq)
		}
	}

	// Seq 3's leg to the lagging owner holds the (owner, key) slot, in
	// flight on the fabric. The repair queues behind it still believing
	// seq 2 wins.
	newer := Value(key+3, 64)
	var setErr error = errors.New("unacked")
	s.SetAsync(key, newer, func(_ Duration, err error) { setErr = err })
	q := lag.keys[key].slot
	if r := *q.Peek(); q.Len() != 1 || r.next != runAck || r.op == nil || r.m.seq != 3 {
		t.Fatal("setup: seq 3's leg does not hold the slot in flight")
	}
	s.queueRepair(lag, key, 2)
	if q.Len() != 2 {
		t.Fatalf("%d runs parked behind the in-flight leg, want 1", q.Len()-1)
	}
	if r := slotRuns(q)[1]; r.next != runSlot || r.op != nil || r.h == nil || r.m != &r.mut {
		t.Fatal("the parked run is not the repair's replay waiting for the slot")
	}
	s.Run()

	if setErr != nil {
		t.Fatalf("seq 3: %v", setErr)
	}
	if v, ok := ownerValue(t, s, lagID, key); !ok || !bytes.Equal(v, newer) {
		t.Fatal("a parked repair rolled the owner back off the newer write")
	}
	if len(applied) != 1 || applied[0] != 3 {
		t.Fatalf("owner applied seqs %v, want only the newer write's [3]", applied)
	}
	st := s.Stats()
	if st.RepairsSuperseded != 1 || st.RepairsApplied != 0 || st.RepairsDropped != 0 {
		t.Fatalf("repairs superseded/applied/dropped %d/%d/%d; want 1/0/0",
			st.RepairsSuperseded, st.RepairsApplied, st.RepairsDropped)
	}
	if lag.keys[key].slot != nil {
		t.Fatal("the per-key slot was never released")
	}
}

// A set racing an in-flight get must not let the get's (stale)
// response be admitted to the cache afterward.
func TestServiceCacheAdmissionSetRace(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 2, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq, HotKeyCache: 8,
	})
	const hot = 5
	if err := s.Set(hot, Value(hot, 64)); err != nil {
		t.Fatal(err)
	}
	// Heat the key past the admission threshold WITHOUT letting any get
	// complete yet: issue the gets, then Set v2 before running.
	for i := 0; i < 2*cacheAdmitCount; i++ {
		s.GetAsync(hot, 64, func(_ []byte, _ Duration, _ bool) {})
	}
	s.Flush()
	if err := s.Set(hot, Value(hot+1, 64)); err != nil {
		t.Fatal(err)
	}
	s.Run() // in-flight gets (which read v1 or v2) complete now
	// Whatever happened, the next get must observe v2.
	val, _, ok := s.Get(hot, 64)
	if !ok || !bytes.Equal(val, Value(hot+1, 64)) {
		t.Fatal("stale value served after a racing set")
	}
}

// ---- write-path consistency suite ----

// Linearizability-style checker over a concurrent mixed history of
// gets, sets AND deletes: every value a read returns must have been
// written by an overlapping or earlier write, and once a write has
// settled on EVERY owner (applied, drained, or superseded — the settle
// hook), no later read may return an older value; a read may observe
// "absent" only when a delete could explain it. Replica lag and hinted
// handoff are allowed to serve stale states only while the newer
// write/delete is still unsettled; the client cache is in the loop,
// and retired extents are reused underneath the readers. A shard
// crashes and recovers mid-run.
func TestServiceLinearizableMixedHistory(t *testing.T) {
	runLinearizableHistory(t, false)
}

// The same checker with the repair subsystem fully in the loop:
// read-repair probes on every replicated hit, the anti-entropy sweeper
// rotating underneath the history, and — crucially — every handoff
// hint DROPPED right after the crash, so the repair machinery (not
// hinted handoff) is what converges the recovered shard. Repairs
// re-apply old sequences to laggards; the checker's per-owner apply
// logs prove they only ever roll replicas forward.
func TestServiceLinearizableRepairHistory(t *testing.T) {
	runLinearizableHistory(t, true)
}

func runLinearizableHistory(t *testing.T, withRepair bool) {
	cfg := ServiceConfig{
		Shards: 3, ClientsPerShard: 2, Pipeline: 8, Mode: LookupSeq,
		Replicas: 3, WriteQuorum: 2, ReadPolicy: ReadRoundRobin, HotKeyCache: 8,
		Buckets: 1 << 12, MaxValLen: 64,
	}
	if withRepair {
		cfg.ReadRepair = true
		cfg.AntiEntropyEvery = 300 * sim.Microsecond
		cfg.AntiEntropySegments = 16
	}
	s := NewServiceWith(cfg)
	const nKeys = 8
	const valLen = 48

	type wrec struct {
		seq   uint64
		del   bool
		start sim.Time
		acked bool
		err   error
	}
	writes := make(map[uint64][]*wrec)
	// applies[key][owner] is the monotone (time, seq) apply log of one
	// replica — the ground truth for when a value became visible there.
	type apply struct {
		at  sim.Time
		seq uint64
	}
	applies := make(map[uint64]map[string][]apply)
	s.applyHook = func(shardID string, key, seq uint64) {
		if applies[key] == nil {
			applies[key] = make(map[string][]apply)
		}
		log := applies[key][shardID]
		if n := len(log); n > 0 && seq < log[n-1].seq {
			t.Fatalf("owner %s applied key %d seq %d after seq %d — replica went backward",
				shardID, key, seq, log[n-1].seq)
		}
		applies[key][shardID] = append(log, apply{at: s.Now(), seq: seq})
	}
	val := func(key, seq uint64) []byte { return Value(key*1_000_000+seq, valLen) }

	// Preload every key (seq 1) while all shards are healthy, so the
	// history never races a key's very first bucket claim.
	for k := uint64(1); k <= nKeys; k++ {
		w := &wrec{seq: 1, start: s.Now()}
		writes[k] = append(writes[k], w)
		if err := s.Set(k, val(k, 1)); err != nil {
			t.Fatal(err)
		}
		w.acked = true
	}

	type rrec struct {
		key        uint64
		start, end sim.Time
		val        []byte
		miss       bool
	}
	var reads []rrec

	rng := workload.Rng(3)
	const totalOps = 4000
	ops := 0
	var worker func()
	worker = func() {
		if ops >= totalOps {
			return
		}
		ops++
		key := uint64(rng.Intn(nKeys) + 1)
		switch r := rng.Intn(6); {
		case r == 0: // delete
			w := &wrec{seq: uint64(len(writes[key]) + 1), del: true, start: s.Now()}
			writes[key] = append(writes[key], w)
			s.DeleteAsync(key, func(_ Duration, err error) {
				w.acked, w.err = err == nil, err
				worker()
				s.Flush()
			})
		case r <= 2: // set
			w := &wrec{seq: uint64(len(writes[key]) + 1), start: s.Now()}
			writes[key] = append(writes[key], w)
			s.SetAsync(key, val(key, w.seq), func(_ Duration, err error) {
				w.acked, w.err = err == nil, err
				worker()
				s.Flush()
			})
		default: // get
			start := s.Now()
			s.GetAsync(key, valLen, func(v []byte, _ Duration, ok bool) {
				reads = append(reads, rrec{key: key, start: start, end: s.Now(),
					val: append([]byte(nil), v...), miss: !ok})
				worker()
				s.Flush()
			})
		}
	}
	for i := 0; i < 12; i++ {
		worker()
	}
	s.Flush()
	crashAt := s.Now() + 500*sim.Microsecond
	s.CrashShard(0, failure.ProcessCrash, crashAt)
	if withRepair {
		// Lose every hint the crash accumulated, right before recovery
		// would have drained them (failure.BootstrapTime + failure.RebuildTime
		// after the crash): convergence must come from the repair
		// subsystem, not handoff. The drop must find hints to drop, or
		// a recovery-timing drift has silently degraded this test to
		// the plain hint-drain variant.
		s.tb.clu.Eng.At(crashAt+2249*sim.Millisecond, func() {
			if s.DropHints() == 0 {
				t.Error("nothing to drop at crash+2249ms — hints already drained; repair not exercised")
			}
		})
	}
	s.Run()
	s.Testbed().RunFor(4 * sim.Second) // recovery + handoff drain
	if ops != totalOps {
		t.Fatalf("history stalled at %d of %d ops", ops, totalOps)
	}
	if len(reads) == 0 {
		t.Fatal("history recorded no successful reads")
	}

	// Validate every read against the per-key write history. A hit's
	// value must come from a real (non-delete) write that did not start
	// after the read ended, and must be at least as new as the floor
	// every replica had already applied when the read began (replica
	// lag and handoff may serve older states only while some owner
	// still lacks the newer one; the cache only ever runs ahead). A
	// miss must be explainable by a delete: one no older than the
	// stable floor, issued before the read ended — absent that, the
	// read dropped a key every owner provably held.
	misses := 0
	for i, r := range reads {
		stable := uint64(0)
		for j, id := range s.Owners(r.key) {
			ownerMax := uint64(0)
			for _, a := range applies[r.key][id] {
				if a.at <= r.start && a.seq > ownerMax {
					ownerMax = a.seq
				}
			}
			if j == 0 || ownerMax < stable {
				stable = ownerMax
			}
		}
		if r.miss {
			misses++
			justified := false
			for _, w := range writes[r.key] {
				if w.del && w.start <= r.end && w.seq >= stable {
					justified = true
					break
				}
			}
			if !justified {
				t.Fatalf("read %d of key %d observed ABSENT although every owner held seq %d (a set) before the read began and no delete could explain it",
					i, r.key, stable)
			}
			continue
		}
		var match *wrec
		for _, w := range writes[r.key] {
			if !w.del && bytes.Equal(r.val, val(r.key, w.seq)) {
				match = w
				break
			}
		}
		if match == nil {
			t.Fatalf("read %d of key %d returned bytes no write produced", i, r.key)
		}
		if match.start > r.end {
			t.Fatalf("read %d of key %d returned a write issued after the read completed", i, r.key)
		}
		if match.seq < stable {
			t.Fatalf("read %d of key %d resurrected seq %d although every owner held >= seq %d before the read began",
				i, r.key, match.seq, stable)
		}
	}
	if misses == 0 {
		t.Fatal("history recorded no misses — deletes never surfaced to readers")
	}

	// The crash must actually have exercised the handoff machinery (or,
	// in the repair variant, the repair machinery standing in for the
	// hints it dropped), and the history must have exercised the
	// lifecycle subsystem: fabric deletes retiring extents.
	st := s.Stats()
	if st.HintsQueued == 0 {
		t.Fatal("history never queued a handoff hint")
	}
	if withRepair {
		if st.Probes == 0 {
			t.Fatal("read-repair probes never fired")
		}
		if st.AEPasses == 0 {
			t.Fatal("the anti-entropy sweeper never ran")
		}
		if st.RepairsApplied == 0 {
			t.Fatal("repairs never applied despite dropped hints")
		}
		// With hints lost, the repair subsystem must have fully
		// converged every key by the end of the run.
		allKeys := make([]uint64, nKeys)
		for i := range allKeys {
			allKeys[i] = uint64(i + 1)
		}
		if stale := s.StaleOwners(allKeys); stale != 0 {
			t.Fatalf("%d stale replicas after the repair history", stale)
		}
	} else if st.HintsApplied == 0 {
		t.Fatalf("history never exercised handoff (queued %d applied %d)", st.HintsQueued, st.HintsApplied)
	}
	if st.HintsPending != 0 {
		t.Fatalf("%d hints still pending after recovery window", st.HintsPending)
	}
	if st.DelOps == 0 || st.Deletes == 0 {
		t.Fatalf("history issued %d deletes, applied %d — deletes not in the loop", st.DelOps, st.Deletes)
	}
}

// Crash-during-write: inject a NodeCrash while a quorum write is in
// flight to one of its owners — once with the write carrying a value,
// once a tombstone: the one write engine must hand off, fail and replay
// either identically.
//
//	(a) W<N: the surviving owners acknowledge, the hint replays exactly
//	    once on reconnect;
//	(b) W=N: the write reports a typed *QuorumError;
//	(c) a second crash that kills the drain itself must not apply the
//	    hint twice — it stays queued and lands once, after the second
//	    recovery.
func TestServiceCrashDuringWriteQuorum(t *testing.T) {
	for _, del := range []bool{false, true} {
		name := "value"
		if del {
			name = "tombstone"
		}
		t.Run(name, func(t *testing.T) { crashDuringWriteQuorum(t, del) })
	}
}

func crashDuringWriteQuorum(t *testing.T, del bool) {
	setup := func(quorum int) (*Service, uint64, int) {
		s := NewServiceWith(ServiceConfig{
			Shards: 3, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq,
			Replicas: 2, WriteQuorum: quorum, Buckets: 1 << 12,
		})
		const key = 33
		if err := s.Set(key, Value(key, 64)); err != nil {
			t.Fatal(err)
		}
		victim := s.Owners(key)[1] // crash a non-primary owner
		return s, key, crashIdx(t, s, victim)
	}
	// write issues the scenario's mutation: the value f(key+gen), or the
	// tombstone.
	write := func(s *Service, key, gen uint64, cb func(lat Duration, err error)) {
		if del {
			s.DeleteAsync(key, cb)
		} else {
			s.SetAsync(key, Value(key+gen, 64), cb)
		}
		s.Flush()
	}
	// handedOff reports whether the recovered owner holds the mutation:
	// the new bytes, or nothing at all.
	handedOff := func(s *Service, key, gen uint64) bool {
		v, ok := ownerValue(t, s, s.Owners(key)[1], key)
		if del {
			return !ok
		}
		return ok && bytes.Equal(v, Value(key+gen, 64))
	}

	// (a) W=1 of 2: quorum acks despite the crash; handoff replays once.
	s, key, idx := setup(1)
	s.CrashShard(idx, failure.ProcessCrash, s.Now()+sim.Microsecond)
	var aerr error
	done := false
	write(s, key, 1, func(_ Duration, err error) { aerr, done = err, true })
	s.Testbed().RunFor(sim.Millisecond) // crash lands mid-quorum; timeout fails the dead owner
	if !done {
		t.Fatal("W<N write did not complete while one owner was crashing")
	}
	if aerr != nil {
		t.Fatalf("W<N write failed despite a live owner: %v", aerr)
	}
	st := s.Stats()
	if st.HintsQueued != 1 || st.HintsApplied != 0 {
		t.Fatalf("hints queued/applied %d/%d mid-crash, want 1/0", st.HintsQueued, st.HintsApplied)
	}
	if handedOff(s, key, 1) {
		t.Fatal("dead owner's table changed while its host was down")
	}
	s.Testbed().RunFor(4 * sim.Second)
	st = s.Stats()
	if st.HintsApplied != 1 || st.HintsPending != 0 {
		t.Fatalf("hint replayed %d times (pending %d), want exactly once", st.HintsApplied, st.HintsPending)
	}
	if !handedOff(s, key, 1) {
		t.Fatal("recovered owner missing the handed-off write")
	}

	// (b) W=N: the same crash surfaces as a typed quorum error.
	s, key, idx = setup(2)
	s.CrashShard(idx, failure.ProcessCrash, s.Now()+sim.Microsecond)
	var berr error
	done = false
	write(s, key, 2, func(_ Duration, err error) { berr, done = err, true })
	s.Testbed().RunFor(sim.Millisecond)
	if !done {
		t.Fatal("W=N write never completed")
	}
	var qe *QuorumError
	if !errors.As(berr, &qe) {
		t.Fatalf("W=N write during a crash returned %v, want *QuorumError", berr)
	}

	// (c) Double crash: the second crash kills the drain in flight; the
	// hint survives and applies exactly once after the second recovery.
	s, key, idx = setup(1)
	crashAt := s.Now() + sim.Microsecond
	s.CrashShard(idx, failure.ProcessCrash, crashAt)
	done = false
	write(s, key, 3, func(_ Duration, err error) { done = true })
	// The first recovery's OnUp fires the drain; refreeze 1us later,
	// before the drain's chain can ack.
	recoverAt := crashAt + 2250*sim.Millisecond
	s.CrashShard(idx, failure.ProcessCrash, recoverAt+sim.Microsecond)
	s.Testbed().RunFor(2300 * sim.Millisecond)
	if !done {
		t.Fatal("write never completed")
	}
	st = s.Stats()
	if st.HintsApplied != 0 || st.HintsPending != 1 {
		t.Fatalf("drain survived the second crash: applied %d pending %d", st.HintsApplied, st.HintsPending)
	}
	s.Testbed().RunFor(4 * sim.Second) // second recovery drains for real
	st = s.Stats()
	if st.HintsApplied != 1 || st.HintsPending != 0 {
		t.Fatalf("hint applied %d times after a double crash, want exactly once", st.HintsApplied)
	}
	if !handedOff(s, key, 3) {
		t.Fatal("double-crashed owner missing the handed-off write")
	}
	if st.Shards[idx].Rebuilds != 2 {
		t.Fatalf("victim rebuilt %d times, want 2", st.Shards[idx].Rebuilds)
	}
}

// Property test for cuckoo placement under interleaved fabric sets,
// deletes and gets: an acknowledged key is never lost (host-visible
// with exact bytes), NIC reachability matches candidate-bucket
// residency, and spills appear only under overload — never while the
// table has slack.
func TestServicePlacementProperty(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 1, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq,
		Buckets: 64, MaxValLen: 64,
	})
	sh := s.order[0]
	rng := workload.Rng(9)
	model := map[uint64][]byte{}
	const valLen = 48

	checkModel := func(step int) {
		table := sh.table.Table()
		for k, want := range model {
			va, _, vl, ok := sh.stored(k)
			if !ok {
				t.Fatalf("step %d: acked key %d lost", step, k)
			}
			got, _ := sh.srv.node.Mem.Read(va, vl)
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: key %d bytes diverged", step, k)
			}
			// NIC gets agree exactly with candidate-bucket residency.
			atCandidate := false
			for fn := 0; fn < 2; fn++ {
				if kk, _, _, okb := table.EntryAt(table.Hash(k, fn)); okb && kk == k {
					atCandidate = true
				}
			}
			v, _, okGet := s.Get(k, valLen)
			if okGet != atCandidate {
				t.Fatalf("step %d: key %d NIC-get=%v but candidate-resident=%v", step, k, okGet, atCandidate)
			}
			if okGet && !bytes.Equal(v, want) {
				t.Fatalf("step %d: key %d NIC get returned wrong bytes", step, k)
			}
		}
	}

	op := func(step int, maxKey int) {
		key := uint64(rng.Intn(maxKey) + 1)
		switch r := rng.Intn(10); {
		case r < 6: // set (fabric path, host kick fallback)
			v := Value(key+uint64(step)<<20, valLen)
			if err := s.Set(key, v); err == nil {
				model[key] = v
			}
		case r < 8: // delete
			s.Delete(key)
			delete(model, key)
		default: // get of a random key
			s.Get(key, valLen)
		}
	}

	// Phase 1: light load (<50% of 64 buckets) — kicks may run, spills
	// must not: the kick walk never runs dry with this much slack.
	for i := 0; i < 300; i++ {
		op(i, 28)
	}
	checkModel(300)
	if st := s.Stats(); st.Spills != 0 {
		t.Fatalf("%d spills at <50%% load — spilling without a walk running dry", st.Spills)
	}

	// Phase 2: overload (up to 140% of capacity) — spills are now the
	// expected last resort, and acked keys still never disappear.
	for i := 300; i < 1200; i++ {
		op(i, 90)
	}
	checkModel(1200)
	if st := s.Stats(); st.Spills == 0 {
		t.Fatal("overload phase never spilled — the walk-exhaustion path went unexercised")
	}
}

// Regression: a failed kick walk must restore every evictee to the
// exact bucket it was taken from — including evictees that were
// SPILLED residents living at neither of their candidate buckets.
// Restoring such a key "by hash" would overwrite an unrelated resident
// and leave the walker key squatting in the spilled key's bucket.
func TestServicePlaceRollbackRestoresSpilledEvictee(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 1, ClientsPerShard: 1, Pipeline: 2, Mode: LookupSeq,
		Buckets: 16, MaxValLen: 32,
	})
	sh := s.order[0]
	tb := sh.table.Table()
	n := tb.NumBuckets()

	// A key S homed at a bucket that is NOT one of its candidates (the
	// shape Insert's neighborhood spill produces).
	var spilled, bucket uint64
	for k := uint64(1); k < 100000; k++ {
		b := (tb.Hash(k, 0) + 1) % n
		if b != tb.Hash(k, 0) && b != tb.Hash(k, 1) {
			spilled, bucket = k, b
			break
		}
	}
	if err := tb.WriteBucket(bucket, spilled, 0x1000, 8); err != nil {
		t.Fatal(err)
	}
	// Fill every other bucket so the walk can never succeed.
	filler := uint64(500000)
	for i := uint64(0); i < n; i++ {
		if i == bucket {
			continue
		}
		filler++
		if err := tb.WriteBucket(i, filler, 0x2000+i*8, 8); err != nil {
			t.Fatal(err)
		}
	}
	type ent struct{ k, va, vl uint64 }
	snap := make([]ent, n)
	for i := uint64(0); i < n; i++ {
		k, va, vl, _ := tb.EntryAt(i)
		snap[i] = ent{k, va, vl}
	}

	// A new key whose first candidate is S's bucket: the walk evicts S
	// first, grinds through the full table, and fails.
	var newKey uint64
	for k := uint64(600000); ; k++ {
		if tb.Hash(k, 0) == bucket && tb.Hash(k, 1) != bucket {
			newKey = k
			break
		}
	}
	if err := sh.place(newKey, 0x9000, 8); err == nil {
		t.Fatal("place succeeded on a completely full table")
	}
	for i := uint64(0); i < n; i++ {
		k, va, vl, ok := tb.EntryAt(i)
		if !ok || k != snap[i].k || va != snap[i].va || vl != snap[i].vl {
			t.Fatalf("bucket %d changed across a failed walk: got (%d,%#x,%d) want (%d,%#x,%d)",
				i, k, va, vl, snap[i].k, snap[i].va, snap[i].vl)
		}
	}
}

// A host set that grows a spilled resident past its extent overwrites
// the resident where it lives: taking a free candidate would leave a
// second copy behind, the spilled one pointing at the extent the set
// retires.
func TestServiceSetGrowsSpilledResidentInPlace(t *testing.T) {
	s := NewServiceWith(ServiceConfig{Shards: 1, ClientsPerShard: 1, Buckets: 64, MaxValLen: 64})
	sh := s.order[0]
	tb := sh.table.Table()
	const key = 42
	if err := tb.InsertAt(key, sh.srv.arena.Alloc(8, key), 8, 0, 2); err != nil {
		t.Fatal(err)
	}
	want := Value(key, 48)
	if err := sh.set(key, want, 2); err != nil {
		t.Fatal(err)
	}
	s.Run()
	copies := 0
	for i := range tb.NumBuckets() {
		if k, _, _, ok := tb.EntryAt(i); ok && k == key {
			copies++
		}
	}
	va, _, vl, _ := sh.stored(key)
	got, _ := sh.srv.node.Mem.Read(va, vl)
	if copies != 1 || !bytes.Equal(got, want) || s.Stats().Spills != 0 {
		t.Fatalf("%d copies, value ok %v, %d spills; want 1 copy, the new value, 0 spills",
			copies, bytes.Equal(got, want), s.Stats().Spills)
	}
}

// ---- extent lifecycle / delete suite ----

// Fabric deletes round-trip end to end: quorum-acked with real
// latency, gets miss afterward, and every delete returns exactly the
// value extent it deleted to its shard's arena.
func TestServiceDeleteRoundTrip(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 4, ClientsPerShard: 2, Pipeline: 8, Mode: LookupSeq,
	})
	const nKeys = 400
	for k := uint64(1); k <= nKeys; k++ {
		if err := s.Set(k, Value(k, 64)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	if before.ArenaLive == 0 {
		t.Fatal("arena tracked no live bytes after the preload")
	}
	liveExtents := func() (n int) {
		for _, sh := range s.order {
			n += sh.srv.arena.Stats().LiveExtents
		}
		return n
	}
	extentsBefore := liveExtents()
	for k := uint64(1); k <= nKeys; k++ {
		if !s.Delete(k) {
			t.Fatalf("delete(%d) reported the key absent", k)
		}
	}
	for k := uint64(1); k <= nKeys; k++ {
		if _, _, ok := s.Get(k, 64); ok {
			t.Fatalf("get(%d) hit after delete", k)
		}
	}
	st := s.Stats()
	if st.DelOps != nKeys {
		t.Fatalf("delete ops %d, want %d", st.DelOps, nKeys)
	}
	if st.FabricDeletes == 0 {
		t.Fatal("no delete ever traveled the NIC tombstone chain")
	}
	// Each delete retired exactly one extent: an applied fabric delete's
	// ack the one the key's bucket named, a host delete the one it
	// removed.
	if freed := extentsBefore - liveExtents(); freed != nKeys || st.GCFreed+st.HostDeletes != nKeys {
		t.Fatalf("%d extents freed, %d by fabric deletes + %d host deletes; want %d each way",
			freed, st.GCFreed, st.HostDeletes, nKeys)
	}
	if st.ArenaLive >= before.ArenaLive {
		t.Fatalf("arena live bytes %d did not drop from %d", st.ArenaLive, before.ArenaLive)
	}
	// Deleted keys' space is reusable: re-setting the same keys after
	// the purge (same per-shard load) must not grow the arena past its
	// previous footprint.
	foot := st.ArenaPeak
	for k := uint64(1); k <= nKeys; k++ {
		if err := s.Set(k, Value(k+1, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().ArenaPeak; got > foot {
		t.Fatalf("arena footprint grew %d -> %d refilling freed space", foot, got)
	}
}

// Satellite regression: a value cached client-side for a hot key must
// not outlive that key's delete — the delete invalidates the cache, so
// the next get misses instead of serving deleted bytes.
func TestServiceDeleteInvalidatesHotCache(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 2, ClientsPerShard: 1, Pipeline: 8, Mode: LookupSeq,
		Replicas: 2, HotKeyCache: 8,
	})
	const hot = 99
	if err := s.Set(hot, Value(hot, 64)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, _, ok := s.Get(hot, 64); !ok {
			t.Fatal("hot get missed")
		}
	}
	if s.Stats().CacheHits == 0 {
		t.Fatal("key never became cache-served — test setup is wrong")
	}
	if !s.Delete(hot) {
		t.Fatal("delete failed")
	}
	if _, _, ok := s.Get(hot, 64); ok {
		t.Fatal("get after delete served a value (stale cache entry)")
	}
	// And the miss must not have re-admitted anything.
	if _, ok := s.cache[hot]; ok {
		t.Fatal("deleted key still resident in the client-side cache")
	}
}

// A tombstone hint supersedes an older value hint for the same key,
// and the recovery drain applies the delete — never resurrecting the
// value the dead owner missed.
func TestServiceDeleteHintSupersedesValueHint(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 3, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq,
		Replicas: 2, WriteQuorum: 1, Buckets: 1 << 12,
	})
	const key = 33
	if err := s.Set(key, Value(key, 64)); err != nil {
		t.Fatal(err)
	}
	victim := s.Owners(key)[1]
	idx := 0
	for i := 0; i < s.NumShards(); i++ {
		if s.ShardID(i) == victim {
			idx = i
		}
	}
	s.CrashShard(idx, failure.ProcessCrash, s.Now()+sim.Microsecond)
	s.Testbed().RunFor(sim.Millisecond)

	// A write the dead owner misses -> value hint. Then the delete ->
	// tombstone hint must supersede it. (The blocking wrappers return
	// at quorum; ride past the dead owner's MissTimeout so its failure
	// — and the hint — actually lands before asserting.)
	if err := s.Set(key, Value(key+1, 64)); err != nil {
		t.Fatalf("W=1 write failed: %v", err)
	}
	s.Testbed().RunFor(sim.Millisecond)
	if st := s.Stats(); st.HintsPending != 1 {
		t.Fatalf("hints pending %d after write-to-dead-owner, want 1", st.HintsPending)
	}
	if !s.Delete(key) {
		t.Fatal("delete failed")
	}
	s.Testbed().RunFor(sim.Millisecond)
	sh := s.shards[victim]
	h := sh.lackAt(key)
	if ok := h != nil && h.op != nil; !ok || !h.op.del {
		t.Fatalf("pending hint is not the tombstone (ok=%v del=%v)", ok, ok && h.op.del)
	}
	// Recovery drains the tombstone: the key must be gone EVERYWHERE —
	// in particular the recovered owner must not serve the hinted value.
	s.Testbed().RunFor(4 * sim.Second)
	for _, id := range s.Owners(key) {
		if _, okv := ownerValue(t, s, id, key); okv {
			t.Fatalf("owner %s resurrected a deleted key after handoff", id)
		}
	}
	st := s.Stats()
	if st.HintsPending != 0 {
		t.Fatalf("%d hints still pending after recovery", st.HintsPending)
	}
	if _, _, ok := s.Get(key, 64); ok {
		t.Fatal("get served a deleted key after recovery")
	}
}

// The arena's footprint tracks the live bytes under sustained
// overwrites with gets in flight: each retired extent is reused as soon
// as no get can still read it, so no shard holds more than a quarter
// over its peak live bytes plus the one chunk its size carves at a
// time. Every key still reads back its latest bytes through the NIC.
func TestServiceArenaTracksLive(t *testing.T) {
	const (
		nKeys  = 4096
		valLen = 64
		chunk  = 4 << 10 // the arena's default carve
	)
	s := NewServiceWith(ServiceConfig{
		Shards: 4, ClientsPerShard: 2, Pipeline: 16, Mode: LookupSeq,
		Replicas: 3, WriteQuorum: 2, Buckets: 1 << 13, MaxValLen: valLen,
	})
	keys := make([]uint64, nKeys)
	last := make(map[uint64][]byte, nKeys)
	failed := 0
	set := func(k uint64, v []byte) {
		last[k] = v
		s.SetAsync(k, v, func(_ Duration, err error) {
			if err != nil {
				failed++
			}
		})
	}
	for i := range keys {
		keys[i] = uint64(i + 1)
		set(keys[i], Value(keys[i], valLen))
	}
	s.Flush()
	s.Run()
	// Uniform overwrites, eight per key, each beside a get.
	rng := workload.Rng(5)
	for round := 0; round < 8*nKeys/256; round++ {
		for i := 0; i < 256; i++ {
			k := keys[rng.Intn(nKeys)]
			set(k, Value(k*7+uint64(round), valLen))
			s.GetAsync(keys[rng.Intn(nKeys)], valLen, func([]byte, Duration, bool) {})
		}
		s.Flush()
		s.Run()
	}
	if failed != 0 {
		t.Fatalf("%d sets failed on a healthy cluster", failed)
	}
	st := s.Stats()
	for _, sh := range st.Shards {
		if sh.ArenaPeakLive == 0 || sh.ArenaPeak > sh.ArenaPeakLive*5/4+chunk {
			t.Fatalf("shard %s: arena footprint %d against %d peak live bytes", sh.ID, sh.ArenaPeak, sh.ArenaPeakLive)
		}
	}
	for _, k := range keys {
		got, _, ok := s.Get(k, valLen)
		if !ok || !bytes.Equal(got, last[k]) {
			t.Fatalf("key %d read back %x (hit %v), want its last value", k, got, ok)
		}
	}
}

// ---- replica repair suite ----

// crashIdx returns the index of the shard with the given id.
func crashIdx(t *testing.T, s *Service, id string) int {
	t.Helper()
	for i := 0; i < s.NumShards(); i++ {
		if s.ShardID(i) == id {
			return i
		}
	}
	t.Fatalf("no shard %q", id)
	return -1
}

// Satellite regression: a capacity-rejected owner used to stay stale
// forever (the write path deliberately dropped rejections from
// handoff). Now the rejection leaves a repair record, which the full
// table parks for the retry tick, and once the owner's table has room
// again a retry rolls it forward — with NO client traffic after the
// capacity frees.
func TestServiceRejectedOwnerConverges(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 2, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq,
		Replicas: 2, WriteQuorum: 1, Buckets: 16, MaxValLen: 64,
	})
	const key = 21
	owners := s.Owners(key)
	backup := s.shards[owners[1]]
	bt := backup.table.Table()

	// Stuff the backup's table completely full of filler keys so the
	// write's insert there is REJECTED (kick walk and neighborhoods
	// exhausted), while the primary applies normally.
	n := bt.NumBuckets()
	filler := uint64(500000)
	for i := uint64(0); i < n; i++ {
		filler++
		if err := bt.WriteBucket(i, filler, 0x2000+i*8, 8); err != nil {
			t.Fatal(err)
		}
	}

	err := s.Set(key, Value(key, 64))
	if err != nil {
		t.Fatalf("W=1 write failed despite a healthy primary: %v", err)
	}
	s.Testbed().RunFor(sim.Millisecond) // let the backup's rejection land
	if v, ok := ownerValue(t, s, owners[0], key); !ok || !bytes.Equal(v, Value(key, 64)) {
		t.Fatal("primary did not apply")
	}
	if _, ok := ownerValue(t, s, owners[1], key); ok {
		t.Fatal("backup applied into a full table — rejection never happened")
	}
	st := s.Stats()
	if st.RepairsQueued == 0 {
		t.Fatal("capacity rejection left no repair record (the pre-repair bug)")
	}
	if got := s.StaleOwners([]uint64{key}); got != 1 {
		t.Fatalf("stale replicas = %d, want 1 (the rejected backup)", got)
	}

	// Capacity frees (operator removes fillers) — and with ZERO further
	// client operations, the repair queue converges the backup.
	for i := uint64(0); i < n; i++ {
		bt.Delete(500001 + i)
	}
	if runWhole(t, s, 100*sim.Millisecond, sim.Microsecond) == 0 {
		t.Fatal("no check saw the repair queued")
	}
	if v, ok := ownerValue(t, s, owners[1], key); !ok || !bytes.Equal(v, Value(key, 64)) {
		t.Fatal("rejected backup never converged without client traffic")
	}
	if got := s.StaleOwners([]uint64{key}); got != 0 {
		t.Fatalf("stale replicas = %d after repair, want 0", got)
	}
	st = s.Stats()
	if st.RepairsApplied == 0 {
		t.Fatal("no repair recorded as applied")
	}
	// And the repaired value carries the write's version.
	if _, v, _, ok := s.shards[owners[1]].stored(key); !ok || v != 1 {
		t.Fatalf("repaired backup version = %d,%v want 1,true", v, ok)
	}
}

// Satellite regression: a value admitted to the client-side cache from
// a stale owner (legal while the write's settle was pending) must not
// outlive the repair that converges the owner — the repair bumps the
// key's write epoch and drops the entry.
func TestServiceRepairInvalidatesStaleCache(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 2, ClientsPerShard: 1, Pipeline: 8, Mode: LookupSeq,
		Replicas: 2, WriteQuorum: 1, HotKeyCache: 8,
		ReadRepair: true, Buckets: 1 << 12,
	})
	const key = 99
	if err := s.Set(key, Value(key, 64)); err != nil {
		t.Fatal(err)
	}
	owners := s.Owners(key)

	// Crash the PRIMARY; overwrite v2 (backup acks the W=1 quorum, the
	// primary gets a hint); lose the hint. After recovery the primary
	// is stale at v1 — and ReadPrimary routes every get straight at it.
	idx := crashIdx(t, s, owners[0])
	s.CrashShard(idx, failure.ProcessCrash, s.Now()+sim.Microsecond)
	s.Testbed().RunFor(sim.Millisecond)
	if err := s.Set(key, Value(key+1, 64)); err != nil {
		t.Fatalf("W=1 overwrite failed: %v", err)
	}
	s.Testbed().RunFor(sim.Millisecond) // primary's failure + hint land
	if s.DropHints() == 0 {
		t.Fatal("no hint to drop — divergence not injected")
	}
	s.Testbed().RunFor(4 * sim.Second) // recovery + reconnect

	// Heat the key well past the admission threshold. Early gets serve
	// the stale v1 from the primary (and may admit it to the cache);
	// every hit probes the backup, whose newer value header flags the
	// skew and queues the repair. The primary's drain lanes are held
	// busy meanwhile, so the stale value is admitted to the cache BEFORE
	// the repair converges the owner — the exact ordering the epoch bump
	// exists for.
	primary := s.shards[owners[0]]
	lanes := primary.lanes
	primary.lanes = 0
	for i := 0; i < 3*cacheAdmitCount; i++ {
		s.Get(key, 64)
	}
	// The stale v1 must actually be cache-resident now (admitted from
	// the stale primary, with the repair still waiting for a lane):
	// that is the hazard under test.
	if v, cached := s.cache[key]; !cached || !bytes.Equal(v, Value(key, 64)) {
		t.Fatal("stale value not cache-resident before the repair — test lost its race")
	}
	if s.Stats().RepairsPending == 0 {
		t.Fatal("no repair waiting for the stale primary")
	}
	primary.lanes = lanes
	s.pumpDrain(primary)
	s.Testbed().RunFor(50 * sim.Millisecond) // the repair drains

	// The repaired primary AND the cache must now serve v2: without the
	// epoch bump the cache would pin the pre-repair v1 forever.
	val, _, ok := s.Get(key, 64)
	if !ok || !bytes.Equal(val, Value(key+1, 64)) {
		t.Fatalf("get after repair returned stale bytes (ok=%v)", ok)
	}
	if v, ok := ownerValue(t, s, owners[0], key); !ok || !bytes.Equal(v, Value(key+1, 64)) {
		t.Fatal("primary never repaired")
	}
	st := s.Stats()
	if st.Probes == 0 {
		t.Fatal("read-repair never probed")
	}
	if st.ProbeSkews == 0 {
		t.Fatal("version skew never detected")
	}
	if st.RepairsApplied == 0 {
		t.Fatal("no repair applied")
	}
}

// A get issued while a write to its key is unsettled can read the old
// value from an owner that has not applied the write yet, and answer
// after the write has settled everywhere. The write epoch it recorded at
// issue still matches and nothing is unsettled any more, so only the
// issue-time state can refuse the admission: admitted, the old value
// would serve every later get until the next write. Each delay issues
// the get at a different point of the write's fan-out; at least one
// must reproduce the late stale answer. A get's answer is one WRITE
// gathering the bucket and the value, which on the write's own
// connection lands ahead of the write's ack on the same link; so the
// shards take two connections, one per NIC port, and the value is 4
// KiB: the get gathers the old value, and its answer is still on the
// wire of one port when the write's last ack lands on the other.
func TestServiceCacheRefusesReadsIssuedMidWrite(t *testing.T) {
	const key, valLen = 7, 4096
	v1, v2 := Value(1, valLen), Value(2, valLen)
	raced := 0
	for d := Duration(0); d <= sim.Microsecond; d += 20 * sim.Nanosecond {
		s := NewServiceWith(ServiceConfig{
			Shards: 3, ClientsPerShard: 2, Pipeline: 8,
			Replicas: 3, WriteQuorum: 2, ReadPolicy: ReadPrimary, HotKeyCache: 8,
			Buckets: 1 << 12, MaxValLen: valLen,
		})
		if err := s.Set(key, v1); err != nil {
			t.Fatal(err)
		}
		s.Run()
		// Hot, but not cached: the next qualifying read admits.
		for i := 0; i < 2*cacheAdmitCount; i++ {
			s.Get(key, valLen)
		}
		delete(s.cache, key)
		var settled, answered sim.Time
		var got []byte
		s.settleHook = func(_, _ uint64) { settled = s.Now() }
		s.SetAsync(key, v2, func(Duration, error) {})
		s.Flush()
		s.tb.clu.Eng.After(d, func() {
			s.GetAsync(key, valLen, func(val []byte, _ Duration, _ bool) {
				got, answered = append([]byte(nil), val...), s.Now()
			})
			s.Flush()
		})
		s.Run()
		if bytes.Equal(got, v1) && answered > settled {
			raced++
		}
		if v, cached := s.cache[key]; cached && !bytes.Equal(v, v2) {
			t.Fatalf("get issued %v into the write cached the overwritten value", d)
		}
		if val, _, ok := s.Get(key, valLen); !ok || !bytes.Equal(val, v2) {
			t.Fatalf("get issued %v into the write: a later get read stale bytes (ok=%v)", d, ok)
		}
	}
	if raced == 0 {
		t.Fatal("no get read the old value and answered after the write settled — test lost its race")
	}
}

// The sweeper's segment digests are order-independent and sensitive to
// any version change.
func TestDigest(t *testing.T) {
	var a, b digest
	pairs := [][2]uint64{{1, 10}, {2, 20}, {3, 30}}
	for _, p := range pairs {
		a.add(p[0], p[1])
	}
	for i := len(pairs) - 1; i >= 0; i-- {
		b.add(pairs[i][0], pairs[i][1])
	}
	if a != b {
		t.Fatal("digest depends on scan order")
	}
	var c digest
	c.add(1, 10)
	c.add(2, 21) // one version off
	c.add(3, 30)
	if c == a {
		t.Fatal("digest blind to a version change")
	}
	var d digest
	d.add(1, 10)
	d.add(2, 20)
	if d == a {
		t.Fatal("digest blind to a missing key")
	}
}

// Anti-entropy alone — zero reads, no read-repair, hints lost — must
// converge crash-era divergence: the sweeper's segment digests find
// the keys the dead owner missed and roll it forward.
func TestServiceAntiEntropyConvergesWithoutReads(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 3, ClientsPerShard: 1, Pipeline: 8, Mode: LookupSeq,
		Replicas: 2, WriteQuorum: 1, Buckets: 1 << 10,
		AntiEntropyEvery: 200 * sim.Microsecond, AntiEntropySegments: 16,
	})
	keys := make([]uint64, 60)
	for i := range keys {
		keys[i] = uint64(i + 1)
		if err := s.Set(keys[i], Value(keys[i], 64)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash one shard; overwrite everything at v2 and delete a few keys
	// (their tombstones must propagate too); drop every hint.
	s.CrashShard(0, failure.ProcessCrash, s.Now()+sim.Microsecond)
	s.Testbed().RunFor(sim.Millisecond)
	for _, k := range keys {
		if err := s.Set(k, Value(k+1000, 64)); err != nil {
			t.Fatalf("W=1 overwrite of %d failed: %v", k, err)
		}
	}
	for _, k := range keys[:5] {
		s.DeleteAsync(k, nil)
	}
	s.Flush()
	s.Testbed().RunFor(2 * sim.Millisecond)
	if s.DropHints() == 0 {
		t.Fatal("no hints to drop — the crashed shard owned nothing?")
	}
	if s.StaleOwners(keys) == 0 {
		t.Fatal("no divergence injected — test shape is wrong")
	}

	// ZERO further client operations: recovery arms the sweeper, the
	// sweeper finds the divergent segments, the queue repairs them; the
	// per-key records stay whole throughout.
	if runWhole(t, s, 6*sim.Second, 10*sim.Microsecond) == 0 {
		t.Fatal("no check saw a repair queued")
	}
	if got := s.StaleOwners(keys); got != 0 {
		t.Fatalf("%d stale replicas after anti-entropy alone, want 0", got)
	}
	// Deleted keys must be ABSENT everywhere — a resurrected delete
	// would show up as a hit.
	for _, k := range keys[:5] {
		if _, _, ok := s.Get(k, 64); ok {
			t.Fatalf("deleted key %d resurrected by anti-entropy", k)
		}
	}
	st := s.Stats()
	if st.AEPasses == 0 {
		t.Fatal("sweeper never ran")
	}
	if st.AERepairs == 0 {
		t.Fatal("sweeper found nothing despite injected divergence")
	}
	if st.RepairsApplied == 0 {
		t.Fatal("no repairs applied")
	}
	if st.Probes != 0 {
		t.Fatal("probes fired with ReadRepair disabled")
	}
}
