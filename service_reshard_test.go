package redn

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// A join must move ownership onto the new shard, copy every affected
// key there at modeled cost, seal all segments, and purge ghost
// residents from owners that lost keys — with every key readable at
// its correct value afterward and zero replica skew.
func TestServiceAddShardMigratesKeys(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 3, ClientsPerShard: 2, Pipeline: 8, Mode: LookupSeq,
		Replicas: 2, WriteQuorum: 1, ReadPolicy: ReadRoundRobin,
		Buckets: 1 << 12, MaxValLen: 64})
	const n = 400
	const valLen = 48
	keys := make([]uint64, 0, n)
	for k := uint64(1); k <= n; k++ {
		if err := s.Set(k, Value(k, valLen)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if err := s.AddShard("shard3"); err != nil {
		t.Fatal(err)
	}
	if !s.resharding() {
		t.Fatal("no active migration after AddShard")
	}
	if s.migratingBuckets() == 0 {
		t.Fatal("a 3->4 join left no unsealed segments")
	}
	s.Run()
	if s.resharding() {
		t.Fatal("migration never finished")
	}
	if got := s.NumShards(); got != 4 {
		t.Fatalf("NumShards = %d after join, want 4", got)
	}
	st := s.Stats()
	if st.Migrations != 1 || st.MigKeysMoved == 0 || st.MigSegsSealed == 0 {
		t.Fatalf("migration stats off: %d migrations, %d moved, %d sealed",
			st.Migrations, st.MigKeysMoved, st.MigSegsSealed)
	}
	if st.MigratingBuckets != 0 {
		t.Fatalf("%d buckets still migrating after finish", st.MigratingBuckets)
	}
	newOwned := 0
	for _, k := range keys {
		v, _, ok := s.Get(k, valLen)
		if !ok || !bytes.Equal(v, Value(k, valLen)) {
			t.Fatalf("key %d unreadable (or wrong bytes) after join", k)
		}
		for _, id := range s.Owners(k) {
			if id == "shard3" {
				newOwned++
			}
		}
	}
	if newOwned == 0 {
		t.Fatal("join moved no ownership to the new shard")
	}
	if stale := s.StaleOwners(keys); stale != 0 {
		t.Fatalf("%d stale replicas after join", stale)
	}
	// Ghost purge: owners that lost a key must no longer hold it.
	for _, k := range keys {
		owners := s.Owners(k)
		for _, sh := range s.order {
			own := false
			for _, id := range owners {
				if id == sh.id {
					own = true
					break
				}
			}
			if !own {
				if _, _, resident := sh.table.table.Lookup(k); resident {
					t.Fatalf("ghost resident: key %d still on non-owner %s", k, sh.id)
				}
			}
		}
	}
}

// A drain must move every key off the departing shard, remove it from
// the service, and lose nothing: every key readable at its newest
// acked value, no owner set mentioning the drained id, zero skew.
func TestServiceDrainShardZeroLoss(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 4, ClientsPerShard: 2, Pipeline: 8, Mode: LookupSeq,
		Replicas: 2, WriteQuorum: 1, ReadPolicy: ReadRoundRobin,
		Buckets: 1 << 12, MaxValLen: 64})
	const n = 400
	const valLen = 48
	keys := make([]uint64, 0, n)
	for k := uint64(1); k <= n; k++ {
		if err := s.Set(k, Value(k, valLen)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if err := s.DrainShard("shard0"); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if s.resharding() {
		t.Fatal("drain migration never finished")
	}
	if got := s.NumShards(); got != 3 {
		t.Fatalf("NumShards = %d after drain, want 3", got)
	}
	if _, ok := s.shards["shard0"]; ok {
		t.Fatal("drained shard still registered")
	}
	for _, k := range keys {
		v, _, ok := s.Get(k, valLen)
		if !ok || !bytes.Equal(v, Value(k, valLen)) {
			t.Fatalf("key %d lost (or corrupted) by the drain", k)
		}
		for _, id := range s.Owners(k) {
			if id == "shard0" {
				t.Fatalf("key %d still routed to the drained shard", k)
			}
		}
	}
	if stale := s.StaleOwners(keys); stale != 0 {
		t.Fatalf("%d stale replicas after drain", stale)
	}
	if st := s.Stats(); st.Migrations != 1 {
		t.Fatalf("migration log has %d entries, want 1", st.Migrations)
	}
}

// The membership guardrails are typed: draining the last shard, a
// drain that would break the write quorum, an unknown id, and any
// change while a migration is active all refuse without touching the
// ring — and the refused change succeeds once the blocker clears.
func TestServiceDrainShardTypedErrors(t *testing.T) {
	s1 := NewServiceWith(ServiceConfig{Shards: 1, ClientsPerShard: 1,
		Buckets: 1 << 10, MaxValLen: 64})
	if err := s1.DrainShard("shard0"); !errors.Is(err, ErrLastShard) {
		t.Fatalf("draining the last shard: got %v, want ErrLastShard", err)
	}

	s2 := NewServiceWith(ServiceConfig{Shards: 2, ClientsPerShard: 1,
		Replicas: 2, WriteQuorum: 2, Buckets: 1 << 10, MaxValLen: 64})
	if err := s2.DrainShard("shard0"); err == nil || errors.Is(err, ErrLastShard) {
		t.Fatalf("draining below the write quorum: got %v, want a quorum refusal", err)
	}
	if err := s2.DrainShard("nope"); err == nil {
		t.Fatal("draining an unknown shard did not error")
	}

	s3 := NewServiceWith(ServiceConfig{Shards: 3, ClientsPerShard: 2,
		Replicas: 2, WriteQuorum: 1, Buckets: 1 << 12, MaxValLen: 64})
	for k := uint64(1); k <= 200; k++ {
		if err := s3.Set(k, Value(k, 48)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s3.AddShard("shard3"); err != nil {
		t.Fatal(err)
	}
	if err := s3.DrainShard("shard0"); !errors.Is(err, ErrMigrationInProgress) {
		t.Fatalf("drain during a join: got %v, want ErrMigrationInProgress", err)
	}
	if err := s3.AddShard("shard4"); !errors.Is(err, ErrMigrationInProgress) {
		t.Fatalf("join during a join: got %v, want ErrMigrationInProgress", err)
	}
	s3.Run()
	if err := s3.DrainShard("shard0"); err != nil {
		t.Fatalf("drain after the join settled: %v", err)
	}
	s3.Run()
	if got := s3.NumShards(); got != 3 {
		t.Fatalf("NumShards = %d after join+drain, want 3", got)
	}
}

// Hints parked on a shard when its drain starts must follow the keys
// to their new owners: after the drain, every hinted write is applied
// at the new owners, nothing is pending anywhere, and no replica lags.
func TestServiceReshardHintRedirection(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 3, ClientsPerShard: 2, Pipeline: 8, Mode: LookupSeq,
		Replicas: 2, WriteQuorum: 1, ReadPolicy: ReadRoundRobin,
		Buckets: 1 << 12, MaxValLen: 64})
	const valLen = 48
	var keys []uint64
	for k := uint64(1); len(keys) < 20; k++ {
		if s.Owners(k)[0] == "shard0" {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		if err := s.Set(k, Value(k, valLen)); err != nil {
			t.Fatal(err)
		}
	}
	// Make shard0 unreachable so overwrites hint to it, then drain it:
	// the hints must be redirected, not stranded.
	sh0 := s.shards["shard0"]
	sh0.suspectUntil = s.Now() + 10*sim.Second
	for _, k := range keys {
		if err := s.Set(k, Value(k+7777, valLen)); err != nil {
			t.Fatal(err)
		}
	}
	if len(sh0.hints) == 0 {
		t.Fatal("setup failed: no hints accumulated on the suspect shard")
	}
	if err := s.DrainShard("shard0"); err != nil {
		t.Fatal(err)
	}
	s.Run()
	st := s.Stats()
	if st.MigHintsRedirected == 0 {
		t.Fatal("no hints were redirected off the draining shard")
	}
	if st.HintsPending != 0 {
		t.Fatalf("%d hints still pending after the drain", st.HintsPending)
	}
	for _, k := range keys {
		v, _, ok := s.Get(k, valLen)
		if !ok || !bytes.Equal(v, Value(k+7777, valLen)) {
			t.Fatalf("key %d lost its hinted overwrite across the drain", k)
		}
	}
	if stale := s.StaleOwners(keys); stale != 0 {
		t.Fatalf("%d stale replicas after hint redirection", stale)
	}
}

// Ownership changes fence the hot-value cache: the cache empties and
// its generation advances at migration start AND finish, so a get in
// flight across either boundary cannot admit a pre-move value — and
// admission works again once membership is stable.
func TestServiceReshardCacheGeneration(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 3, ClientsPerShard: 2, Pipeline: 8, Mode: LookupSeq,
		Replicas: 2, WriteQuorum: 1, HotKeyCache: 8, HotKeyTrack: 8,
		Buckets: 1 << 12, MaxValLen: 64})
	const valLen = 48
	for k := uint64(1); k <= 50; k++ {
		if err := s.Set(k, Value(k, valLen)); err != nil {
			t.Fatal(err)
		}
	}
	key := uint64(42)
	for i := 0; i < cacheAdmitCount+2; i++ {
		if _, _, ok := s.Get(key, valLen); !ok {
			t.Fatal("warm-up get missed")
		}
	}
	if _, ok := s.cache[key]; !ok {
		t.Fatal("setup failed: key never admitted to the cache")
	}
	gen := s.cacheGen
	if err := s.AddShard("shard3"); err != nil {
		t.Fatal(err)
	}
	if len(s.cache) != 0 {
		t.Fatal("cache not cleared at migration start")
	}
	if s.cacheGen == gen {
		t.Fatal("cache generation did not advance at migration start")
	}
	s.Run()
	if s.cacheGen < gen+2 {
		t.Fatalf("cache generation %d after finish, want >= %d (start and finish both fence)",
			s.cacheGen, gen+2)
	}
	for i := 0; i < cacheAdmitCount+2; i++ {
		if _, _, ok := s.Get(key, valLen); !ok {
			t.Fatal("post-migration get missed")
		}
	}
	if _, ok := s.cache[key]; !ok {
		t.Fatal("cache admission broken after the migration")
	}
}

// The linearizability-style checker with a join AND a drain in the
// loop: a mixed set/get/delete history runs while shard4 joins and
// shard1 drains, with read-repair and anti-entropy live underneath.
// Every read must be explainable by the write history (no value from
// the future, nothing older than the floor every owner had applied,
// no unexplained absence), replicas may only move forward, and the
// service must fully converge once both migrations settle.
func TestServiceLinearizableReshardHistory(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 4, ClientsPerShard: 2, Pipeline: 8, Mode: LookupSeq,
		Replicas: 3, WriteQuorum: 2, ReadPolicy: ReadRoundRobin, HotKeyCache: 8,
		Buckets: 1 << 12, MaxValLen: 64,
		ReadRepair: true, AntiEntropyEvery: 300 * sim.Microsecond, AntiEntropySegments: 16})
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

	rng := workload.Rng(11)
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

	// Membership churn under the live history: shard4 joins, then
	// shard1 drains as soon as the join's migration settles.
	eng := s.Testbed().Engine()
	eng.At(s.Now()+400*sim.Microsecond, func() {
		if err := s.AddShard("shard4"); err != nil {
			t.Errorf("AddShard under load: %v", err)
		}
	})
	var tryDrain func()
	tryDrain = func() {
		if err := s.DrainShard("shard1"); err != nil {
			if errors.Is(err, ErrMigrationInProgress) {
				eng.After(100*sim.Microsecond, tryDrain)
				return
			}
			t.Errorf("DrainShard under load: %v", err)
		}
	}
	eng.At(s.Now()+900*sim.Microsecond, tryDrain)

	s.Run()
	s.Testbed().RunFor(1 * sim.Second)
	if ops != totalOps {
		t.Fatalf("history stalled at %d of %d ops", ops, totalOps)
	}
	if len(reads) == 0 {
		t.Fatal("history recorded no successful reads")
	}
	if got := len(s.Migrations()); got != 2 {
		t.Fatalf("%d migrations completed, want 2 (join + drain)", got)
	}
	if s.NumShards() != 4 {
		t.Fatalf("NumShards = %d after join+drain, want 4", s.NumShards())
	}

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
				t.Fatalf("read %d of key %d observed ABSENT although every owner held seq %d before the read began and no delete could explain it",
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

	st := s.Stats()
	if st.MigKeysMoved == 0 || st.MigSegsSealed == 0 {
		t.Fatalf("migrations moved nothing (%d keys, %d segments) — churn not exercised",
			st.MigKeysMoved, st.MigSegsSealed)
	}
	if st.HintsPending != 0 {
		t.Fatalf("%d hints still pending after the churn history", st.HintsPending)
	}
	allKeys := make([]uint64, nKeys)
	for i := range allKeys {
		allKeys[i] = uint64(i + 1)
	}
	if stale := s.StaleOwners(allKeys); stale != 0 {
		t.Fatalf("%d stale replicas after the churn history", stale)
	}
}
