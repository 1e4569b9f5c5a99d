package redn

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/failure"
	"repro/internal/sim"
)

// recordsHome fails unless every op record the service — and every
// client connection it has, plus the abandoned ones in old — ever made
// is back on its free list in its released state: where a quiesced
// service must leave them.
func recordsHome(t *testing.T, s *Service, old ...*Client) {
	t.Helper()
	if s.gets.made+s.sets.made+s.runs.made == 0 {
		t.Fatal("the service made no op records: the test exercised nothing")
	}
	if len(s.gets.free) != s.gets.made {
		t.Fatalf("%d of %d get records back on the free list", len(s.gets.free), s.gets.made)
	}
	for _, g := range s.gets.free {
		if g.next != getFree || g.cb != nil {
			t.Fatalf("free list holds a get record at stage %d (callback kept: %v)", g.next, g.cb != nil)
		}
	}
	if len(s.sets.free) != s.sets.made {
		t.Fatalf("%d of %d write records back on the free list", len(s.sets.free), s.sets.made)
	}
	for _, op := range s.sets.free {
		if op.live || op.settleLeft != 0 || op.pins != 0 {
			t.Fatalf("free list holds a write record live=%v settleLeft=%d pins=%d", op.live, op.settleLeft, op.pins)
		}
	}
	if len(s.runs.free) != s.runs.made {
		t.Fatalf("%d of %d owner-apply records back on the free list", len(s.runs.free), s.runs.made)
	}
	for _, r := range s.runs.free {
		if r.next != runFree {
			t.Fatalf("free list holds an owner-apply record at stage %d", r.next)
		}
	}
	clients := old
	for _, sh := range s.order {
		clients = append(clients, sh.clients...)
	}
	for _, cli := range clients {
		for _, p := range cli.pipes {
			if len(p.reqs.free) != p.reqs.made {
				t.Fatalf("%s %s pipeline: %d of %d request records back on the free list",
					cli.node.Name, p.name, len(p.reqs.free), p.reqs.made)
			}
			for _, req := range p.reqs.free {
				if req.live {
					t.Fatalf("%s %s pipeline: free list holds a live request record", cli.node.Name, p.name)
				}
			}
		}
	}
}

// churn keeps users closed loops of mixed gets (present and absent
// keys), sets and deletes running over keys until total ops have
// completed, same-key writes back to back included, and returns how
// many completed.
func churn(s *Service, keys []uint64, users, total int) int {
	issued, done := 0, 0
	var user func()
	user = func() {
		if issued >= total {
			return
		}
		i := issued
		issued++
		k := keys[i*7%len(keys)]
		next := func() {
			done++
			user()
			s.Flush()
		}
		switch i % 8 {
		case 0, 1:
			s.SetAsync(k, Value(k+uint64(i), 48), func(Duration, error) { next() })
		case 2:
			// The same key again while the previous write may still hold
			// its (owner, key) slots.
			s.SetAsync(keys[(i-1)*7%len(keys)], Value(k, 48), func(Duration, error) { next() })
		case 3:
			s.DeleteAsync(k, func(Duration, error) { next() })
		case 4:
			s.GetAsync(k|1<<40, 48, func([]byte, Duration, bool) { next() }) // absent everywhere
		default:
			s.GetAsync(k, 48, func([]byte, Duration, bool) { next() })
		}
	}
	for u := 0; u < users; u++ {
		user()
	}
	s.Flush()
	s.Run()
	return done
}

func preloadKeys(t *testing.T, s *Service, n int) []uint64 {
	t.Helper()
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i + 1)
		if err := s.Set(keys[i], Value(keys[i], 48)); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

func TestOpRecordsReturnAtQuiesce(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 4, ClientsPerShard: 2, Pipeline: 4, Mode: LookupSeq,
		Replicas: 3, WriteQuorum: 2, ReadPolicy: ReadRoundRobin, ReadRepair: true,
		AntiEntropyEvery: sim.Millisecond, HotKeyCache: 8,
		Buckets: 1 << 12, MaxValLen: 64})
	keys := preloadKeys(t, s, 64)
	const total = 4000
	if done := churn(s, keys, 24, total); done != total {
		t.Fatalf("%d of %d ops completed", done, total)
	}
	recordsHome(t, s)
	st := s.Stats()
	if st.Probes == 0 || st.CacheHits == 0 || st.Misses == 0 || st.DelOps == 0 {
		t.Fatalf("churn missed a path: %d probes, %d cache hits, %d misses, %d deletes",
			st.Probes, st.CacheHits, st.Misses, st.DelOps)
	}
	// 24 users never need more records than that at once (a probe keeps
	// its get's record a little longer): the records were reused.
	if s.gets.made > 2*24 || s.sets.made > 2*24 || s.runs.made > 4*24 {
		t.Fatalf("%d get, %d write and %d owner-apply records for %d ops of 24 users: records are not reused",
			s.gets.made, s.sets.made, s.runs.made, total)
	}
}

// Through a crash: writes hint while the owner is down, the hints drain
// at recovery — one of them dropped by DropHints while its replay is in
// flight — and the connections the crash killed are abandoned with
// requests on them.
func TestOpRecordsReturnAcrossCrashAndHints(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 3, ClientsPerShard: 2, Pipeline: 4, Mode: LookupSeq,
		Replicas: 3, WriteQuorum: 2, ReadPolicy: ReadRoundRobin, ReadRepair: true,
		AntiEntropyEvery: sim.Millisecond,
		Buckets:          1 << 12, MaxValLen: 64})
	keys := preloadKeys(t, s, 48)
	victim := s.order[0]
	old := append([]*Client(nil), victim.clients...)
	s.CrashShard(0, failure.ProcessCrash, s.Now()+200*sim.Microsecond)

	// Load across the crash and into the outage: the victim's legs time
	// out into hints.
	issued, done := 0, 0
	const total = 3000
	var user func()
	user = func() {
		if issued >= total {
			return
		}
		i := issued
		issued++
		k := keys[i*5%len(keys)]
		next := func() {
			done++
			user()
			s.Flush()
		}
		if i%3 == 0 {
			s.SetAsync(k, Value(k+uint64(i), 48), func(Duration, error) { next() })
		} else {
			s.GetAsync(k, 48, func([]byte, Duration, bool) { next() })
		}
	}
	for u := 0; u < 12; u++ {
		user()
	}
	s.Flush()
	s.Testbed().RunFor(20 * sim.Millisecond)
	if len(victim.hints) == 0 {
		t.Fatal("setup: no hints queued on the crashed owner")
	}
	// Step to the recovery, then drop every hint the moment the replays
	// are in flight, and put the write records that frees straight back
	// to work: each replay must still apply — and report — its own
	// write's mutation, not the one that took the record over.
	eng := s.Testbed().Engine()
	type apply struct{ key, seq uint64 }
	replaying := map[apply]bool{}
	for len(replaying) == 0 && eng.Pending() > 0 {
		eng.RunUntil(eng.Now() + 10*sim.Microsecond)
		for _, h := range victim.hints {
			if h.draining {
				replaying[apply{h.key, h.seq}] = true
			}
		}
	}
	if len(replaying) == 0 {
		t.Fatal("setup: recovery never started replaying a hint")
	}
	s.applyHook = func(id string, key, seq uint64) {
		if id == victim.id {
			delete(replaying, apply{key, seq})
		}
	}
	dropped := s.DropHints()
	if dropped == 0 {
		t.Fatal("setup: nothing to drop")
	}
	for i := 0; i < dropped; i++ {
		s.SetAsync(uint64(1000+i), Value(uint64(i), 48), nil)
	}
	s.Flush()
	s.Run()
	if done != total {
		t.Fatalf("%d of %d ops completed", done, total)
	}
	if len(replaying) != 0 {
		t.Fatalf("%d replays in flight when their hints were dropped never applied their own write: %v",
			len(replaying), replaying)
	}
	s.applyHook = nil
	st := s.Stats()
	if st.HintsQueued == 0 || st.HintsPending != 0 || st.Shards[0].Rebuilds != 1 {
		t.Fatalf("crash did not run its course: %d hints queued, %d pending, %d rebuilds",
			st.HintsQueued, st.HintsPending, st.Shards[0].Rebuilds)
	}
	recordsHome(t, s, old...)
	// And once more with the hints left to drain.
	s.CrashShard(1, failure.ProcessCrash, s.Now()+200*sim.Microsecond)
	issued, done = 0, 0
	for u := 0; u < 12; u++ {
		user()
	}
	s.Flush()
	s.Run()
	if st := s.Stats(); done != total || st.HintsApplied == 0 || st.HintsPending != 0 {
		t.Fatalf("second crash: %d of %d ops, %d hints applied, %d pending", done, total, st.HintsApplied, st.HintsPending)
	}
	recordsHome(t, s, old...)
}

// A leg's hint can settle its write before the leg's failure is counted:
// the leg of an older write times out on an owner that is draining (or
// has left), so its hint is redirected to an owner already holding a
// newer write's hint (or has nowhere to go) and is dropped — the
// write's last settle — and only then does the quorum count the
// failure. The record must still be the write's own at that point.
func TestWriteRecordOutlivesItsOwnLastSettle(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 3, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq,
		Replicas: 2, WriteQuorum: 1, Buckets: 1 << 12, MaxValLen: 64})
	const key = 77
	if err := s.Set(key, Value(key, 48)); err != nil {
		t.Fatal(err)
	}
	owners := s.Owners(key)
	leaving, staying := s.shards[owners[0]], s.shards[owners[1]]
	// The leaving owner's process dies (its NIC drops triggers, its host
	// answers nothing); the staying one is merely suspected, so its legs
	// fail at once into hints.
	s.CrashShard(crashIdx(t, s, leaving.id), failure.ProcessCrash, s.Now()+sim.Microsecond)
	s.Testbed().RunFor(10 * sim.Microsecond)
	staying.suspectUntil = s.Now() + 10*sim.Second

	var errs [2]error
	s.SetAsync(key, Value(key+1, 48), func(_ Duration, err error) { errs[0] = err })
	s.SetAsync(key, Value(key+2, 48), func(_ Duration, err error) { errs[1] = err })
	s.Flush()
	s.Testbed().RunFor(20 * sim.Microsecond)
	if h := staying.hints[key]; h == nil || h.seq != s.nextSeq[key] {
		t.Fatal("setup: the newer write's hint does not stand on the staying owner")
	}
	if err := s.DrainShard(leaving.id); err != nil {
		t.Fatal(err)
	}
	// Both legs on the leaving owner now time out, oldest first.
	s.Testbed().RunFor(sim.Millisecond)
	for i, err := range errs {
		if _, ok := err.(*QuorumError); !ok {
			t.Fatalf("write %d: %v, want a quorum failure (no owner reachable)", i+1, err)
		}
	}
	// Let the staying owner take its hint, and everything settle.
	staying.suspectUntil = 0
	s.drainHints(staying)
	s.Run()
	if v, ok := ownerValue(t, s, staying.id, key); !ok || !bytes.Equal(v, Value(key+2, 48)) {
		t.Fatal("the newest write did not reach the staying owner")
	}
	recordsHome(t, s, leaving.clients...)
}

// Through a join and a drain with load on: dual writes add auxiliary
// legs, the migrator's copies and the load's writes queue on the same
// (owner, key) slots, and the drained shard leaves with its
// connections.
func TestOpRecordsReturnAcrossMigration(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 3, ClientsPerShard: 2, Pipeline: 4, Mode: LookupSeq,
		Replicas: 2, WriteQuorum: 1, ReadPolicy: ReadRoundRobin, ReadRepair: true,
		Buckets: 1 << 12, MaxValLen: 64})
	keys := preloadKeys(t, s, 200)
	if err := s.AddShard("shard3"); err != nil {
		t.Fatal(err)
	}
	if !s.resharding() {
		t.Fatal("setup: the join finished before any load")
	}
	made := s.runs.made
	if done := churn(s, keys, 16, 2000); done != 2000 {
		t.Fatalf("%d of 2000 ops completed across the join", done)
	}
	if s.resharding() {
		t.Fatal("join never finished")
	}
	recordsHome(t, s)
	if s.runs.made == made {
		t.Fatal("the join's load and copies took no owner-apply record")
	}
	gone := s.shards["shard0"]
	if err := s.DrainShard("shard0"); err != nil {
		t.Fatal(err)
	}
	if done := churn(s, keys, 16, 2000); done != 2000 {
		t.Fatalf("%d of 2000 ops completed across the drain", done)
	}
	if s.resharding() || s.NumShards() != 3 {
		t.Fatal("drain never finished")
	}
	recordsHome(t, s, gone.clients...)
	if st := s.Stats(); st.Migrations != 2 || st.MigKeysMoved == 0 {
		t.Fatalf("%d migrations, %d keys moved", st.Migrations, st.MigKeysMoved)
	}
}

// A request's record stays off the free list until its deadline event
// has run, so the deadline of a get that was answered early can never
// fail the request that would otherwise have been handed its record.
func TestRequestRecordIsPinnedByItsDeadline(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1024)
	if err := table.Set(1, Value(1, 64)); err != nil {
		t.Fatal(err)
	}
	cli := tb.NewPipelinedClient(srv, LookupSeq, 4)
	cli.Bind(table)
	cli.MissTimeout = 100 * sim.Microsecond
	eng := tb.Engine()

	var hitAt, lateIssued, lateDone sim.Time
	cli.GetAsync(1, 64, func(_ []byte, _ Duration, ok bool) {
		if !ok {
			t.Error("present key missed")
		}
		hitAt = eng.Now()
		if got, made := len(cli.get.reqs.free), cli.get.reqs.made; got != made-1 {
			t.Errorf("inside the hit's callback %d of %d records are free, want all but the hit's", got, made)
		}
		// An absent key: nothing answers it, so only a deadline ends it.
		// Were it handed the hit's record, the hit's deadline would.
		lateIssued = eng.Now()
		cli.GetAsync(999, 64, func(_ []byte, lat Duration, ok bool) {
			lateDone = eng.Now()
			if ok || lat != cli.MissTimeout {
				t.Errorf("absent key: ok=%v lat=%v, want a miss after exactly the timeout", ok, lat)
			}
		})
		cli.Flush()
	})
	cli.Flush()
	eng.RunUntil(50 * sim.Microsecond)
	if hitAt == 0 || hitAt >= 50*sim.Microsecond {
		t.Fatalf("setup: the hit landed at %v, want well before its deadline", hitAt)
	}
	if cli.get.reqs.made != 2 || len(cli.get.reqs.free) != 0 {
		t.Fatalf("with the hit answered and its deadline pending: %d records made, %d free; want 2 and 0",
			cli.get.reqs.made, len(cli.get.reqs.free))
	}
	tb.Run()
	if want := lateIssued + cli.MissTimeout; lateDone != want {
		t.Fatalf("the second get ended at %v, want its own deadline %v (the first get's was %v)",
			lateDone, want, cli.MissTimeout)
	}
	if len(cli.get.reqs.free) != cli.get.reqs.made {
		t.Fatalf("%d of %d records home at quiesce", len(cli.get.reqs.free), cli.get.reqs.made)
	}
	// Reused from here on: a third get takes no new record.
	if _, _, ok := cli.Get(1, 64); !ok || cli.get.reqs.made != 2 {
		t.Fatalf("third get: ok=%v with %d records made, want a hit on a reused record", ok, cli.get.reqs.made)
	}
}

// Waiting queues drop what they pop: a finished request stays reachable
// from neither the pipeline's queue nor an (owner, key) slot's.
func TestWaitingQueuesDropPoppedRequests(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 1, ClientsPerShard: 1, Pipeline: 2, Mode: LookupSeq,
		Buckets: 1 << 12, MaxValLen: 64})
	keys := preloadKeys(t, s, 8)
	sh := s.order[0]
	p := sh.clients[0].get
	for i := 0; i < 64; i++ {
		s.GetAsync(keys[i%len(keys)], 48, func([]byte, Duration, bool) {})
		s.SetAsync(keys[0], Value(uint64(i), 48), nil) // all on one (owner, key) slot
	}
	if p.waiting.Len() != 62 {
		t.Fatalf("%d gets queued behind a 2-deep pipeline, want 62", p.waiting.Len())
	}
	if q := sh.inflightSet[keys[0]]; q.Len() != 63 {
		t.Fatalf("%d writes queued behind the key's slot, want 63", q.Len())
	}
	s.Flush()
	s.Run()
	if p.waiting.Len() != 0 || len(sh.inflightSet) != 0 {
		t.Fatalf("after quiesce %d gets wait and %d key slots are held", p.waiting.Len(), len(sh.inflightSet))
	}
	recordsHome(t, s)
}

func TestReleasedOpRecordsPanic(t *testing.T) {
	mustPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) {
				t.Fatalf("%s: recovered %q, want a panic mentioning %q", name, msg, want)
			}
		}()
		fn()
	}
	s := NewServiceWith(ServiceConfig{
		Shards: 2, ClientsPerShard: 1, Pipeline: 2, Mode: LookupSeq,
		Replicas: 2, Buckets: 1 << 12, MaxValLen: 64})
	keys := preloadKeys(t, s, 4)
	if _, _, ok := s.Get(keys[0], 48); !ok {
		t.Fatal("setup: get missed")
	}
	s.Run()
	recordsHome(t, s)
	cli := s.shards[s.Owners(keys[0])[0]].clients[0] // served the get

	req := cli.get.reqs.free[0]
	mustPanic("submitting a released request record", "used after its release", func() { cli.get.submit(req) })
	mustPanic("a deadline on a released request record", "used after its release", req.timeoutFn)
	g := s.gets.free[0]
	mustPanic("routing a released get record", "get record routed", func() { s.tryGet(g) })
	mustPanic("an attempt answering a released get record", "get continuation", func() { g.attemptFn(nil, 0, false) })
	mustPanic("releasing a get record twice", "released twice", g.release)
	op := s.sets.free[0]
	mustPanic("settling a released write record", "write record used after", func() { op.settleOne(s) })
	mustPanic("acking a released write record", "write record used after", func() { op.ack(s) })
	r := s.runs.free[0]
	mustPanic("a slot grant on a released owner-apply record", "owner-apply continuation", r.slotFn)
	mustPanic("an ack on a released owner-apply record", "owner-apply continuation", func() { r.ackFn(0, true) })

	// A record taken again is not its previous user's either: the old
	// get's attempt callback finds the record in another stage.
	s.GetAsync(keys[1], 48, func([]byte, Duration, bool) {})
	s.Flush()
	s.Testbed().RunFor(2 * sim.Microsecond) // in flight
	taken := s.gets.made - len(s.gets.free)
	if taken != 1 {
		t.Fatalf("setup: %d get records in use, want 1", taken)
	}
	s.Run()
	mustPanic("a stale attempt on a re-taken, re-released record", "get continuation", func() { g.attemptFn(nil, 0, false) })
}
