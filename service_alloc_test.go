//go:build !race

package redn

import (
	"runtime"
	"runtime/pprof"
	"testing"

	"repro/internal/failure"
	"repro/internal/sim"
)

// TestSteadyStateOpsAllocate pins what an op costs the host above the
// NIC once the record pools, rings and maps have grown: nothing for a
// fabric get (its callback borrows the slot's value buffer), a cache
// hit or a replicated set (its extents' records come back from the
// extents it retires).
func TestSteadyStateOpsAllocate(t *testing.T) {
	const valLen = 48
	warm := func(run func()) {
		for i := 0; i < 64; i++ {
			run()
		}
	}

	t.Run("r=1 fabric get", func(t *testing.T) {
		s := NewServiceWith(ServiceConfig{
			Shards: 2, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq,
			Buckets: 1 << 12, MaxValLen: 64})
		keys := preloadKeys(t, s, 16)
		hits, i := 0, 0
		cb := func(_ []byte, _ Duration, ok bool) {
			if ok {
				hits++
			}
		}
		run := func() {
			s.GetAsync(keys[i%len(keys)], valLen, cb)
			i++
			s.Flush()
			s.Run()
		}
		warm(run)
		if got := testing.AllocsPerRun(200, run); got != 0 {
			t.Errorf("%v allocations per fabric get, want 0", got)
		}
		if hits != i {
			t.Fatalf("%d of %d gets hit", hits, i)
		}
		recordsHome(t, s)
	})

	t.Run("cache hit", func(t *testing.T) {
		s := NewServiceWith(ServiceConfig{
			Shards: 2, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq,
			HotKeyCache: 4, Buckets: 1 << 12, MaxValLen: 64})
		keys := preloadKeys(t, s, 4)
		cb := func([]byte, Duration, bool) {}
		run := func() {
			s.GetAsync(keys[0], valLen, cb)
			s.Flush()
			s.Run()
		}
		warm(run) // admitted after cacheAdmitCount accesses
		before := s.Stats().CacheHits
		if got := testing.AllocsPerRun(200, run); got != 0 {
			t.Errorf("%v allocations per cache hit, want 0", got)
		}
		if hits := s.Stats().CacheHits - before; hits != 201 {
			t.Fatalf("%d of 201 gets were cache hits", hits)
		}
	})

	t.Run("r=3 W=2 set", func(t *testing.T) {
		s := NewServiceWith(ServiceConfig{
			Shards: 4, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq,
			Replicas: 3, WriteQuorum: 2, Buckets: 1 << 12, MaxValLen: 64})
		keys := preloadKeys(t, s, 16)
		acks, i := 0, 0
		val := Value(7, valLen)
		cb := func(_ Duration, err error) {
			if err == nil {
				acks++
			}
		}
		run := func() {
			s.SetAsync(keys[i%len(keys)], val, cb)
			i++
			s.Flush()
			s.Run()
		}
		warm(run)
		// Each owner's new extent takes the record of the extent the
		// previous overwrite retired (internal/extent); nothing per leg.
		if got := testing.AllocsPerRun(200, run); got != 0 {
			t.Errorf("%v allocations per r=3 set, want 0", got)
		}
		if acks != i {
			t.Fatalf("%d of %d sets acknowledged", acks, i)
		}
		recordsHome(t, s)
	})
}

// TestSinksOnOpsAllocate pins what turning every telemetry sink on —
// the tracer, the sentinel's flight recorder, provenance receipts, the
// profiler — adds to an op's host allocations over the same op with
// sinks off: at most one, which is the flight recorder's sample ring
// still growing its slots (one tick per op here) or the tracer's event
// slice doubling (amortized to zero over the runs). Trace track
// names and histogram sub-metric names are built once, at wiring, and
// a traced WR's PU name comes from the device's cache, so a traced op
// builds no strings.
func TestSinksOnOpsAllocate(t *testing.T) {
	const valLen = 48
	// allocs grows s's pools, rings and maps with 64 ops, then returns
	// the allocations of one more.
	allocs := func(cfg ServiceConfig, op func(s *Service, key uint64)) float64 {
		s := NewServiceWith(cfg)
		keys := preloadKeys(t, s, 16)
		i := 0
		run := func() {
			op(s, keys[i%len(keys)])
			i++
			s.Flush()
			s.Run()
		}
		for j := 0; j < 64; j++ {
			run()
		}
		return testing.AllocsPerRun(200, run)
	}
	getCB := func([]byte, Duration, bool) {}
	setCB := func(Duration, error) {}
	val := Value(7, valLen)
	for _, tc := range []struct {
		name string
		cfg  ServiceConfig
		op   func(s *Service, key uint64)
	}{
		{"r=1 fabric get", ServiceConfig{Shards: 2, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq,
			Buckets: 1 << 12, MaxValLen: 64},
			func(s *Service, key uint64) { s.GetAsync(key, valLen, getCB) }},
		{"r=3 W=2 set", ServiceConfig{Shards: 4, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq,
			Replicas: 3, WriteQuorum: 2, Buckets: 1 << 12, MaxValLen: 64},
			func(s *Service, key uint64) { s.SetAsync(key, val, setCB) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			off := allocs(tc.cfg, tc.op)
			on := tc.cfg
			on.Trace, on.Sentinel, on.Provenance, on.Profile = true, true, true, true
			if got := allocs(on, tc.op); got > off+1 {
				t.Errorf("%v allocations per op with every sink on, %v off: want at most one more", got, off)
			}
		})
	}
}

// TestHintDrainAllocatesNothingPerHint pins what a recovery's hint
// drain costs the host: the same objects for 1 024 hints as for 256.
// A drain lane is a count kept with the shard, and the owner-apply
// record each replay is, and the request records its apply borrows,
// are bounded by the owner's write slots: a request record goes home
// at its answer.
func TestHintDrainAllocatesNothingPerHint(t *testing.T) {
	mallocs := func(n int) uint64 {
		s, _, up := hintedOutage(t, n, 4)
		s.Testbed().Engine().RunUntil(up - 1)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s.Run()
		runtime.ReadMemStats(&after)
		if st := s.Stats(); st.HintsApplied != uint64(n) || st.HintsPending != 0 {
			t.Fatalf("%d of %d hints applied, %d pending", st.HintsApplied, n, st.HintsPending)
		}
		return after.Mallocs - before.Mallocs
	}
	small, large := mallocs(256), mallocs(1024)
	// A few objects of slack for the runtime's own.
	if large > small+16 {
		t.Errorf("recovery from 1024 hints allocated %d objects, from 256 %d: the drain allocates per hint",
			large, small)
	}
}

// TestRepairAllocatesNothingPerRecord pins what an owner's missing
// write costs the host once warm, a repair and a hint alike: the record
// comes from the service's free list and hangs on its owner's per-key
// record, the drain lanes replay it, and a repair's converge derives in
// the run the replay is. 256 repairs of caught-up owners, and 256 hints
// queued by writes to owners whose breaker is open and drained once
// they prove live, allocate nothing; the bound leaves two objects of
// slack for the runtime's own. A round in which the runtime started an
// OS thread is measured again: the thread's records, 5 objects (its m
// and two g's among them, sized by runtime/metrics'
// /gc/heap/allocs-by-size), land on the heap while another goroutine
// is blocked in a syscall — chiefly the finalizer goroutine unmapping
// the node memory of services earlier tests left to the round's own
// runtime.GC() — so they are the runtime's, not the round's. Measured
// without the retry, 10 of 360 runs (36 per process) counted them.
func TestRepairAllocatesNothingPerRecord(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 3, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq,
		Replicas: 2, WriteQuorum: 1, Buckets: 1 << 12, MaxValLen: 64})
	wide := preloadKeys(t, s, 512)
	keys := wide[:128]
	val := Value(1, 48)
	repairs := func() {
		for _, k := range keys {
			for _, id := range s.owners(k) {
				s.queueRepair(s.shards[id], k, 1)
			}
		}
		s.Run()
	}
	hints := func(keys []uint64) {
		for _, sh := range s.order {
			sh.suspectUntil = s.Now() + sim.Second
		}
		for _, k := range keys {
			s.SetAsync(k, val, nil)
		}
		s.Flush()
		s.Run()
		for _, sh := range s.order {
			sh.markLive()
			s.drainHints(sh, false)
		}
		s.Run()
	}
	n := 2 * len(keys)
	threads := pprof.Lookup("threadcreate")
	perRecord := func(round func()) (objects float64, rounds int) {
		var m0, m1 runtime.MemStats
		for rounds < 3 {
			before := threads.Count()
			runtime.GC()
			runtime.ReadMemStats(&m0)
			round()
			runtime.ReadMemStats(&m1)
			rounds++
			if threads.Count() == before {
				break
			}
		}
		return float64(m1.Mallocs-m0.Mallocs) / float64(n), rounds
	}
	// Warm: the rounds grow the pools, the queues and the maps, and the
	// first drain's replays the NIC's own work lists. The first burst
	// is four times a measured one, so each owner's per-key map grows to
	// a size the measured bursts fill a sixth of: at the size a measured
	// burst alone grows it to, the tombstones its deletes leave in full
	// groups make the map grow again (two objects) in one round in five.
	hints(wide)
	for range 2 {
		repairs()
		hints(keys)
	}
	st := s.Stats()
	perRepair, repairRounds := perRecord(repairs)
	perHint, hintRounds := perRecord(func() { hints(keys) })
	now := s.Stats()
	if got, want := now.RepairsSuperseded-st.RepairsSuperseded, uint64(n*repairRounds); got != want {
		t.Fatalf("%d of %d repairs of caught-up owners superseded", got, want)
	}
	if got, want := now.HintsApplied-st.HintsApplied, uint64(n*hintRounds); got != want || now.HintsQueued-st.HintsQueued != want {
		t.Fatalf("%d of %d hints queued, %d applied", now.HintsQueued-st.HintsQueued, want, got)
	}
	t.Logf("%.3f objects per repair, %.3f per hint", perRepair, perHint)
	if perRepair > 0.01 || perHint > 0.01 {
		t.Errorf("%.3f objects per repair, %.3f per hint, want <= 0.01 each", perRepair, perHint)
	}
	recordsHome(t, s)
}

// TestReconnectAllocates pins what re-establishing a restarted shard's
// connections costs the host: its two 16-deep clients' queues, buffers
// and completion subscriptions are reset in place, not rebuilt (which
// took ~11 000 objects), with requests wedged on the frozen NIC and a
// WAIT parked on every context that lost its trigger.
func TestReconnectAllocates(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 4, ClientsPerShard: 2, Pipeline: 16, Mode: LookupSeq,
		Replicas: 3, WriteQuorum: 2, Buckets: 1 << 12, MaxValLen: 64})
	keys := preloadKeys(t, s, 64)
	sh := s.order[0]
	setCB, getCB := func(Duration, error) {}, func([]byte, Duration, bool) {}
	// outage crashes the shard under a set and a get of every key and
	// runs to just before it comes back.
	outage := func() {
		s.CrashShard(0, failure.ProcessCrash, s.Now())
		s.Testbed().RunFor(sim.Microsecond)
		for _, k := range keys {
			s.SetAsync(k, Value(k, 48), setCB)
			s.GetAsync(k, 48, getCB)
		}
		s.Flush()
		s.Testbed().RunFor(failure.BootstrapTime + failure.RebuildTime - 10*sim.Microsecond)
	}
	outage()
	s.Run() // one whole recovery first: what it grows, it grows once
	outage()
	if wedged := sh.clients[0].pipelineStats(pipeSet).Wedged; wedged == 0 {
		t.Fatal("setup: no set slot wedged on the frozen NIC")
	}
	sh.srv.node.Dev.Unfreeze()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.reconnect(sh)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > 16 {
		t.Errorf("one reconnect allocated %d objects, want <= 16", n)
	}
	s.Run()
	recordsHome(t, s)
}
