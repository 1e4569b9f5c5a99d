//go:build !race

package redn

import "testing"

// TestSteadyStateOpsAllocate pins what an op costs the host above the
// NIC once the record pools, rings and maps have grown: a fabric get
// the one copy of the value it hands its caller, a cache hit nothing,
// a replicated set nothing (its extents' records come back from the
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
		if got := testing.AllocsPerRun(200, run); got > 1 {
			t.Errorf("%v allocations per fabric get, want at most 1 (the caller's copy of the value)", got)
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
// the sentinel's ring tracer and flight recorder, provenance receipts,
// the profiler — adds to an op's host allocations over the same op
// with sinks off: at most one, which is the flight recorder's sample
// ring still growing its slots (one tick per op here). Trace track
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
			on.Sentinel, on.Provenance, on.Profile = true, true, true
			if got := allocs(on, tc.op); got > off+1 {
				t.Errorf("%v allocations per op with every sink on, %v off: want at most one more", got, off)
			}
		})
	}
}
