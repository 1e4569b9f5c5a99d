package main

import redn "repro"

// serviceRung drives gets then sets through a redn.Service, 16 in
// flight, and returns their costs.
func serviceRung(shards, replicas, quorum, gets, sets int) (get, set rungCost) {
	const nKeys = 1000
	s := redn.NewServiceWith(redn.ServiceConfig{Shards: shards, ClientsPerShard: 1,
		Pipeline: ladderDepth, Mode: redn.LookupSeq, Buckets: 1 << 12, MaxValLen: valLen,
		Replicas: replicas, WriteQuorum: quorum})
	val := make([]byte, valLen)
	for k := uint64(1); k <= nKeys; k++ {
		encodeValue(val, k, 1)
		if err := s.Set(k, val); err != nil {
			panic(err)
		}
	}
	eng := s.Testbed().Engine()
	key := uint64(0)
	pick := func() uint64 { key = key%nKeys + 1; return key }
	drain := func() { s.Flush(); s.Run() }

	good := 0
	loop := &closedLoop{n: gets}
	loop.start = func() {
		s.GetAsync(pick(), valLen, func(_ []byte, _ redn.Duration, ok bool) {
			if ok {
				good++
			}
			loop.done()
			s.Flush()
		})
	}
	if gets > 0 {
		get = measureRung(gets, eng.Executed, func() { loop.run(ladderDepth, drain) })
	}
	loop = &closedLoop{n: sets}
	loop.start = func() {
		k := pick()
		encodeValue(val, k, uint64(loop.issued)+1)
		s.SetAsync(k, val, func(_ redn.Duration, err error) {
			if err == nil {
				good++
			}
			loop.done()
			s.Flush()
		})
	}
	set = measureRung(sets, eng.Executed, func() { loop.run(ladderDepth, drain) })
	if good != gets+sets {
		panic("bench: service rung: an op failed")
	}
	return get, set
}

// ladderService is the top rung: the same ops through redn.Service —
// routing, per-key write slots, quorum accounting — first on one shard
// with one replica (so the difference to the client rung is the service
// layer alone), then a 3-way W=2 quorum set.
func ladderService(m *metricSet, s ladderScale) {
	get, set := serviceRung(1, 1, 1, s.ops(10000), s.ops(5000))
	m.put("service.ladder_get_ns", get.ns)
	m.put("service.ladder_get_allocs", get.allocs)
	m.put("service.ladder_set_ns", set.ns)
	m.put("service.ladder_set_allocs", set.allocs)
	_, qset := serviceRung(3, 3, 2, 0, s.ops(3000))
	m.put("service.ladder_quorum_set_ns", qset.ns)
	m.put("service.ladder_quorum_set_events", qset.events)
	m.put("service.ladder_quorum_set_allocs", qset.allocs)
}
