package main

import redn "repro"

// ladderClient is the pipeline rung: the same gets and sets through
// redn.Client's opPipeline (slots, windows, timeouts, completion
// demux) against one server, 16 in flight; and, at depth 1, the
// unloaded get latency the paper reports (Fig 10: ~5 us for a 64 B
// hash get).
func ladderClient(m *metricSet, s ladderScale) {
	const nKeys = 1000
	gets, sets := s.ops(10000), s.ops(5000)
	tb := redn.NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1 << 12)
	val := make([]byte, valLen)
	for k := uint64(1); k <= nKeys; k++ {
		encodeValue(val, k, 1)
		if err := table.Set(k, val); err != nil {
			panic(err)
		}
	}
	// A bare client has no host fallback: keep to keys the chain can reach.
	var keys []uint64
	for k := uint64(1); k <= nKeys; k++ {
		if _, ok := candidateBucket(table.Table(), k); ok {
			keys = append(keys, k)
		}
	}
	eng := tb.Engine()

	one := tb.NewClient(srv, redn.LookupSeq)
	one.Bind(table)
	var virt redn.Duration
	const unloaded = 100
	for _, k := range keys[:unloaded] {
		got, lat, ok := one.Get(k, valLen)
		if _, good := decodeValue(got, k); !ok || !good {
			panic("bench: client rung: unloaded get failed")
		}
		virt += lat
	}
	m.put("client.ladder_get_virt_us", (virt / unloaded).Micros())

	cli := tb.NewPipelinedClient(srv, redn.LookupSeq, ladderDepth)
	cli.Bind(table)
	next := 0
	pick := func() uint64 { next++; return keys[next%len(keys)] }

	hits := 0
	loop := &closedLoop{n: gets}
	loop.start = func() {
		cli.GetAsync(pick(), valLen, func(_ []byte, _ redn.Duration, ok bool) {
			if ok {
				hits++
			}
			loop.done()
			cli.Flush()
		})
	}
	c := measureRung(gets, eng.Executed, func() {
		loop.run(ladderDepth, func() { cli.Flush(); tb.Run() })
	})
	if hits != gets {
		panic("bench: client rung: a get missed a resident key")
	}
	m.put("client.ladder_get_ns", c.ns)
	m.put("client.ladder_get_events", c.events)
	m.put("client.ladder_get_allocs", c.allocs)

	acks := 0
	loop = &closedLoop{n: sets}
	loop.start = func() {
		k := pick()
		encodeValue(val, k, uint64(loop.issued)+1)
		cli.SetAsync(k, val, func(_ redn.Duration, ok bool) {
			if ok {
				acks++
			}
			loop.done()
			cli.Flush()
		})
	}
	c = measureRung(sets, eng.Executed, func() {
		loop.run(ladderDepth, func() { cli.Flush(); tb.Run() })
	})
	if acks != sets {
		panic("bench: client rung: a set was not acknowledged")
	}
	m.put("client.ladder_set_ns", c.ns)
	m.put("client.ladder_set_events", c.events)
	m.put("client.ladder_set_allocs", c.allocs)
}
