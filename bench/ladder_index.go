package main

import (
	"fmt"

	"repro/internal/hopscotch"
	"repro/internal/mem"
	"repro/internal/shard"
)

// ladderIndex measures the two index structures under the service:
// the hopscotch table a shard stores keys in, and the consistent-hash
// ring that picks a key's replica owners.
func ladderIndex(m *metricSet, s ladderScale) {
	inserts := s.ops(20000)
	node := mem.New(1 << 24)
	table := hopscotch.New(node, 1<<16, 0)
	c := measureRung(inserts, nil, func() {
		for k := uint64(1); k <= uint64(inserts); k++ {
			if err := table.Insert(k*0x9E3779B97F4A7C15>>24, 4096, 64); err != nil {
				panic(err)
			}
		}
	})
	m.put("hopscotch.ladder_insert_ns", c.ns)

	lookups := s.ops(1 << 18)
	ring := shard.NewRing(shard.DefaultVirtualNodes)
	for i := 0; i < 4; i++ {
		if err := ring.AddNode(fmt.Sprintf("shard%d", i)); err != nil {
			panic(err)
		}
	}
	c = measureRung(lookups, nil, func() {
		for k := uint64(1); k <= uint64(lookups); k++ {
			owners, err := ring.LookupN(k, 3)
			if err != nil {
				panic(err)
			}
			sink += len(owners)
		}
	})
	m.put("shard.ladder_lookupn_ns", c.ns)
}
