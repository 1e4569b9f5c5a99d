package main

import (
	"time"

	"repro/internal/mem"
	"repro/internal/wqe"
)

// sink keeps measured calls' results alive so the compiler cannot
// discard the calls.
var sink int

// ladderMem measures node memory and the WQE codec, the two things
// every work request touches: building a node's memory, reading 64 B
// out of it, decoding a WQE and a RECV scatter list.
func ladderMem(m *metricSet, s ladderScale) {
	// A server node of the service is 128 MiB; building one is most of
	// setup_s.
	const nodeSize = 1 << 27
	nodes := max(int(4*s), 1)
	t0 := time.Now()
	for i := 0; i < nodes; i++ {
		if err := mem.New(nodeSize).PutU64(nodeSize-8, 1); err != nil {
			panic(err)
		}
	}
	m.put("mem.ladder_new_ms_per_node", time.Since(t0).Seconds()*1e3/float64(nodes))

	reads := s.ops(1 << 20)
	node := mem.New(1 << 20)
	addr := node.Alloc(64, 64)
	c := measureRung(reads, nil, func() {
		for i := 0; i < reads; i++ {
			b, err := node.Read(addr, 64)
			if err != nil {
				panic(err)
			}
			sink += len(b)
		}
	})
	m.put("mem.ladder_read_ns", c.ns)
	m.put("mem.ladder_read_allocs", c.allocs)

	decodes := s.ops(1 << 20)
	var buf [wqe.Size]byte
	w := wqe.WQE{Op: wqe.OpWrite, ID: 42, Src: addr, Dst: addr, Len: 64, Flags: wqe.FlagSignaled}
	w.Encode(buf[:])
	c = measureRung(decodes, nil, func() {
		var d wqe.WQE
		for i := 0; i < decodes; i++ {
			d.Decode(buf[:])
			sink += int(d.Len)
		}
	})
	m.put("wqe.ladder_decode_ns", c.ns)

	// A set chain's RECV scatters 14 fields (core/set.go).
	const entries = 14
	scatters := s.ops(1 << 18)
	sbuf := make([]byte, entries*wqe.ScatterEntrySize)
	c = measureRung(scatters, nil, func() {
		for i := 0; i < scatters; i++ {
			sink += len(wqe.DecodeScatter(sbuf, entries))
		}
	})
	m.put("wqe.ladder_decode_scatter_allocs", c.allocs)
}
