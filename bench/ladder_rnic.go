package main

import (
	"repro/internal/fabric"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/wqe"
)

// ladderNode sizes a rung's nodes: big enough for the rings and a few
// thousand values, small enough that building one is not the rung.
func ladderNode(name string) fabric.NodeConfig {
	cfg := fabric.DefaultNodeConfig(name)
	cfg.MemSize = 1 << 24
	return cfg
}

// puGrants counts the work requests the nodes' NICs have executed:
// every WR execution is one grant on a processing unit.
func puGrants(nodes ...*fabric.Node) uint64 {
	var n uint64
	for _, node := range nodes {
		for _, port := range node.Dev.Ports() {
			for _, pu := range port.PUs() {
				n += pu.Grants()
			}
		}
	}
	return n
}

// ladderRnic is the device rung: signaled 64 B WRITEs between two
// fabric nodes, 16 in flight, reposted from their completions — one
// work request through fetch, PU, PCIe, link and CQ, nothing above.
func ladderRnic(m *metricSet, s ladderScale) {
	wrs := s.ops(50000)
	clu := fabric.NewCluster()
	a, b := clu.AddNode(ladderNode("a")), clu.AddNode(ladderNode("b"))
	qp, _ := clu.Connect(a, b, rnic.QPConfig{SQDepth: 64}, rnic.QPConfig{SQDepth: 8})
	src, dst := a.Mem.Alloc(64, 64), b.Mem.Alloc(64, 64)
	write := wqe.WQE{Op: wqe.OpWrite, Flags: wqe.FlagSignaled, Src: src, Dst: dst, Len: 64}

	// Unloaded: one WRITE at a time, post to host-visible completion.
	var virt sim.Time
	const unloaded = 100
	for i := 0; i < unloaded; i++ {
		start := clu.Eng.Now()
		qp.PostSend(write)
		qp.RingSQ()
		clu.Eng.Run()
		es := qp.SendCQ().Poll(1)
		if len(es) != 1 || es[0].Status != rnic.StatusOK {
			panic("bench: rnic rung: WRITE did not complete")
		}
		virt += es[0].At - start
	}
	m.put("rnic.ladder_write_virt_us", (virt / unloaded).Micros())

	loop := &closedLoop{n: wrs, start: func() {
		qp.PostSend(write)
		qp.RingSQ()
	}}
	qp.SendCQ().SetAutoDrain(true)
	qp.SendCQ().OnDeliver(func(rnic.CQE) { loop.done() })
	c := measureRung(wrs, clu.Eng.Executed, func() { loop.run(ladderDepth, clu.Eng.Run) })
	m.put("rnic.ladder_ns_per_wr", c.ns)
	m.put("rnic.ladder_events_per_wr", c.events)
	m.put("rnic.ladder_allocs_per_wr", c.allocs)
}
