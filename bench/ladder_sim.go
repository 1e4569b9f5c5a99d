package main

import "repro/internal/sim"

// ladderSim is the bottom rung: the event engine alone. depth
// self-rescheduling no-op closures keep the heap at the depth the core
// rung observed, so push and pop sift through a realistic tree.
func ladderSim(m *metricSet, s ladderScale, depth int) {
	events := s.ops(1 << 20)
	if depth < 1 {
		depth = 1
	}
	eng := sim.NewEngine()
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired+depth <= events {
			eng.After(sim.Time(depth), tick)
		}
	}
	for i := 0; i < depth; i++ {
		eng.After(sim.Time(i), tick)
	}
	c := measureRung(events, eng.Executed, eng.Run)
	m.put("sim.ladder_ns_per_event", c.ns)
	m.put("sim.ladder_allocs_per_event", c.allocs)
}
