package main

import "time"

// The layer ladder pushes the same logical op — a 64 B LookupSeq get,
// then a 64 B set, 16 in flight against one server node — through one
// more layer per rung, so the difference between adjacent rungs is the
// upper layer's own cost (client - core, service - client,
// core - wrs x rnic). Every rung is its own adapter file; op counts are
// fixed, so the event and allocation counts repeat exactly.

// ladderDepth is how many ops each rung keeps in flight.
const ladderDepth = 16

// rungCost is one rung's per-op host cost and simulator event count.
type rungCost struct{ ns, allocs, events float64 }

// measureRung runs fn, which performs n ops, and divides what it cost.
// executed reads the rung's engine event counter (nil: no engine).
func measureRung(n int, executed func() uint64, fn func()) rungCost {
	var e0 uint64
	if executed != nil {
		e0 = executed()
	}
	h0 := readHostCost()
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	h := readHostCost().since(h0)
	c := rungCost{ns: float64(wall.Nanoseconds()) / float64(n), allocs: float64(h.mallocs) / float64(n)}
	if executed != nil {
		c.events = float64(executed()-e0) / float64(n)
	}
	return c
}

// closedLoop keeps a fixed number of ops in flight until n have
// completed: start issues one op, and the rung calls done from that
// op's completion.
type closedLoop struct {
	n, issued, completed int
	start                func()
}

func (l *closedLoop) issue() {
	if l.issued < l.n {
		l.issued++
		l.start()
	}
}

func (l *closedLoop) done() {
	l.completed++
	l.issue()
}

// run issues the first depth ops, then drains the simulation.
func (l *closedLoop) run(depth int, drain func()) {
	for i := 0; i < depth; i++ {
		l.issue()
	}
	drain()
	if l.completed != l.n {
		panic("bench: ladder rung stalled")
	}
}

// ladderScale shrinks every rung's op count for smoke runs.
type ladderScale float64

func (s ladderScale) ops(n int) int { return max(int(float64(n)*float64(s)), 4*ladderDepth) }

// runLadder runs every rung, bottom up, and returns their metrics. The
// sim rung goes last so it can schedule at the event-queue depth the
// core rung actually saw. No rung depends on a workload or a seed, so a
// traced invocation climbs the ladder once and every workload's report
// carries the same rungs. seconds below runSeconds shrinks the rungs.
func runLadder(seconds float64) map[string]metric {
	m := newMetricSet(perLayer)
	s := ladderScale(min(seconds/runSeconds, 1))
	ladderMem(m, s)
	ladderIndex(m, s)
	ladderRnic(m, s)
	depth := ladderCore(m, s)
	ladderClient(m, s)
	ladderService(m, s)
	ladderSim(m, s, depth)
	return m.vals
}
