package redn

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// Additive increase: 1/w per clean ack, monotone, capped at depth.
// From w=1 the cap is reached after ~(depth^2-1)/2 acks — the quadratic
// ramp that makes AIMD gentle near its operating point.
func TestAIMDWindowGrowth(t *testing.T) {
	a := aimdWindow{w: 1, depth: 16, beta: defaultWindowBeta, ecn: defaultEcnBacklog}
	prev := a.w
	acks := 0
	for a.size() < 16 {
		a.onAck()
		if a.w < prev {
			t.Fatalf("window shrank on a clean ack: %.3f -> %.3f", prev, a.w)
		}
		if a.w-prev > 1+1e-9 {
			t.Fatalf("window grew by %.3f on one ack, want <= 1 (additive increase)", a.w-prev)
		}
		prev = a.w
		acks++
		if acks > 1000 {
			t.Fatal("window never converged to depth on a clean-ack stream")
		}
	}
	if acks < 100 || acks > 200 {
		t.Errorf("window reached depth in %d acks, want ~128 for 1/w increase from 1 to 16", acks)
	}
	a.onAck()
	if a.w > a.depth {
		t.Fatalf("window %.3f grew past the depth cap %.0f", a.w, a.depth)
	}
}

// Multiplicative decrease: one cut per window epoch (requests issued
// before the last cut are casualties of the same congestion event and
// cannot re-cut), beta per cut, floor at one slot, and ECN-vs-timeout
// attribution in the counters.
func TestAIMDWindowCutEpochAndFloor(t *testing.T) {
	a := aimdWindow{w: 16, depth: 16, beta: 0.5, ecn: defaultEcnBacklog}
	if !a.cut(1, 10, false) {
		t.Fatal("first loss did not cut")
	}
	if a.w != 8 {
		t.Fatalf("window %.3f after one beta=0.5 cut from 16, want 8", a.w)
	}
	if a.cuts != 1 || a.ecnCuts != 0 {
		t.Fatalf("cuts=%d ecnCuts=%d after one timeout cut, want 1/0", a.cuts, a.ecnCuts)
	}
	// Losses from requests issued at or before the charged seq (10) are
	// the same congestion event: no further decrease.
	if a.cut(5, 12, false) || a.cut(10, 12, false) {
		t.Fatal("a second loss from the same epoch cut again")
	}
	if a.w != 8 {
		t.Fatalf("window moved to %.3f inside one epoch", a.w)
	}
	// A loss issued after the cut opens a new epoch; mark it ECN.
	if !a.cut(11, 20, true) {
		t.Fatal("loss from a fresh epoch refused to cut")
	}
	if a.w != 4 || a.ecnCuts != 1 {
		t.Fatalf("w=%.3f ecnCuts=%d after an ECN cut from 8, want 4/1", a.w, a.ecnCuts)
	}
	// Repeated epochs floor the window at one slot, never below.
	for seq := uint64(21); seq < 200; seq += 10 {
		a.cut(seq, seq+9, false)
		if a.size() < 1 {
			t.Fatalf("window fell below the one-slot floor: %.3f", a.w)
		}
	}
	if a.w != 1 {
		t.Fatalf("window %.3f after sustained loss, want the floor 1", a.w)
	}
}

// The ECN mark is a strict threshold on the completion-stamped backlog;
// a negative threshold disables marking entirely.
func TestAIMDWindowEcnMark(t *testing.T) {
	a := aimdWindow{w: 4, depth: 16, beta: 0.5, ecn: 25 * sim.Microsecond}
	if a.marked(25 * sim.Microsecond) {
		t.Fatal("backlog equal to the threshold marked")
	}
	if !a.marked(26 * sim.Microsecond) {
		t.Fatal("backlog above the threshold did not mark")
	}
	a.ecn = -1
	if a.marked(sim.Second) {
		t.Fatal("disabled ECN still marked")
	}
}

// A pipeline opens at the knee its server's fetch unit sets: every op
// costs one managed fetch, so on the default profile the 25 µs ECN mark
// is reached at 25 µs / 310 ns = 80 chains in flight. A shallower
// pipeline opens at its depth, and a reset reopens each at its start.
func TestAIMDWindowOpensAtFetchKnee(t *testing.T) {
	for _, tc := range []struct{ depth, want int }{
		{256, 80},
		{16, 16},
	} {
		tb := NewTestbed()
		cli := tb.NewPipelinedClient(tb.NewServer(), LookupSeq, tc.depth)
		for _, p := range cli.pipes {
			if got := p.win.size(); got != tc.want {
				t.Errorf("%d-deep %s pipeline opens at %d, want %d", tc.depth, p.name, got, tc.want)
			}
			p.win.w = 1
		}
		cli.reset()
		for _, p := range cli.pipes {
			if got := p.win.size(); got != tc.want {
				t.Errorf("%d-deep %s pipeline reopens at %d after a reset, want %d", tc.depth, p.name, got, tc.want)
			}
		}
	}
}

// openWindow reopens every pipeline's window of cli at start slots with
// ECN threshold ecn (negative disables ECN cuts).
func openWindow(cli *Client, start int, ecn Duration) {
	for _, p := range cli.pipes {
		p.win.w, p.win.start, p.win.ecn = float64(start), float64(start), ecn
	}
}

// An under-sized window converges up: on an uncongested
// connection clean acks grow it from one slot to the full depth, with
// no cuts along the way.
func TestWindowConvergesFromUndersizedStart(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(4096)
	for k := uint64(1); k <= 8; k++ {
		if err := table.Set(k, Value(k, 64)); err != nil {
			t.Fatal(err)
		}
	}
	cli := tb.NewPipelinedClient(srv, LookupSeq, 16)
	cli.Bind(table)
	// A negative ECN threshold isolates additive increase from this
	// run's incidental fetch-unit backlog; only losses could cut, and the
	// NIC is live.
	openWindow(cli, 1, -1)

	hits := 0
	for i := 0; i < 400; i++ {
		cli.GetAsync(uint64(i%8+1), 64, func(_ []byte, _ Duration, ok bool) {
			if ok {
				hits++
			}
		})
	}
	cli.Flush()
	tb.Run()

	if hits != 400 {
		t.Fatalf("%d of 400 gets hit on present keys", hits)
	}
	if st := cli.pipelineStats(pipeGet); st.Window != 16 {
		t.Fatalf("window %d after 400 clean acks from start 1, want the depth 16", st.Window)
	}
	if cuts, _, _ := cli.cuts(); cuts != 0 {
		t.Fatalf("%d cuts on an uncongested hit-only run", cuts)
	}
}

// An over-sized window converges down: a stream of losses (a frozen
// NIC drops every trigger, so no chain runs before its deadline) cuts
// it epoch by epoch to the one-slot floor, each cut attributed to a
// timeout. Each loss wedges its slot, so the pipeline is 16 deep under
// a window of 8: the slots beyond the window carry the later epochs.
func TestWindowConvergesFromOversizedStart(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1024)
	if err := table.Set(1, Value(1, 64)); err != nil {
		t.Fatal(err)
	}
	cli := tb.NewPipelinedClient(srv, LookupSeq, 16)
	cli.Bind(table)
	cli.missTimeout = 50 * sim.Microsecond
	openWindow(cli, 8, -1)

	srv.node.Dev.Freeze()
	fails := 0
	for i := 0; i < 60; i++ {
		cli.GetAsync(1, 64, func(_ []byte, _ Duration, ok bool) {
			if !ok {
				fails++
			}
		})
	}
	cli.Flush()
	tb.Run()

	if fails != 60 {
		t.Fatalf("%d of 60 gets to a frozen NIC failed", fails)
	}
	st := cli.pipelineStats(pipeGet)
	if st.Window != 1 {
		t.Fatalf("window %d after sustained losses from start 8, want the floor 1", st.Window)
	}
	cuts, ecnCuts, _ := cli.cuts()
	if cuts < 3 {
		t.Fatalf("%d cuts while converging 8 -> 1 at beta %.1f, want >= 3", cuts, defaultWindowBeta)
	}
	if ecnCuts != 0 {
		t.Fatalf("%d ECN cuts with ECN disabled; cuts must be timeout-attributed", ecnCuts)
	}
	srv.node.Dev.Unfreeze()
	cli.reset()
	if _, _, ok := cli.Get(1, 64); !ok {
		t.Fatal("hit failed after the NIC thawed and the connection reset")
	}
}

// A miss is an answer, not a loss: an absent key's chain runs and
// answers by silence, so a stream of misses leaves a window at its
// opening size, takes no cut and wedges no slot.
func TestAIMDWindowHoldsAcrossMisses(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1024)
	if err := table.Set(1, Value(1, 64)); err != nil {
		t.Fatal(err)
	}
	cli := tb.NewPipelinedClient(srv, LookupSeq, 8)
	cli.Bind(table)
	cli.missTimeout = 50 * sim.Microsecond

	misses := 0
	for i := 0; i < 60; i++ {
		cli.GetAsync(5000+uint64(i), 64, func(_ []byte, _ Duration, ok bool) {
			if !ok {
				misses++
			}
		})
	}
	cli.Flush()
	tb.Run()

	if misses != 60 {
		t.Fatalf("%d of 60 absent-key gets missed", misses)
	}
	if st := cli.pipelineStats(pipeGet); st.Window != 8 || st.Wedged != 0 {
		t.Fatalf("window %d, %d wedged after 60 misses; want the opening 8 and none", st.Window, st.Wedged)
	}
	if cuts, _, _ := cli.cuts(); cuts != 0 {
		t.Fatalf("%d window cuts on a miss-only stream", cuts)
	}
	if _, _, ok := cli.Get(1, 64); !ok {
		t.Fatal("hit failed after the misses")
	}
}

// Regression for the in-flight/wedged accounting fix: a quarantined
// slot must leave InFlight — the two counts are disjoint, and together
// with the free list they partition the depth exactly.
func TestPipelineStatsDisjointAccounting(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1024)
	for k := uint64(1); k <= 8; k++ {
		if err := table.Set(k, Value(k, 64)); err != nil {
			t.Fatal(err)
		}
	}
	cli := tb.NewPipelinedClient(srv, LookupSeq, 4)
	cli.Bind(table)
	cli.missTimeout = 50 * sim.Microsecond

	if _, _, ok := cli.Get(1, 64); !ok {
		t.Fatal("get missed on a healthy server")
	}
	if st := cli.pipelineStats(pipeGet); st.InFlight != 0 || st.Wedged != 0 {
		t.Fatalf("idle pipeline reports inflight=%d wedged=%d", st.InFlight, st.Wedged)
	}

	srv.node.Dev.Freeze()
	for i := 0; i < 32; i++ {
		cli.GetAsync(uint64(i%8+1), 64, func(_ []byte, _ Duration, ok bool) {
			if ok {
				t.Error("hit from a frozen NIC")
			}
			// The historically broken property: a wedged slot counted as
			// in flight too, so the sum exceeded the depth.
			if st := cli.pipelineStats(pipeGet); st.InFlight+st.Wedged > 4 {
				t.Errorf("inflight %d + wedged %d exceeds depth 4 — overlapping accounting",
					st.InFlight, st.Wedged)
			}
		})
	}
	cli.Flush()
	tb.Run()

	st := cli.pipelineStats(pipeGet)
	if st.Wedged != 4 || st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("after wedging all slots: inflight=%d queued=%d wedged=%d, want 0/0/4",
			st.InFlight, st.Queued, st.Wedged)
	}
	// The three populations partition the slots exactly.
	if got := cli.get.inFlight + len(cli.get.free) + cli.get.nWedged; got != 4 {
		t.Fatalf("inflight+free+wedged = %d, want the depth 4", got)
	}
}

// A reset — the reconnect after a server restart — fails each request
// in flight exactly once, at once, as never executed; frees every slot
// the dead NIC wedged; and restarts the window at its start value with
// its cut count kept. The connection then serves again.
func TestClientResetRestartsPipelines(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1024)
	for k := uint64(1); k <= 8; k++ {
		if err := table.Set(k, Value(k, 64)); err != nil {
			t.Fatal(err)
		}
	}
	cli := tb.NewPipelinedClient(srv, LookupSeq, 4)
	cli.Bind(table)
	cli.missTimeout = 50 * sim.Microsecond
	openWindow(cli, 4, -1)
	fails, ran := 0, 0
	cb := func(_ []byte, _ Duration, ok bool) {
		if ok {
			t.Error("hit from a frozen NIC")
		}
		fails++
		if cli.lastExecuted(pipeGet) {
			ran++
		}
	}
	get := func(n int) {
		for i := 0; i < n; i++ {
			cli.GetAsync(uint64(i+1), 64, cb)
		}
		cli.Flush()
	}

	srv.node.Dev.Freeze()
	get(2) // they time out, wedge their slots and cut the window
	tb.Run()
	get(2) // in flight at the reset
	tb.RunFor(10 * sim.Microsecond)
	st := cli.pipelineStats(pipeGet)
	cuts, _, _ := cli.cuts()
	if fails != 2 || st.Wedged != 2 || st.InFlight != 2 || cuts == 0 {
		t.Fatalf("setup: %d failed, %d wedged, %d in flight, %d cuts", fails, st.Wedged, st.InFlight, cuts)
	}
	srv.node.Dev.Unfreeze()
	cli.reset()
	st = cli.pipelineStats(pipeGet)
	if fails != 4 || ran != 0 {
		t.Fatalf("the reset failed %d of the 2 requests in flight (%d as executed)", fails-2, ran)
	}
	if after, _, _ := cli.cuts(); st.Wedged != 0 || st.InFlight != 0 || len(cli.get.free) != 4 || st.Window != 4 || after != cuts {
		t.Fatalf("after the reset: %d wedged, %d in flight, %d free, window %d, %d cuts (%d before)",
			st.Wedged, st.InFlight, len(cli.get.free), st.Window, after, cuts)
	}
	tb.Run() // the flushed requests' deadlines complete nothing twice
	if fails != 4 {
		t.Fatalf("%d completions for 4 requests", fails)
	}
	for k := uint64(1); k <= 8; k++ {
		if v, _, ok := cli.Get(k, 64); !ok || !bytes.Equal(v, Value(k, 64)) {
			t.Fatalf("get %d after the reset: ok=%v", k, ok)
		}
	}
}
