package redn

import (
	"testing"

	"repro/internal/sim"
)

// Additive increase: 1/w per clean ack, monotone, capped at depth.
// From w=1 the cap is reached after ~(depth^2-1)/2 acks — the quadratic
// ramp that makes AIMD gentle near its operating point.
func TestAIMDWindowGrowth(t *testing.T) {
	a := aimdWindow{adaptive: true, w: 1, depth: 16, beta: defaultWindowBeta, ecn: defaultEcnBacklog}
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
	a := aimdWindow{adaptive: true, w: 16, depth: 16, beta: 0.5, ecn: defaultEcnBacklog}
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

// A pinned window (the default) is the fixed-K pipeline: size is always
// depth and every congestion signal is ignored.
func TestPinnedWindowIgnoresSignals(t *testing.T) {
	a := aimdWindow{w: 16, depth: 16, beta: 0.5, ecn: defaultEcnBacklog}
	if a.size() != 16 {
		t.Fatalf("pinned size %d, want depth 16", a.size())
	}
	a.onAck()
	if a.w != 16 {
		t.Fatalf("pinned window moved on ack: %.3f", a.w)
	}
	if a.cut(1, 2, false) {
		t.Fatal("pinned window took a cut")
	}
	if a.size() != 16 || a.cuts != 0 {
		t.Fatalf("pinned window changed state: size=%d cuts=%d", a.size(), a.cuts)
	}
	if a.marked(sim.Second) {
		t.Fatal("pinned window reported an ECN mark")
	}
}

// The ECN mark is a strict threshold on the completion-stamped backlog;
// a negative threshold disables marking entirely.
func TestAIMDWindowEcnMark(t *testing.T) {
	a := aimdWindow{adaptive: true, w: 4, depth: 16, beta: 0.5, ecn: 25 * sim.Microsecond}
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

// An under-sized adaptive window converges up: on an uncongested
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
	// Negative EcnBacklog isolates additive increase from this run's
	// incidental fetch-unit backlog; only timeouts could cut, and every
	// key is present.
	cli.configureWindow(windowConfig{Adaptive: true, Start: 1, EcnBacklog: -1})

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
	if cs := cli.Stats(); cs.WindowCuts != 0 {
		t.Fatalf("%d cuts on an uncongested hit-only run", cs.WindowCuts)
	}
}

// An over-sized adaptive window converges down: a stream of timeouts
// (absent keys execute their chains but never ack) cuts it epoch by
// epoch to the one-slot floor — and the connection still serves hits
// afterwards, since genuine misses never wedge slots.
func TestWindowConvergesFromOversizedStart(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1024)
	if err := table.Set(1, Value(1, 64)); err != nil {
		t.Fatal(err)
	}
	cli := tb.NewPipelinedClient(srv, LookupSeq, 8)
	cli.Bind(table)
	cli.MissTimeout = 50 * sim.Microsecond
	cli.configureWindow(windowConfig{Adaptive: true, Start: 8, EcnBacklog: -1})

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
	st := cli.pipelineStats(pipeGet)
	if st.Window != 1 {
		t.Fatalf("window %d after sustained timeouts from start 8, want the floor 1", st.Window)
	}
	cs := cli.Stats()
	if cs.WindowCuts < 3 {
		t.Fatalf("%d cuts while converging 8 -> 1 at beta %.1f, want >= 3", cs.WindowCuts, defaultWindowBeta)
	}
	if cs.EcnCuts != 0 {
		t.Fatalf("%d ECN cuts with ECN disabled; cuts must be timeout-attributed", cs.EcnCuts)
	}
	if cs.Wedged != 0 {
		t.Fatalf("%d slots wedged by ordinary misses", cs.Wedged)
	}
	if _, _, ok := cli.Get(1, 64); !ok {
		t.Fatal("hit failed after the window floored")
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
	cli.MissTimeout = 50 * sim.Microsecond

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

// Refactor safety for the unified pipeline: with the window pinned
// (explicitly or by default, knobs ignored either way) the same seeded
// workload is bit-identical run to run — counters and summed hit
// latency alike.
func TestPinnedWindowDeterminism(t *testing.T) {
	run := func(cfg *windowConfig) (ClientStats, Duration) {
		tb := NewTestbed()
		srv := tb.NewServer()
		table := srv.NewHashTable(1024)
		for k := uint64(1); k <= 32; k++ {
			if err := table.Set(k, Value(k, 64)); err != nil {
				t.Fatal(err)
			}
		}
		cli := tb.NewPipelinedClient(srv, LookupSeq, 8)
		cli.Bind(table)
		if cfg != nil {
			cli.configureWindow(*cfg)
		}
		var total Duration
		for i := 0; i < 200; i++ {
			// Every third key absent: exercise hit and timeout paths.
			key := uint64(i%48 + 1)
			cli.GetAsync(key, 64, func(_ []byte, lat Duration, ok bool) {
				if ok {
					total += lat
				}
			})
		}
		cli.Flush()
		tb.Run()
		if st := cli.pipelineStats(pipeGet); st.Window != 8 {
			t.Fatalf("pinned window %d, want depth 8", st.Window)
		}
		return cli.Stats(), total
	}

	base, latBase := run(nil)
	explicit, latExplicit := run(&windowConfig{})
	// Start/Beta are window-shape knobs; pinned windows ignore them.
	knobs, latKnobs := run(&windowConfig{Adaptive: false, Start: 3, Beta: 0.9})

	if base != explicit || latBase != latExplicit {
		t.Fatalf("explicit pinned config diverged from default:\n%+v lat %v\n%+v lat %v",
			base, latBase, explicit, latExplicit)
	}
	if base != knobs || latBase != latKnobs {
		t.Fatalf("pinned window honored AIMD knobs:\n%+v lat %v\n%+v lat %v",
			base, latBase, knobs, latKnobs)
	}
	if base.WindowCuts != 0 || base.EcnCuts != 0 {
		t.Fatalf("pinned run recorded cuts: %d/%d", base.WindowCuts, base.EcnCuts)
	}
}
