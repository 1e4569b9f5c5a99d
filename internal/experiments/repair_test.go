package experiments

import "testing"

// The repair acceptance gate (TestRepairGate of the issue): injected
// divergence — capacity rejections and crash-missed writes — converges
// to zero stale replicas via read-repair alone under a read workload,
// and via anti-entropy alone under zero reads, with get throughput at
// least 0.9x the repair-free baseline while probing every hit. The
// pre-repair baseline provably does NOT converge.
func TestRepairGate(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("repair timeline run")
	}
	r := repairRun(5000)

	// Both divergence kinds were genuinely injected.
	if r.Metrics["stale_inject_reject"] == 0 {
		t.Fatal("no rejection-era divergence injected — the fill phase never overflowed an owner")
	}
	if r.Metrics["stale_inject_crash"] == 0 {
		t.Fatal("no crash-era divergence injected — dropped hints left nothing stale")
	}

	// Read-repair alone converges, in bounded virtual time.
	if got := r.Metrics["stale_after_read_repair"]; got != 0 {
		t.Fatalf("%.0f stale replicas survived read-repair", got)
	}
	if ms := r.Metrics["read_repair_converge_ms"]; ms < 0 || ms > 500 {
		t.Fatalf("read-repair convergence took %.1fms, want bounded (0, 500]", ms)
	}
	if r.Metrics["probes"] == 0 || r.Metrics["probe_skews"] == 0 {
		t.Fatal("read-repair never probed / never saw skew")
	}
	if r.Metrics["repairs_applied_rr"] == 0 {
		t.Fatal("read-repair applied nothing")
	}

	// Anti-entropy alone converges with zero reads and zero probes —
	// starting from a real peak of divergence.
	if r.Metrics["stale_peak_ae"] == 0 {
		t.Fatal("the anti-entropy run never diverged — nothing was healed")
	}
	if got := r.Metrics["stale_after_ae"]; got != 0 {
		t.Fatalf("%.0f stale replicas survived anti-entropy", got)
	}
	if ms := r.Metrics["ae_converge_ms"]; ms < 0 || ms > 1000 {
		t.Fatalf("anti-entropy convergence took %.1fms, want bounded (0, 1000]", ms)
	}
	if r.Metrics["ae_passes"] == 0 || r.Metrics["ae_segs_diffed"] == 0 {
		t.Fatal("sweeper never ran / never flagged a segment")
	}
	if r.Metrics["ae_probes"] != 0 {
		t.Fatal("the zero-read phase issued probes — reads leaked in")
	}

	// The pre-repair baseline demonstrably stays diverged under the
	// very same read workload.
	if r.Metrics["stale_baseline"] == 0 {
		t.Fatal("the no-repair baseline converged by itself — the experiment proves nothing")
	}

	// Probes enabled (sampled every 8th hit, the production shape) cost
	// < 10% of get throughput; even probing EVERY hit must stay within
	// the NIC-work ratio a 4+6-WR chain implies (sanity floor).
	if ratio := r.Metrics["repair_get_ratio"]; ratio < 0.9 {
		t.Fatalf("gets with sampled probes at %.3fx the probe-free baseline, want >= 0.9", ratio)
	}
	if ratio := r.Metrics["repair_get_ratio_every_hit"]; ratio < 0.5 {
		t.Fatalf("gets with every-hit probes at %.3fx the baseline — probes cost more than their WR budget", ratio)
	}
}
