package experiments

import (
	"testing"

	"repro/internal/sim"
)

// The mixed-workload acceptance gate: sets go through the fabric (real
// modeled latency), write throughput scales with shards, and quorum
// writes with hinted handoff keep the write path available through a
// crash that blacks out write-all.
func TestMixedWorkloadGate(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("mixed timeline run")
	}
	r := mixedRun(6000, 3*sim.Second, 250*sim.Millisecond, 400*sim.Microsecond,
		750*sim.Millisecond)

	// The write path is a fabric round trip, not a free host mutation.
	if p50 := r.Metrics["set_p50_us"]; p50 <= 0 {
		t.Fatalf("set p50 %.3fus — writes look instantaneous, not fabric-modeled", p50)
	}
	// At closed-loop saturation a set queues behind the 16-deep
	// pipeline like a get does, so its p50 is tens of microseconds —
	// but it must stay meaningfully below the 200us miss timeout, or
	// the "latency" would just be claim failures timing out.
	if p50 := r.Metrics["set_p50_us"]; p50 < 1 || p50 > 180 {
		t.Fatalf("set p50 %.3fus outside the plausible fabric window", p50)
	}

	// Write throughput scales out with shards.
	if sc := r.Metrics["write_scaling_8shard"]; sc < 3 {
		t.Fatalf("8-shard write scaling %.2fx, want >= 3x", sc)
	}

	// Quorum + handoff: zero write-outage buckets through the crash.
	if ob := r.Metrics["quorum_write_outage_buckets"]; ob != 0 {
		t.Fatalf("W<N write path went dark for %.0f buckets, want 0", ob)
	}
	// Write-all: the crashed owner's keys black out until recovery.
	if ob := r.Metrics["writeall_write_outage_buckets"]; ob < 1 {
		t.Fatalf("W=N write path shows %.0f outage buckets, want >= 1", ob)
	}
	// The dead owner was repaired by handoff, not abandoned.
	if ha := r.Metrics["quorum_hints_applied"]; ha == 0 {
		t.Fatal("no hints applied after recovery under W<N")
	}
}
