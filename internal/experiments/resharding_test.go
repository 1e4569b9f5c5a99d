package experiments

import (
	"testing"

	"repro/internal/sim"
)

// The resharding acceptance gate: a join and a drain complete under a
// live mixed workload with zero get-outage buckets, zero write-outage
// buckets, and every acknowledged key readable at its post-migration
// owners.
func TestReshardingGate(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("resharding timeline run")
	}
	r := reshardingRun(2*sim.Second, 125*sim.Millisecond, 400*sim.Microsecond,
		500*sim.Millisecond, 1200*sim.Millisecond)

	// Both membership changes ran to completion and the ring settled
	// back at four shards.
	if n := r.Metrics["migrations"]; n != 2 {
		t.Fatalf("%.0f migrations completed, want 2 (join + drain)", n)
	}
	if n := r.Metrics["shards_final"]; n != 4 {
		t.Fatalf("%.0f shards after join+drain, want 4", n)
	}
	if mk := r.Metrics["mig_keys_moved"]; mk == 0 {
		t.Fatal("migrations moved no keys — churn not exercised")
	}
	if pk := r.Metrics["peak_ring_nodes"]; pk != 5 {
		t.Fatalf("ring_nodes gauge peaked at %.0f, want 5 (the join is visible on the timeline)", pk)
	}

	// The headline acceptance: no outage on either path, no loss.
	if ob := r.Metrics["get_outage_buckets"]; ob != 0 {
		t.Fatalf("reads went dark for %.0f buckets during resharding, want 0", ob)
	}
	if ob := r.Metrics["set_outage_buckets"]; ob != 0 {
		t.Fatalf("writes went dark for %.0f buckets during resharding, want 0", ob)
	}
	if se := r.Metrics["set_errs"]; se != 0 {
		t.Fatalf("%.0f writes failed their quorum during resharding, want 0", se)
	}
	if ms := r.Metrics["post_missing"]; ms != 0 {
		t.Fatalf("%.0f acknowledged keys unreadable after both migrations, want 0", ms)
	}
	if st := r.Metrics["stale_after"]; st != 0 {
		t.Fatalf("%.0f stale replicas after both migrations, want 0", st)
	}
}
