package experiments

import (
	"testing"

	"repro/internal/sim"
)

// The failover acceptance property, on a shortened timeline: a process
// crash without replicas blacks out the shard's keyspace for the full
// bootstrap + rebuild window, while replicas (ProcessCrash or OSPanic)
// and hull parents ride through with zero full-outage buckets.
func TestFailoverOutageBuckets(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("failover run in -short mode")
	}
	r := failoverRun(4*sim.Second, 250*sim.Millisecond, 400*sim.Microsecond,
		1*sim.Second)

	// Vanilla: ~2.25s of the ~3s post-crash window is dark.
	if got := r.Metrics["crash_norepl_outage_buckets"]; got < 8 {
		t.Errorf("unreplicated process crash: %v full-outage buckets, want >= 8 (~2.25s at 250ms)", got)
	}
	// The acceptance bar: OSPanic with replicas >= 2 loses nothing.
	if got := r.Metrics["ospanic_repl_outage_buckets"]; got != 0 {
		t.Errorf("os-panic with 2 replicas: %v full-outage buckets, want 0", got)
	}
	if got := r.Metrics["ospanic_repl_halfrate_buckets"]; got != 0 {
		t.Errorf("os-panic with 2 replicas: %v half-rate buckets, want 0", got)
	}
	// Replica failover holds availability through a real RDMA teardown.
	if got := r.Metrics["crash_repl_outage_buckets"]; got != 0 {
		t.Errorf("process crash with 2 replicas: %v full-outage buckets, want 0", got)
	}
	if got := r.Metrics["hull_outage_buckets"]; got != 0 {
		t.Errorf("hull-parent crash: %v full-outage buckets, want 0", got)
	}
	// Failover is doing real work: timeouts were retried on backups and
	// the crashed shard's clients reconnected after rebuild.
	if got := r.Metrics["crash_repl_retries"]; got < 1 {
		t.Errorf("replica failover recorded no retries (%v)", got)
	}
	if got := r.Metrics["crash_repl_rebuilds"]; got != 1 {
		t.Errorf("crashed shard rebuilds = %v, want 1", got)
	}
}
