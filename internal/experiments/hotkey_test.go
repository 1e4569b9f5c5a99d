package experiments

import "testing"

// The hot-key acceptance property: on the 8-shard Zipfian (s = 1.1)
// workload that capped PR 1's scale-out, replica-read spreading plus
// the client-side hot-key cache must at least double throughput over
// the read-primary baseline measured in the same run. (Measured
// headroom is ~3.2x; 2x is the floor.)
func TestHotKeySpeedup(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("hot-key run in -short mode")
	}
	r := HotKeyN(8000)
	baseline := r.Metrics["baseline_gets_per_sec"]
	spread := r.Metrics["spread_gets_per_sec"]
	cached := r.Metrics["cached_gets_per_sec"]
	if baseline <= 0 || spread <= 0 || cached <= 0 {
		t.Fatalf("missing metrics: baseline=%v spread=%v cached=%v", baseline, spread, cached)
	}
	if x := cached / baseline; x < 2 {
		t.Fatalf("hot-spread+cache speedup %.2fx, want >= 2x (baseline %.0f/s, cached %.0f/s)",
			x, baseline, cached)
	}
	// Spreading alone must already relieve the hot shard.
	if x := spread / baseline; x < 1.1 {
		t.Fatalf("round-robin replica reads %.2fx baseline, want >= 1.1x", x)
	}
	if f := r.Metrics["cache_hit_fraction"]; f < 0.2 || f > 0.95 {
		t.Fatalf("cache hit fraction %.2f outside plausible Zipfian range", f)
	}
}
