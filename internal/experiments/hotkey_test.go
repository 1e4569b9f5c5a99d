package experiments

import (
	"testing"

	"repro"
)

// The hot-key acceptance property: on the 8-shard Zipfian (s = 1.1)
// workload that caps scale-out, replica-read spreading plus the
// client-side hot-key cache must more than triple throughput over the
// read-primary baseline. (Measured 4.19x at 8 000 requests, with 0.52
// of gets served by the cache and each fabric get sent to the owner
// with the shortest queue.)
func TestHotKeySpeedup(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("hot-key run in -short mode")
	}
	read := func(replicas int, policy redn.ReadPolicy, cache int) (float64, float64) {
		cfg := sharded()
		cfg.Replicas, cfg.ReadPolicy, cfg.HotKeyCache = replicas, policy, cache
		rep, st := closedLoop(cfg, true, 8000)
		return rep.GetsPerSec, float64(st.CacheHits) / float64(rep.Gets)
	}
	baseline, _ := read(1, redn.ReadPrimary, 0)
	spread, _ := read(3, redn.ReadRoundRobin, 0)
	cached, hits := read(3, redn.ReadHotSpread, 64)
	if baseline <= 0 || spread <= 0 || cached <= 0 {
		t.Fatalf("missing metrics: baseline=%v spread=%v cached=%v", baseline, spread, cached)
	}
	t.Logf("cached/baseline %.2fx, cache hit fraction %.3f", cached/baseline, hits)
	if x := cached / baseline; x < 3.3 {
		t.Fatalf("hot-spread+cache speedup %.2fx, want >= 3.3x (baseline %.0f/s, cached %.0f/s)",
			x, baseline, cached)
	}
	// Spreading alone must already relieve the hot shard.
	if x := spread / baseline; x < 1.1 {
		t.Fatalf("round-robin replica reads %.2fx baseline, want >= 1.1x", x)
	}
	if hits < 0.48 || hits > 0.95 {
		t.Fatalf("cache hit fraction %.2f outside plausible Zipfian range", hits)
	}
}
