package experiments

import (
	"regexp"
	"testing"
)

// The scale-out acceptance property: 8 shards of 16-deep pipelined
// clients must sustain at least 4x the aggregate gets/virtual-second of
// the single-server blocking path on the same workload. (Measured
// headroom is ~16x; 4x is the floor.)
func TestScaleOutSpeedup(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("scale-out run in -short mode")
	}
	r := ScaleOutN(8000)
	blocking := r.Metrics["blocking_gets_per_sec"]
	shard8 := r.Metrics["shard8_gets_per_sec"]
	if blocking <= 0 || shard8 <= 0 {
		t.Fatalf("missing metrics: blocking=%v shard8=%v", blocking, shard8)
	}
	if speedup := shard8 / blocking; speedup < 4 {
		t.Fatalf("8-shard pipelined speedup %.1fx, want >= 4x (blocking %.0f/s, sharded %.0f/s)",
			speedup, blocking, shard8)
	}
	if r.Metrics["zipf8_gets_per_sec"] <= 0 {
		t.Fatal("zipfian metric missing")
	}
	if _, ok := r.Metrics["speedup_8shard"]; !ok {
		t.Fatal("speedup metric missing")
	}
	// The bottleneck report must surface the saturated NIC resource for
	// the 8-shard run by name.
	if r.Metrics["shard8_bottleneck_util"] <= 0 {
		t.Fatal("bottleneck utilization metric missing or zero")
	}
	re := regexp.MustCompile(`8-shard uniform bottleneck: shard\d+/port\d+/(fetch|pu\d+) \d+% busy`)
	found := false
	for _, n := range r.Notes {
		if re.MatchString(n) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no bottleneck note naming a NIC resource in %q", r.Notes)
	}
}
