package experiments

import (
	"regexp"
	"testing"

	"repro"
	"repro/internal/workload"
)

// closedLoop builds the service cfg describes (cfg sets only what a
// comparison varies), preloads keys 1..10 000 with 64 B values, and
// drives requests gets through a closed loop as deep as all its
// pipelines together: uniform keys, or Zipfian (s = 1.1) when zipf.
// bench/'s read_uniform and hot_zipf_cached record this testbed's
// throughput in both clocks; the speedup tests keep the floors that
// sharding, pipelining, replica reads and the hot-key cache must clear.
func closedLoop(cfg redn.ServiceConfig, zipf bool, requests int) (workload.LoadReport, redn.ServiceStats) {
	cfg.Mode = redn.LookupSeq
	cfg.Buckets = 1 << 16
	cfg.MaxValLen = 256
	s := redn.NewServiceWith(cfg)
	keys := preloadKeys(s, 10000)
	// Utilization window starts after the host-path preload, so the
	// bottleneck report reflects the measured workload.
	s.MarkUtilization()
	var stream workload.KeyStream = &workload.Uniform{Keys: keys, Rng: workload.Rng(1)}
	if zipf {
		stream = workload.NewZipfian(keys, workload.DefaultZipfS, workload.Rng(1))
	}
	rep := workload.RunClosedLoop(s.Testbed().Engine(), s, workload.ClosedLoopConfig{
		Requests: requests,
		Window:   cfg.Shards * cfg.ClientsPerShard * cfg.Pipeline,
		Keys:     stream,
		ValLen:   64,
	})
	return rep, s.Stats()
}

// sharded is the 8-shard service of 2x16-deep pipelined clients.
func sharded() redn.ServiceConfig {
	return redn.ServiceConfig{Shards: 8, ClientsPerShard: 2, Pipeline: 16}
}

// The scale-out acceptance property: 8 shards of 16-deep pipelined
// clients must sustain at least 4x the aggregate gets/virtual-second of
// the single-server blocking path on the same workload. (Measured
// headroom is ~27x; 4x is the floor.)
func TestScaleOutSpeedup(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("scale-out run in -short mode")
	}
	block, _ := closedLoop(redn.ServiceConfig{Shards: 1, ClientsPerShard: 1, Pipeline: 1}, false, 8000)
	uni, st := closedLoop(sharded(), false, 8000)
	zip, _ := closedLoop(sharded(), true, 8000)
	blocking, shard8 := block.GetsPerSec, uni.GetsPerSec
	if blocking <= 0 || shard8 <= 0 {
		t.Fatalf("missing metrics: blocking=%v shard8=%v", blocking, shard8)
	}
	if speedup := shard8 / blocking; speedup < 4 {
		t.Fatalf("8-shard pipelined speedup %.1fx, want >= 4x (blocking %.0f/s, sharded %.0f/s)",
			speedup, blocking, shard8)
	}
	if zip.GetsPerSec <= 0 {
		t.Fatal("zipfian throughput missing")
	}
	// The bottleneck report must surface the saturated NIC resource for
	// the 8-shard run by name.
	if st.Bottleneck.Util <= 0 {
		t.Fatal("bottleneck utilization missing or zero")
	}
	re := regexp.MustCompile(`^shard\d+/port\d+/(fetch|pu\d+) \d+% busy`)
	if b := st.Bottleneck.String(); !re.MatchString(b) {
		t.Fatalf("8-shard uniform bottleneck %q names no NIC resource", b)
	}
}
