package experiments

import (
	"fmt"

	"repro"
	"repro/internal/failure"
	"repro/internal/sim"
	"repro/internal/workload"
)

// MixedWorkload measures the fabric write path end to end:
//
//  1. Scaling — a closed-loop 90/10 get/set mix from 1 to 8 shards.
//     Sets are NIC CAS-claim chains with real modeled latency (the
//     set_p50_us metric is asserted nonzero), and write throughput
//     scales with shard count like reads.
//  2. Availability — an open-loop 50/50 mix through a process crash
//     under two quorum settings. With W < N the surviving owners
//     acknowledge every write and hinted handoff repairs the dead one
//     at recovery: zero write-outage buckets. With W = N every write
//     touching the crashed owner fails until recovery: a dark window.
func MixedWorkload() *Result {
	return mixedRun(24000, 6*sim.Second, 250*sim.Millisecond, 200*sim.Microsecond,
		1500*sim.Millisecond)
}

// mixedKeys is the preloaded key-set size per run.
const mixedKeys = 10000

// mixedRun executes both halves with the given closed-loop request
// count and open-loop timeline geometry (tests use a shorter window
// than the headline run).
func mixedRun(requests int, duration, bucket, gap, crashAt sim.Time) *Result {
	r := &Result{ID: "mixed",
		Title:  "Mixed get/set through the fabric write path: scaling, then a crash under W-of-N quorums",
		Header: []string{"gets/s", "sets/s", "set p50", "set p99", "w-outage", "(us)"}}

	// ---- Part 1: mixed-throughput scaling, 10% writes ----

	var sets1, sets8 float64
	for _, nShards := range []int{1, 2, 4, 8} {
		s := redn.NewServiceWith(redn.ServiceConfig{
			Shards:          nShards,
			ClientsPerShard: 2,
			Pipeline:        16,
			Mode:            redn.LookupSeq,
			Buckets:         1 << 16,
			MaxValLen:       256,
		})
		keys := preloadKeys(s, mixedKeys)
		rep := workload.RunClosedLoop(s.Testbed().Engine(), s, workload.ClosedLoopConfig{
			Requests:   requests,
			Window:     nShards * 2 * 16,
			Keys:       &workload.Uniform{Keys: keys, Rng: workload.Rng(1)},
			ValLen:     64,
			WriteEvery: 10,
		})
		r.Rows = append(r.Rows, Row{
			Label: fmt.Sprintf("%d shard(s), 2x16 deep, 10%% writes", nShards),
			Cells: []string{kops(rep.GetsPerSec), kops(rep.SetsPerSec),
				us(rep.SetP50), us(rep.SetP99), "-", ""}})
		if rep.SetErrs > 0 || rep.Misses > 0 {
			r.Notes = append(r.Notes, fmt.Sprintf("%d shards: %d set errs, %d misses",
				nShards, rep.SetErrs, rep.Misses))
		}
		switch nShards {
		case 1:
			sets1 = rep.SetsPerSec
			r.metric("sets_per_sec_1shard", rep.SetsPerSec)
		case 8:
			sets8 = rep.SetsPerSec
			r.metric("sets_per_sec_8shard", rep.SetsPerSec)
			r.metric("gets_per_sec_8shard_mixed", rep.GetsPerSec)
			r.metric("set_p50_us", rep.SetP50.Micros())
			r.metric("set_p99_us", rep.SetP99.Micros())
			r.metric("get_p99_us_mixed", rep.P99.Micros())
		}
	}
	if sets1 > 0 {
		r.metric("write_scaling_8shard", sets8/sets1)
	}

	// ---- Part 2: write availability through a crash, 50% writes ----

	const availKeys = 4000
	nb := int(duration / bucket)
	crashIdx := int(crashAt / bucket)

	type cfg struct {
		name   string
		quorum int
		metric string
	}
	for _, c := range []cfg{
		{"W=2 of 3 (quorum + handoff)", 2, "quorum"},
		{"W=3 of 3 (write-all)", 3, "writeall"},
	} {
		s := redn.NewServiceWith(redn.ServiceConfig{
			Shards:          4,
			ClientsPerShard: 2,
			Pipeline:        16,
			Mode:            redn.LookupSeq,
			Replicas:        3,
			WriteQuorum:     c.quorum,
			ReadPolicy:      redn.ReadRoundRobin,
			Buckets:         1 << 16,
			MaxValLen:       256,
		})
		akeys := preloadKeys(s, availKeys)
		crashed := s.ShardID(0)
		s.CrashShard(0, failure.ProcessCrash, crashAt)
		rep := workload.RunOpenLoop(s.Testbed().Engine(), s, workload.OpenLoopConfig{
			Duration:   duration,
			Gap:        gap,
			Bucket:     bucket,
			Keys:       &workload.Uniform{Keys: akeys, Rng: workload.Rng(1)},
			ValLen:     64,
			WriteEvery: 2,
			Classes:    2,
			Classify: func(key uint64) int {
				for _, id := range s.Owners(key) {
					if id == crashed {
						return 0 // writes that must touch the crashed owner
					}
				}
				return 1
			},
			// Sample the service's queue-depth gauges once per timeline
			// bucket: the hint-queue swell sits under the outage dip.
			Gauges: s.Metrics().Gauges(),
		})
		outage := rep.SetBucketsBelow(0, crashIdx, nb, 0.5)
		st := s.Stats()
		for g, name := range rep.GaugeNames {
			if name != "svc/hints_pending" {
				continue
			}
			peak := 0.0
			for _, v := range rep.GaugeSeries[g] {
				if v > peak {
					peak = v
				}
			}
			r.metric(c.metric+"_peak_hints_pending", peak)
		}
		r.Rows = append(r.Rows, Row{
			Label: fmt.Sprintf("4 shards r=3 %s, crash", c.name),
			Cells: []string{"-", kops(float64(rep.SetsAcked) / duration.Seconds()),
				"-", "-", fmt.Sprintf("%d", outage), ""}})
		r.metric(c.metric+"_write_outage_buckets", float64(outage))
		r.metric(c.metric+"_set_errs", float64(rep.SetErrs))
		r.metric(c.metric+"_hints_applied", float64(st.HintsApplied))
		r.Notes = append(r.Notes, fmt.Sprintf(
			"%s: %d/%d writes acked, %d failed, hints queued/applied/dropped %d/%d/%d",
			c.name, rep.SetsAcked, rep.SetsIssued, rep.SetErrs,
			st.HintsQueued, st.HintsApplied, st.HintsDropped))
	}

	r.Notes = append(r.Notes,
		"part 1: uniform 10K-key 64B closed loop, every 10th op a set; sets travel the NIC CAS-claim chain (nonzero p50 asserted)",
		fmt.Sprintf("part 2: uniform 4K-key open loop paced at %v, every 2nd op a set; shard0 crashes at t=%v (process crash, NIC frozen)", gap, crashAt),
		"w-outage counts post-crash buckets with zero acked writes among keys owned by the crashed shard",
		"W<N: surviving owners ack, handoff repairs the dead owner at recovery; W=N: writes stay dark until reconnect+drain")
	return r
}
