package experiments

import (
	"fmt"

	"repro"
	"repro/internal/failure"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Failover shards the Fig 16 hull-parent story: one of four server
// nodes crashes mid-run and the timeline tracks the hit rate of the
// keys that shard primarily owns. Without replicas, a process crash
// (whose OS reclaims the RDMA resources) blacks those keys out for the
// full bootstrap + rebuild window. With replicas and read spreading,
// timeouts fail gets over to backup owners — a circuit breaker keeps
// later gets off the dead shard — and the keyspace stays available.
// An OS panic never interrupts service at all: nothing frees the NIC's
// resources, so pre-armed chains keep answering (Table 6's premise),
// exactly like a process crash under a hull parent.
func Failover() *Result {
	return failoverRun(6*sim.Second, 250*sim.Millisecond, 200*sim.Microsecond,
		1500*sim.Millisecond)
}

// failoverRun executes the four crash scenarios over one timeline
// geometry (tests use a shorter window than the headline run).
func failoverRun(duration, bucket, gap, crashAt sim.Time) *Result {
	r := &Result{ID: "failover",
		Title: "Hit rate of the crashed shard's keys across a node failure (normalized)",
		Header: []string{"crash r=1", "crash r=2", "hull r=1", "panic r=2",
			"(fraction of steady rate)"}}

	type cfg struct {
		name     string
		kind     failure.Kind
		replicas int
		policy   redn.ReadPolicy
		hull     bool
		metric   string
	}
	cfgs := []cfg{
		{"process-crash, 1 replica", failure.ProcessCrash, 1, redn.ReadPrimary, false, "crash_norepl"},
		{"process-crash, 2 replicas, spread", failure.ProcessCrash, 2, redn.ReadRoundRobin, false, "crash_repl"},
		{"process-crash, hull parent", failure.ProcessCrash, 1, redn.ReadPrimary, true, "hull"},
		{"os-panic, 2 replicas, spread", failure.OSPanic, 2, redn.ReadRoundRobin, false, "ospanic_repl"},
	}

	const nKeys = 4000
	nb := int(duration / bucket)
	crashIdx := int(crashAt / bucket)
	series := make([][]float64, len(cfgs))

	for ci, c := range cfgs {
		s := redn.NewServiceWith(redn.ServiceConfig{
			Shards:          4,
			ClientsPerShard: 2,
			Pipeline:        16,
			Mode:            redn.LookupSeq,
			Replicas:        c.replicas,
			ReadPolicy:      c.policy,
			HullParent:      c.hull,
			Buckets:         1 << 16,
			MaxValLen:       256,
		})
		keys := preloadKeys(s, nKeys)
		crashed := s.ShardID(0)
		s.CrashShard(0, c.kind, crashAt)
		rep := workload.RunOpenLoop(s.Testbed().Engine(), s, workload.OpenLoopConfig{
			Duration: duration,
			Gap:      gap,
			Bucket:   bucket,
			Keys:     &workload.Uniform{Keys: keys, Rng: workload.Rng(1)},
			ValLen:   64,
			Classes:  2,
			Classify: func(key uint64) int {
				if s.Owners(key)[0] == crashed {
					return 0 // the affected keyspace
				}
				return 1
			},
		})

		// Normalize the affected-key series to its pre-crash steady rate.
		affected := rep.Series[0]
		steady := 0.0
		if crashIdx > 1 {
			for _, v := range affected[1:crashIdx] {
				steady += v
			}
			steady /= float64(crashIdx - 1)
		}
		if steady == 0 {
			steady = 1
		}
		norm := make([]float64, nb)
		for i, v := range affected {
			norm[i] = v / steady
		}
		series[ci] = norm

		r.metric(c.metric+"_outage_buckets",
			float64(rep.BucketsBelow(0, crashIdx, nb, 0.5)))
		r.metric(c.metric+"_halfrate_buckets",
			float64(rep.BucketsBelow(0, crashIdx, nb, steady/2)))
		if c.metric == "crash_repl" {
			st := s.Stats()
			r.metric("crash_repl_retries", float64(st.Retries))
			r.metric("crash_repl_rebuilds", float64(st.Shards[0].Rebuilds))
		}
	}

	for b := 0; b < nb; b++ {
		t := sim.Time(b) * bucket
		cells := make([]string, 0, len(cfgs)+1)
		for ci := range cfgs {
			cells = append(cells, fmt.Sprintf("%.2f", series[ci][b]))
		}
		cells = append(cells, "")
		r.Rows = append(r.Rows, Row{Label: fmt.Sprintf("t=%.2fs", t.Seconds()), Cells: cells})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("4 shards x 2x16-deep clients, uniform 4K-key 64B gets paced at %v; shard0 crashes at t=%v", gap, crashAt),
		"crash r=1: OS reclaims RDMA resources; the shard's keys black out for bootstrap+rebuild (~2.25s), then clients reconnect",
		"crash r=2: timeouts fail gets over to the backup owner and a circuit breaker dodges the dead shard — no outage",
		"hull/panic: nothing frees the NIC's resources, so pre-armed chains keep serving through the host failure")
	return r
}
