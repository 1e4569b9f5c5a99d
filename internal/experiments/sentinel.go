package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro"
	"repro/internal/failure"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Sentinel exercises the always-on SLO sentinel + flight recorder
// against one healthy run and three injected faults, asserting the
// anomaly taxonomy is exact in both directions: each fault fires its
// own anomaly class (and only that class) with a well-formed incident
// bundle, and the healthy run fires nothing at all. A same-seed crash
// run is repeated to prove the first bundle is byte-deterministic, and
// the healthy run is repeated with the sentinel off to prove the
// recorder is free in virtual time (identical hit counts).
func Sentinel() *Result {
	r := &Result{ID: "sentinel",
		Title:  "SLO sentinel: injected faults versus fired anomaly classes",
		Header: []string{"classes fired", "incidents", "bundle", ""}}

	type scenario struct {
		name   string
		run    func() (*redn.Service, workload.OpenLoopReport)
		expect []string // exact fired-class set, sorted
	}
	scenarios := []scenario{
		{"healthy", sentinelHealthyRun, nil},
		{"crash", sentinelCrashRun, []string{"crash"}},
		{"overload", sentinelOverloadRun, []string{"overload"}},
		{"migration", sentinelMigrationRun, []string{"migration"}},
	}

	for _, sc := range scenarios {
		s, _ := sc.run()
		classes := anomalyClasses(s.Stats().Anomalies)
		exact := fmt.Sprint(classes) == fmt.Sprint(sc.expect)
		incidents := s.Incidents()
		bundle := "n/a"
		wellFormed := true
		if len(incidents) > 0 {
			wellFormed = bundleWellFormed(incidents[0])
			bundle = "ok"
			if !wellFormed {
				bundle = "MALFORMED"
			}
		}
		label := "none"
		if len(classes) > 0 {
			label = strings.Join(classes, ",")
		}
		r.Rows = append(r.Rows, Row{Label: sc.name,
			Cells: []string{label, fmt.Sprint(len(incidents)), bundle, ""}})
		ok := 0.0
		if exact && wellFormed {
			ok = 1
		}
		r.metric("sentinel_"+sc.name+"_exact", ok)
		r.metric("sentinel_"+sc.name+"_incidents", float64(len(incidents)))
	}

	// Byte-determinism: the same seeded crash run twice must freeze the
	// same first bundle, byte for byte.
	det := 0.0
	if a, b := firstBundleBytes(sentinelCrashRun), firstBundleBytes(sentinelCrashRun); a != nil && bytes.Equal(a, b) {
		det = 1
	}
	r.metric("sentinel_bundle_deterministic", det)

	// Recorder overhead: sampling is read-only, so the same seed with
	// the sentinel off must complete the identical hit count in the
	// identical virtual window — the fraction is exactly 1.
	_, on := sentinelHealthyRun()
	_, off := sentinelBaselineRun()
	parity := 0.0
	if off.Hits > 0 {
		parity = float64(on.Hits) / float64(off.Hits)
	}
	r.metric("sentinel_parity_frac", parity)

	r.Notes = append(r.Notes,
		"crash: shard0 process-crashes at t=5ms under r=2 round-robin gets; unexecuted-chain timeouts transition it to suspected (svc/suspects)",
		fmt.Sprintf("overload: 2x2x256-deep adaptive windows past capacity (%gx the measured capacity offered); the windows shed slots to ECN cuts (svc/ecn_shed) while goodput holds", sentinelOverload),
		"migration: a fifth shard joins at t=3ms with a throttled migrator (64 segments, 1 per 200us tick); the backlog level holds past the slow window while steady seals keep the stall rule dormant",
		"healthy: the same load with no fault fires zero anomalies; with the sentinel off entirely the run completes the identical hit count (parity 1.0)",
		fmt.Sprintf("rules evaluate fast/slow burn windows of %v/%v over a %v-tick metric ring; bundles snapshot the metric timelines, the bottleneck report and, on a traced run, the trace window the samples cover",
			redn.DefaultSLOFast, redn.DefaultSLOSlow, redn.DefaultSentinelEvery))
	return r
}

// anomalyClasses reduces an anomaly history to its sorted class set.
func anomalyClasses(as []telemetry.Anomaly) []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range as {
		if !seen[a.Class] {
			seen[a.Class] = true
			out = append(out, a.Class)
		}
	}
	sort.Strings(out)
	return out
}

// bundleWellFormed checks an incident bundle round-trips as JSON with
// the right schema tag, a non-empty metric timeline, and a balanced
// trace window (every async begin matched by an end).
func bundleWellFormed(inc *telemetry.Incident) bool {
	var buf bytes.Buffer
	if inc.WriteJSON(&buf) != nil || !json.Valid(buf.Bytes()) {
		return false
	}
	if inc.Schema != telemetry.IncidentSchema || len(inc.SampleTimes) == 0 || len(inc.Timeline) == 0 {
		return false
	}
	var tw struct {
		Events []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if json.Unmarshal(inc.Trace, &tw) != nil {
		return false
	}
	begins, ends := 0, 0
	for _, e := range tw.Events {
		switch e.Ph {
		case "b":
			begins++
		case "e":
			ends++
		}
	}
	return begins == ends
}

// firstBundleBytes runs a scenario and marshals its first incident.
func firstBundleBytes(run func() (*redn.Service, workload.OpenLoopReport)) []byte {
	s, _ := run()
	incs := s.Incidents()
	if len(incs) == 0 {
		return nil
	}
	var buf bytes.Buffer
	if incs[0].WriteJSON(&buf) != nil {
		return nil
	}
	return buf.Bytes()
}

// sentinelLoad paces a bucketed open loop with the sentinel's workload
// feed wired in.
func sentinelLoad(s *redn.Service, keys []uint64, dur, gap sim.Time, writeEvery int) workload.OpenLoopReport {
	return workload.RunOpenLoop(s.Testbed().Engine(), s, workload.OpenLoopConfig{
		Duration:   dur,
		Gap:        gap,
		Bucket:     sim.Millisecond,
		Keys:       &workload.Uniform{Keys: keys, Rng: workload.Rng(1)},
		ValLen:     64,
		WriteEvery: writeEvery,
		OnBucket:   s.FeedWorkloadBucket,
	})
}

// sentinelHealthyRun: moderate mixed load, no fault — the sentinel
// must stay silent.
func sentinelHealthyRun() (*redn.Service, workload.OpenLoopReport) {
	return sentinelHealthy(true)
}

// sentinelBaselineRun is the identical seeded run with the sentinel
// off — the virtual-time parity baseline.
func sentinelBaselineRun() (*redn.Service, workload.OpenLoopReport) {
	return sentinelHealthy(false)
}

func sentinelHealthy(sentinel bool) (*redn.Service, workload.OpenLoopReport) {
	s := redn.NewServiceWith(redn.ServiceConfig{
		Shards:          4,
		ClientsPerShard: 2,
		Pipeline:        16,
		Mode:            redn.LookupSeq,
		Replicas:        2,
		WriteQuorum:     2,
		ReadPolicy:      redn.ReadRoundRobin,
		Buckets:         1 << 14,
		MaxValLen:       256,
		Sentinel:        sentinel,
	})
	keys := preloadKeys(s, 2000)
	rep := sentinelLoad(s, keys, 20*sim.Millisecond, 4*sim.Microsecond, 4)
	return s, rep
}

// sentinelCrashRun: shard0 process-crashes mid-run; replicated
// round-robin gets fail over, and the unexecuted-chain timeouts drive
// exactly one healthy-to-suspected transition — the crash class. The
// run is traced, so its bundles carry their whole trace window.
func sentinelCrashRun() (*redn.Service, workload.OpenLoopReport) {
	return sentinelCrash(true)
}

func sentinelCrash(trace bool) (*redn.Service, workload.OpenLoopReport) {
	s := redn.NewServiceWith(redn.ServiceConfig{
		Shards:          4,
		ClientsPerShard: 2,
		Pipeline:        16,
		Mode:            redn.LookupSeq,
		Replicas:        2,
		ReadPolicy:      redn.ReadRoundRobin,
		Buckets:         1 << 14,
		MaxValLen:       256,
		Sentinel:        true,
		Trace:           trace,
	})
	keys := preloadKeys(s, 2000)
	s.CrashShard(0, failure.ProcessCrash, 5*sim.Millisecond)
	rep := sentinelLoad(s, keys, 20*sim.Millisecond, 4*sim.Microsecond, 0)
	return s, rep
}

// sentinelOverloadRun: 256-deep AIMD windows at sentinelOverload times
// the service's measured capacity — the sustained AIMD window-cut storm
// burns (overload class) while goodput holds, so neither the outage nor
// the crash detector has anything to say.
func sentinelOverloadRun() (*redn.Service, workload.OpenLoopReport) {
	cfg := redn.ServiceConfig{
		Shards:          2,
		ClientsPerShard: 2,
		Pipeline:        16,
		Mode:            redn.LookupSeq,
		Buckets:         1 << 14,
		MaxValLen:       256,
	}
	calib := redn.NewServiceWith(cfg)
	capacity := overloadCapacity(calib, preloadKeys(calib, overloadKeys), 6000)
	cfg.Pipeline, cfg.Sentinel = overloadDepth, true
	s := redn.NewServiceWith(cfg)
	keys := preloadKeys(s, overloadKeys)
	gap := sim.Time(float64(sim.Second) / (sentinelOverload * capacity))
	rep := sentinelLoad(s, keys, 8*sim.Millisecond, gap, 0)
	return s, rep
}

// sentinelOverload is the overload scenario's offered load, as a
// multiple of its measured capacity, so a cheaper chain cannot leave
// the scenario under capacity.
const sentinelOverload = 2.0

// sentinelMigrationRun: a fifth shard joins mid-run with a throttled
// migrator, holding the migration backlog level past the slow window
// (migration class) while steady segment seals keep the stall rule
// dormant.
func sentinelMigrationRun() (*redn.Service, workload.OpenLoopReport) {
	s := redn.NewServiceWith(redn.ServiceConfig{
		Shards:          4,
		ClientsPerShard: 2,
		Pipeline:        16,
		Mode:            redn.LookupSeq,
		Replicas:        2,
		WriteQuorum:     2,
		ReadPolicy:      redn.ReadRoundRobin,
		Buckets:         1 << 14,
		MaxValLen:       256,
		MigrateEvery:    200 * sim.Microsecond,
		MigrateBatch:    1,
		Sentinel:        true,
	})
	keys := preloadKeys(s, 2000)
	eng := s.Testbed().Engine()
	eng.At(eng.Now()+3*sim.Millisecond, func() {
		if err := s.AddShard("shard4"); err != nil {
			panic(fmt.Sprintf("sentinel: join refused: %v", err))
		}
	})
	rep := sentinelLoad(s, keys, 20*sim.Millisecond, 4*sim.Microsecond, 0)
	return s, rep
}

// WatchFault runs the crash scenario and writes its first incident
// bundle to w — the redn-bench -watch path CI validates and archives.
func WatchFault(w io.Writer) (redn.ServiceStats, error) {
	s, _ := sentinelCrashRun()
	st := s.Stats()
	incs := s.Incidents()
	if len(incs) == 0 {
		return st, fmt.Errorf("sentinel: crash scenario fired no incident")
	}
	return st, incs[0].WriteJSON(w)
}
