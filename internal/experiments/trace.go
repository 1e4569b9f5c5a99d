package experiments

import (
	"fmt"
	"io"

	"repro"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TraceMixed runs a short replicated mixed workload — gets, sets,
// deletes, and the read-repair probes replication triggers — with
// WR-level tracing enabled, and returns the tracer holding the
// complete span record plus the run's service stats (the utilization
// report rides on the stats). The run is deterministic: same seed,
// same virtual clock, byte-identical trace JSON every time — which is
// what makes the trace artifact diffable across commits.
func TraceMixed() (*telemetry.Tracer, redn.ServiceStats) {
	s := redn.NewServiceWith(redn.ServiceConfig{
		Shards:          2,
		ClientsPerShard: 2,
		Pipeline:        8,
		Mode:            redn.LookupSeq,
		Replicas:        2,
		WriteQuorum:     2,
		ReadPolicy:      redn.ReadRoundRobin,
		ReadRepair:      true,
		ProbeEvery:      2,
		Buckets:         1 << 14,
		MaxValLen:       256,
		Trace:           true,
	})
	keys := preloadKeys(s, 512)
	s.MarkUtilization()
	workload.RunClosedLoop(s.Testbed().Engine(), s, workload.ClosedLoopConfig{
		Requests:    2000,
		Window:      2 * 2 * 8,
		Keys:        &workload.Uniform{Keys: keys, Rng: workload.Rng(1)},
		ValLen:      64,
		WriteEvery:  4,
		DeleteEvery: 9,
	})
	return s.Tracer(), s.Stats()
}

// WriteTrace runs TraceMixed and streams its trace-event JSON to w,
// returning the run's stats for the bottleneck line redn-bench prints
// next to the artifact.
func WriteTrace(w io.Writer) (redn.ServiceStats, error) {
	tr, st := TraceMixed()
	if err := tr.WriteJSON(w); err != nil {
		return st, err
	}
	return st, nil
}

// UtilizationSummary renders a stats' resource report as the
// "bottleneck: shard0/port0/pu1 97% busy" line plus the top busiest
// resources, for redn-bench and the CI step summary.
func UtilizationSummary(st redn.ServiceStats, top int) string {
	if len(st.Resources) == 0 {
		return "bottleneck: none (no resource activity)"
	}
	out := "bottleneck: " + st.Bottleneck.String()
	// Highest utilization first; name breaks ties for determinism.
	for _, r := range telemetry.TopUtil(st.Resources, top) {
		out += fmt.Sprintf("\n  %-28s %5.1f%% busy  (%d grants)",
			r.Name, r.Util*100, r.Grants)
	}
	return out
}
