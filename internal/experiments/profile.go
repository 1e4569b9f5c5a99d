package experiments

import (
	"fmt"
	"io"

	"repro"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// profileMixed runs the TraceMixed workload shape — replicated gets,
// sets, deletes, and the read-repair probes replication triggers —
// with latency provenance and the virtual-time profiler on instead of
// the tracer. It returns the profiler (every resource-busy nanosecond
// attributed to an op-class/shard/resource stack), the provenance
// aggregator (the per-class phase decomposition), and the run's
// service stats. Deliberately no MarkUtilization: the profiler
// attributes from t=0, so leaving the resource report unwindowed keeps
// the invariant checkable that the profiler's exec total equals the
// summed resource busy time exactly.
func profileMixed() (*telemetry.Profiler, *telemetry.Provenance, redn.ServiceStats) {
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
		Provenance:      true,
		Profile:         true,
	})
	keys := preloadKeys(s, 512)
	workload.RunClosedLoop(s.Testbed().Engine(), s, workload.ClosedLoopConfig{
		Requests:    2000,
		Window:      2 * 2 * 8,
		Keys:        &workload.Uniform{Keys: keys, Rng: workload.Rng(1)},
		ValLen:      64,
		WriteEvery:  4,
		DeleteEvery: 9,
	})
	return s.Profiler(), s.Provenance(), s.Stats()
}

// WriteProfile runs profileMixed and streams its folded-stack profile
// ("class;shard;resource;exec|wait <ns>" lines, flamegraph-loadable)
// to w, returning the profiler and stats for the reconciliation line
// redn-bench prints next to the artifact, and the provenance
// aggregator for the decomposition report.
func WriteProfile(w io.Writer) (*telemetry.Profiler, *telemetry.Provenance, redn.ServiceStats, error) {
	p, prov, st := profileMixed()
	return p, prov, st, p.WriteFolded(w)
}

// resourceBusyTotal sums the busy time of every resource in a stats'
// report — the quantity the profiler's exec total must reconcile with
// when the report is unwindowed (no MarkUtilization).
func resourceBusyTotal(st redn.ServiceStats) int64 {
	var n int64
	for _, r := range st.Resources {
		n += int64(r.Busy)
	}
	return n
}

// ProfileSummary renders the reconciliation line for a profiled run:
// folded frame count, the profiler's attributed exec total, and the
// resource report's busy total — equal by construction, printed so CI
// can assert it from the artifact alone.
func ProfileSummary(p *telemetry.Profiler, st redn.ServiceStats) string {
	return fmt.Sprintf("profile: frames=%d exec-total-ns=%d resource-busy-ns=%d",
		p.Frames(), int64(p.ExecTotal()), resourceBusyTotal(st))
}
