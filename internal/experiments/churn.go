package experiments

import (
	"fmt"

	"repro"
	"repro/internal/workload"
)

// Churn measures the extent lifecycle subsystem end to end: a
// sustained overwrite + delete workload over a fixed live set, where
// every set stages a fresh extent and every delete retires one: the NIC
// pointer CAS swaps the key's extent for its freed pointer, and its
// applied ack retires the extent, as an overwrite's ack retires the one
// it replaced.
//
//  1. Footprint — with the extent arena (each retired extent reused
//     as soon as no get can still read it) the server-side memory
//     footprint stays within a chunk of the live-set bytes no matter
//     how long the churn runs. The same workload on the pre-lifecycle
//     leak-forever allocator (NoReclaim) grows without bound.
//  2. Throughput — deletes ride the same pipelined fabric as sets
//     (real modeled latency, del p50 asserted fabric-real), and the
//     lifecycle machinery costs gets/sets almost nothing against a
//     delete-free mixed baseline.
func Churn() *Result {
	return churnRun(24000)
}

// churnKeys is the fixed live-set size per run: small relative to the
// write volume, because that disproportion is exactly what churn means
// — the leak baseline's footprint tracks cumulative writes while the
// arena's tracks the working set.
const churnKeys = 1000

// churnRun executes the three configurations with the given closed-loop
// request count (tests use a shorter run than the headline).
func churnRun(requests int) *Result {
	r := &Result{ID: "churn",
		Title:  "Overwrite+delete churn: extent arena versus the leak-forever allocator",
		Header: []string{"gets/s", "sets/s", "dels/s", "del p50", "foot/live", "(us)"}}

	run := func(noReclaim bool, deleteEvery int) (workload.LoadReport, redn.ServiceStats) {
		s := redn.NewServiceWith(redn.ServiceConfig{
			Shards:          8,
			ClientsPerShard: 2,
			Pipeline:        16,
			Mode:            redn.LookupSeq,
			Buckets:         1 << 16,
			MaxValLen:       256,
			NoReclaim:       noReclaim,
		})
		keys := preloadKeys(s, churnKeys)
		rep := workload.RunClosedLoop(s.Testbed().Engine(), s, workload.ClosedLoopConfig{
			Requests:    requests,
			Window:      8 * 2 * 16,
			Keys:        &workload.Uniform{Keys: keys, Rng: workload.Rng(1)},
			ValLen:      64,
			WriteEvery:  3,
			DeleteEvery: deleteEvery,
		})
		return rep, s.Stats()
	}

	// foot/live compares the arena's (monotone) footprint against the
	// high-water live bytes — the working-set size. End-of-run live is
	// the wrong denominator: deletes shrink it, while the free stacks
	// keep retired extents on hand by design.
	ratio := func(st redn.ServiceStats) float64 {
		if st.ArenaPeakLive == 0 {
			return 0
		}
		return float64(st.ArenaPeak) / float64(st.ArenaPeakLive)
	}

	// Delete-free mixed baseline: what gets/sets cost WITHOUT the
	// lifecycle machinery exercising deletes (same arena, same config).
	base, _ := run(false, 0)
	r.Rows = append(r.Rows, Row{
		Label: "8 shards, 33% writes, no deletes (baseline)",
		Cells: []string{kops(base.GetsPerSec), kops(base.SetsPerSec), "-", "-", "-", ""}})

	// The headline: churn with the full lifecycle subsystem.
	churn, st := run(false, 6)
	r.Rows = append(r.Rows, Row{
		Label: "8 shards, +17% deletes, extent arena",
		Cells: []string{kops(churn.GetsPerSec), kops(churn.SetsPerSec), kops(churn.DelsPerSec),
			us(churn.DelP50), fmt.Sprintf("%.2f", ratio(st)), ""}})

	// The counterfactual: the same churn on the leak-forever allocator.
	leak, lst := run(true, 6)
	r.Rows = append(r.Rows, Row{
		Label: "8 shards, +17% deletes, leak-forever (pre-lifecycle)",
		Cells: []string{kops(leak.GetsPerSec), kops(leak.SetsPerSec), kops(leak.DelsPerSec),
			us(leak.DelP50), fmt.Sprintf("%.2f", ratio(lst)), ""}})

	r.metric("churn_gets_per_sec", churn.GetsPerSec)
	r.metric("churn_sets_per_sec", churn.SetsPerSec)
	r.metric("churn_dels_per_sec", churn.DelsPerSec)
	r.metric("churn_del_p50_us", churn.DelP50.Micros())
	r.metric("churn_del_p99_us", churn.DelP99.Micros())
	r.metric("churn_del_errs", float64(churn.DelErrs))
	r.metric("churn_footprint_ratio", ratio(st))
	r.metric("churn_peak_arena_bytes", float64(st.ArenaPeak))
	r.metric("churn_live_bytes", float64(st.ArenaLive))
	r.metric("churn_peak_live_bytes", float64(st.ArenaPeakLive))
	r.metric("leak_footprint_ratio", ratio(lst))
	r.metric("leak_peak_arena_bytes", float64(lst.ArenaPeak))
	r.metric("gc_freed", float64(st.GCFreed))
	r.metric("fabric_deletes", float64(st.FabricDeletes))
	r.metric("host_deletes", float64(st.HostDeletes))
	opsPerSec := func(rep workload.LoadReport) float64 {
		if rep.Elapsed <= 0 {
			return 0
		}
		return float64(rep.Gets+rep.Sets+rep.Dels) / rep.Elapsed.Seconds()
	}
	// What the lifecycle machinery costs, like for like: the arena run
	// against the leak-forever run on the identical op stream, where
	// reclamation is the only difference.
	if leak.GetsPerSec > 0 {
		r.metric("lifecycle_get_ratio", churn.GetsPerSec/leak.GetsPerSec)
	}
	if lo := opsPerSec(leak); lo > 0 {
		r.metric("lifecycle_ops_ratio", opsPerSec(churn)/lo)
	}
	// The churn mix against the delete-free one, reported: gets are the
	// same fraction of both mixes, so gets/s compares directly; sets are
	// HALF the churn mix (deletes take the other half of the write
	// slots), so sets compare by latency and by total operation rate.
	// Not a lifecycle cost: the mixes differ, and an overwrite is a
	// cheaper chain than a delete or a fresh claim.
	if base.GetsPerSec > 0 {
		r.metric("churn_get_ratio", churn.GetsPerSec/base.GetsPerSec)
	}
	if bo := opsPerSec(base); bo > 0 {
		r.metric("churn_ops_ratio", opsPerSec(churn)/bo)
	}
	if base.SetP50 > 0 {
		r.metric("churn_set_p50_ratio", float64(churn.SetP50)/float64(base.SetP50))
	}

	r.Notes = append(r.Notes,
		fmt.Sprintf("uniform %dK-key 64B closed loop; every 3rd op a set, every 6th a delete (delete checked first): ~17%% dels, ~17%% sets", churnKeys/1000),
		"foot/live = arena footprint over peak live bytes (the working set); the arena bounds it by reusing each retired extent once no get can still read it",
		fmt.Sprintf("arena: peak %d KiB vs %d KiB live; leak-forever peak %d KiB and still growing linearly with writes",
			st.ArenaPeak/1024, st.ArenaLive/1024, lst.ArenaPeak/1024),
		fmt.Sprintf("applied fabric deletes retired %d extents", st.GCFreed),
		"deletes travel the NIC pointer CAS (extent -> the key's freed pointer; the ack carries the pointer found); del p50 is fabric-real, asserted like set p50")
	return r
}
