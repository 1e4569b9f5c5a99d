package experiments

import (
	"fmt"

	"repro"
	"repro/internal/failure"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Repair measures the replica repair subsystem end to end:
//
//  1. Divergence — genuine rejection-era divergence (fresh inserts into
//     a near-full ring apply on one owner and are refused by the
//     other) plus genuine crash-era divergence (overwrites during a
//     process crash whose handoff hints are then lost), counted as
//     stale (owner, key) replicas against the versions the owners
//     hold (a value's header, or the delete an owner recorded).
//  2. Convergence — the same injected divergence driven to ZERO stale
//     replicas two independent ways: by read-repair alone (NIC version
//     probes on every replicated hit under a read-only workload, with
//     repair records rolling laggards forward) and by anti-entropy alone
//     (zero reads; segment-digest sweeps find the divergent keys). The
//     pre-repair baseline (NoRepair) demonstrably does neither.
//  3. Cost — get throughput with a probe on every 8th replicated hit
//     stays within 10% of the probe-free baseline (a probe is two
//     client READs, no managed fetch on the partner's NIC).
func Repair() *Result {
	return repairRun(12000)
}

// repairGeom is the divergence testbed: a small ring whose capacity the
// fill phase can genuinely exhaust.
const (
	repairShards  = 4
	repairBuckets = 512
	repairPre     = 600  // healthy preload: keys 1..600
	repairFillLo  = 601  // fill phase: fresh inserts into the near-full ring
	repairFillHi  = 1000 //   ... driving genuine capacity rejections (~98% load)
	repairCrashLo = 451  // crash-era overwrites (survive the capacity free)
	repairCrashHi = 600
	repairFreeHi  = 450 // keys 1..450 deleted, leaving real slack for repairs
)

// buildRepairService builds the divergence testbed. mode selects the
// convergence machinery under test.
func buildRepairService(readRepair, antiEntropy, noRepair bool) *redn.Service {
	return redn.NewServiceWith(redn.ServiceConfig{
		Shards:          repairShards,
		ClientsPerShard: 1,
		Pipeline:        8,
		Mode:            redn.LookupSeq,
		Replicas:        2,
		WriteQuorum:     1,
		ReadPolicy:      redn.ReadRoundRobin,
		Buckets:         repairBuckets,
		MaxValLen:       64,
		ReadRepair:      readRepair,
		NoRepair:        noRepair,
		AntiEntropyEvery: func() sim.Time {
			if antiEntropy {
				return 500 * sim.Microsecond
			}
			return 0
		}(),
		AntiEntropySegments: 32,
	})
}

// injectDivergence drives the testbed into a genuinely diverged state
// and returns the key sets to track: rejection-era keys (fresh inserts
// partially applied) and crash-era keys (overwrites whose hints were
// lost). No simulator back doors: every stale replica got that way
// through the real write path.
func injectDivergence(s *redn.Service) (rejectKeys, crashKeys []uint64, peak int) {
	// Healthy preload at ~59% of ring capacity.
	for k := uint64(1); k <= repairPre; k++ {
		s.Set(k, redn.Value(k, 64))
	}
	// Fill far past capacity: W=1 writes ack from whichever owner still
	// has room; the other owner's rejection is the divergence. Writes
	// refused by BOTH owners fail their quorum outright (tolerated —
	// those keys simply don't exist).
	for k := uint64(repairFillLo); k <= repairFillHi; k++ {
		s.Set(k, redn.Value(k, 64))
		rejectKeys = append(rejectKeys, k)
	}
	// Crash one shard, overwrite the crash window's keys (the live
	// owner acks the W=1 quorum; the dead one accumulates hints), then
	// LOSE the hints — the bounded-hint-queue overflow every
	// Dynamo-style system suffers — and ride past recovery.
	s.CrashShard(0, failure.ProcessCrash, s.Now()+sim.Microsecond)
	s.Testbed().RunFor(sim.Millisecond)
	for k := uint64(repairCrashLo); k <= repairCrashHi; k++ {
		s.Set(k, redn.Value(k+1_000_000, 64))
		crashKeys = append(crashKeys, k)
	}
	s.Testbed().RunFor(2 * sim.Millisecond)
	s.DropHints()
	// Peak divergence, snapshotted before recovery: from here only the
	// machinery under test may heal it. (Anti-entropy configurations
	// legitimately start converging the moment recovery lands, inside
	// this same window.)
	peak = s.StaleOwners(append(append([]uint64(nil), rejectKeys...), crashKeys...))
	s.Testbed().RunFor(3 * sim.Second) // bootstrap + rebuild + reconnect

	// Capacity frees again: retire the oldest preload keys, so repairs
	// of the rejected inserts have somewhere to land.
	for k := uint64(1); k <= repairFreeHi; k++ {
		s.Delete(k)
	}
	s.Testbed().RunFor(sim.Millisecond)
	return rejectKeys, crashKeys, peak
}

func repairRun(requests int) *Result {
	r := &Result{ID: "repair",
		Title:  "Replica repair: version probes, read-repair and anti-entropy versus injected divergence",
		Header: []string{"stale@inject", "stale@end", "converge", "gets/s", "(ms)"}}

	track := func(s *redn.Service, reject, crash []uint64) (int, int) {
		return s.StaleOwners(reject), s.StaleOwners(crash)
	}

	// --- (a) read-repair alone: probes on a read-only workload ---
	s := buildRepairService(true, false, false)
	rejectKeys, crashKeys, peak := injectDivergence(s)
	rej0, cr0 := track(s, rejectKeys, crashKeys)
	allKeys := append(append([]uint64(nil), rejectKeys...), crashKeys...)
	readKeys := make([]uint64, 0, repairFillHi-repairFreeHi)
	for k := uint64(repairFreeHi + 1); k <= repairFillHi; k++ {
		readKeys = append(readKeys, k)
	}
	start := s.Now()
	convergedAt := sim.Time(-1)
	workload.RunClosedLoop(s.Testbed().Engine(), s, workload.ClosedLoopConfig{
		Requests:    requests,
		Window:      32,
		Keys:        &workload.Uniform{Keys: readKeys, Rng: workload.Rng(1)},
		ValLen:      64,
		SampleEvery: requests / 16,
		OnSample: func(int) {
			if convergedAt < 0 && s.StaleOwners(allKeys) == 0 {
				convergedAt = s.Now() - start
			}
		},
	})
	s.Testbed().RunFor(100 * sim.Millisecond) // queue drains the tail
	if convergedAt < 0 && s.StaleOwners(allKeys) == 0 {
		convergedAt = s.Now() - start
	}
	rrRej, rrCr := track(s, rejectKeys, crashKeys)
	rrStats := s.Stats()
	r.Rows = append(r.Rows, Row{
		Label: "read-repair alone (probes on every replicated hit)",
		Cells: []string{fmt.Sprintf("%d", rej0+cr0), fmt.Sprintf("%d", rrRej+rrCr),
			fmt.Sprintf("%.1f", convergedAt.Micros()/1000), "-", ""}})

	// --- (b) anti-entropy alone: zero reads ---
	s2 := buildRepairService(false, true, false)
	rejectKeys2, crashKeys2, peak2 := injectDivergence(s2)
	all2 := append(append([]uint64(nil), rejectKeys2...), crashKeys2...)
	rej1, cr1 := track(s2, rejectKeys2, crashKeys2)
	aeStart := s2.Now()
	aeConverged := sim.Time(-1)
	// Sample staleness on a fixed virtual-time grid; no client ops at
	// all — convergence must come from sweeps.
	for i := 0; i < 200; i++ {
		s2.Testbed().RunFor(5 * sim.Millisecond)
		if s2.StaleOwners(all2) == 0 {
			aeConverged = s2.Now() - aeStart
			break
		}
	}
	aeRej, aeCr := track(s2, rejectKeys2, crashKeys2)
	aeStats := s2.Stats()
	r.Rows = append(r.Rows, Row{
		Label: "anti-entropy alone (zero reads, digest sweeps)",
		Cells: []string{fmt.Sprintf("%d", peak2), fmt.Sprintf("%d", aeRej+aeCr),
			fmt.Sprintf("%.1f", aeConverged.Micros()/1000), "-", ""}})

	// --- (c) the pre-repair baseline: divergence persists ---
	s3 := buildRepairService(false, false, true)
	rejectKeys3, crashKeys3, peak3 := injectDivergence(s3)
	all3 := append(append([]uint64(nil), rejectKeys3...), crashKeys3...)
	workload.RunClosedLoop(s3.Testbed().Engine(), s3, workload.ClosedLoopConfig{
		Requests: requests / 2, Window: 32,
		Keys:   &workload.Uniform{Keys: readKeys, Rng: workload.Rng(1)},
		ValLen: 64,
	})
	s3.Testbed().RunFor(100 * sim.Millisecond)
	baseStale := s3.StaleOwners(all3)
	r.Rows = append(r.Rows, Row{
		Label: "no repair (pre-repair baseline, same reads)",
		Cells: []string{fmt.Sprintf("%d", peak3), fmt.Sprintf("%d", baseStale),
			"never", "-", ""}})

	// --- (d) probe cost: get throughput with probes enabled ---
	parity := func(readRepair bool, probeEvery int) workload.LoadReport {
		sp := redn.NewServiceWith(redn.ServiceConfig{
			Shards: repairShards, ClientsPerShard: 2, Pipeline: 16,
			Mode: redn.LookupSeq, Replicas: 3, WriteQuorum: 2,
			ReadPolicy: redn.ReadRoundRobin, Buckets: 1 << 12, MaxValLen: 64,
			ReadRepair: readRepair, ProbeEvery: probeEvery,
		})
		keys := preloadKeys(sp, 2000)
		return workload.RunClosedLoop(sp.Testbed().Engine(), sp, workload.ClosedLoopConfig{
			Requests: requests,
			Window:   repairShards * 2 * 16,
			Keys:     workload.NewZipfian(keys, workload.DefaultZipfS, workload.Rng(1)),
			ValLen:   64,
		})
	}
	base := parity(false, 0)
	probed := parity(true, 8)
	probedAll := parity(true, 1)
	r.Rows = append(r.Rows, Row{
		Label: "converged ring, probes OFF (throughput baseline)",
		Cells: []string{"-", "-", "-", kops(base.GetsPerSec), ""}})
	r.Rows = append(r.Rows, Row{
		Label: "converged ring, sampled probes (every 8th hit)",
		Cells: []string{"-", "-", "-", kops(probed.GetsPerSec), ""}})
	r.Rows = append(r.Rows, Row{
		Label: "converged ring, a probe on EVERY replicated hit",
		Cells: []string{"-", "-", "-", kops(probedAll.GetsPerSec), ""}})

	r.metric("stale_inject_reject", float64(rej0))
	r.metric("stale_inject_crash", float64(cr0))
	r.metric("stale_after_read_repair", float64(rrRej+rrCr))
	r.metric("read_repair_converge_ms", convergedAt.Micros()/1000)
	r.metric("probes", float64(rrStats.Probes))
	r.metric("probe_skews", float64(rrStats.ProbeSkews))
	r.metric("repairs_applied_rr", float64(rrStats.RepairsApplied))
	r.metric("stale_peak", float64(peak))
	r.metric("stale_peak_ae", float64(peak2))
	r.metric("stale_peak_baseline", float64(peak3))
	r.metric("stale_inject_reject_ae", float64(rej1))
	r.metric("stale_inject_crash_ae", float64(cr1))
	r.metric("stale_after_ae", float64(aeRej+aeCr))
	r.metric("ae_converge_ms", aeConverged.Micros()/1000)
	r.metric("ae_passes", float64(aeStats.AEPasses))
	r.metric("ae_segs_diffed", float64(aeStats.AESegsDiffed))
	r.metric("ae_repairs", float64(aeStats.AERepairs))
	r.metric("repairs_applied_ae", float64(aeStats.RepairsApplied))
	r.metric("ae_probes", float64(aeStats.Probes))
	r.metric("stale_baseline", float64(baseStale))
	r.metric("base_gets_per_sec", base.GetsPerSec)
	r.metric("probed_gets_per_sec", probed.GetsPerSec)
	r.metric("probed_all_gets_per_sec", probedAll.GetsPerSec)
	if base.GetsPerSec > 0 {
		r.metric("repair_get_ratio", probed.GetsPerSec/base.GetsPerSec)
		r.metric("repair_get_ratio_every_hit", probedAll.GetsPerSec/base.GetsPerSec)
	}

	r.Notes = append(r.Notes,
		fmt.Sprintf("divergence injected for real: %d-shard R=2 W=1 ring at 512 buckets/shard filled past capacity (owner rejections), plus a process crash whose %d handoff hints were dropped before recovery", repairShards, repairCrashHi-repairCrashLo+1),
		"stale = (owner, key) replicas whose version (a value header, or a recorded delete) lags the newest any owner holds; converge = virtual ms from workload start to the first zero-stale sample",
		fmt.Sprintf("read-repair: %d version probes (2 client READs each), %d skews detected, %d repairs applied", rrStats.Probes, rrStats.ProbeSkews, rrStats.RepairsApplied),
		fmt.Sprintf("anti-entropy: %d sweep passes, %d segment digests disagreed, %d keys repaired — with zero reads and zero probes", aeStats.AEPasses, aeStats.AESegsDiffed, aeStats.RepairsApplied),
		"the pre-repair baseline (NoRepair) holds its stale replicas forever: rejected owners heal only by accidental overwrite",
		"probe cost: a probe is two client READs, no managed fetch on the partner's NIC, so even probing EVERY hit leaves get throughput within a few percent; sampling every 8th hit (the parity row) bounds the tax under 10% while misses still repair on every attempt")
	return r
}
