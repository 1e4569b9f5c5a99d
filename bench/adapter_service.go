package main

import (
	"fmt"
	"strings"

	redn "repro"
	"repro/internal/failure"
	"repro/internal/sim"
)

// service is the benchmark's only view of redn.Service: the async KV
// calls, the engine that advances virtual time, and a flat copy of the
// counters the per-layer metrics read. Every ServiceConfig field the
// benchmark sets is set here.
type service struct {
	s   *redn.Service
	eng *sim.Engine
}

var readPolicies = map[string]redn.ReadPolicy{
	"primary":     redn.ReadPrimary,
	"round-robin": redn.ReadRoundRobin,
	"hot-spread":  redn.ReadHotSpread,
}

// newService builds w's service shape. sinks turns on the repo's
// bounded telemetry sinks (sentinel, provenance, profiler) for the
// on-cost pass; the unbounded tracer is never enabled.
func newService(w *workload, sinks bool) *service {
	policy, ok := readPolicies[w.ReadPolicy]
	if !ok {
		panic(fmt.Sprintf("bench: workload %s: unknown read policy %q", w.Name, w.ReadPolicy))
	}
	s := redn.NewServiceWith(redn.ServiceConfig{
		Shards:           4,
		ClientsPerShard:  2,
		Pipeline:         16,
		Mode:             redn.LookupSeq,
		Buckets:          1 << 16,
		MaxValLen:        valLen,
		Replicas:         w.Replicas,
		WriteQuorum:      w.WriteQuorum,
		ReadPolicy:       policy,
		HotKeyTrack:      w.HotKeyTrack,
		HotKeyCache:      w.HotKeyCache,
		ReadRepair:       w.ReadRepair,
		AntiEntropyEvery: sim.Time(w.AntiEntropyEvery),
		Sentinel:         sinks,
		Provenance:       sinks,
		Profile:          sinks,
	})
	return &service{s: s, eng: s.Testbed().Engine()}
}

// preload stores version 1 of every key through the blocking fabric
// write path.
func (v *service) preload(keys []uint64) error {
	buf := make([]byte, valLen)
	for _, k := range keys {
		encodeValue(buf, k, 1)
		if err := v.s.Set(k, buf); err != nil {
			return fmt.Errorf("preload key %#x: %w", k, err)
		}
	}
	return nil
}

func (v *service) get(key uint64, cb func(val []byte, ok bool)) {
	v.s.GetAsync(key, valLen, func(val []byte, _ redn.Duration, ok bool) { cb(val, ok) })
}

func (v *service) set(key uint64, val []byte, cb func(err error)) {
	v.s.SetAsync(key, val, func(_ redn.Duration, err error) { cb(err) })
}

func (v *service) flush() { v.s.Flush() }

func (v *service) now() int64              { return int64(v.eng.Now()) }
func (v *service) runUntil(t int64)        { v.eng.RunUntil(sim.Time(t)) }
func (v *service) pending() int            { return v.eng.Pending() }
func (v *service) executed() uint64        { return v.eng.Executed() }
func (v *service) after(d int64, f func()) { v.eng.After(sim.Time(d), f) }

// crashShard0 kills shard 0's serving process at absolute virtual time
// at; the failure model brings it back after bootstrap + rebuild.
func (v *service) crashShard0(at int64) {
	v.s.CrashShard(0, failure.ProcessCrash, sim.Time(at))
}

func (v *service) staleOwners(keys []uint64) int { return v.s.StaleOwners(keys) }

// markUtilization starts the window Stats().Resources is measured over.
func (v *service) markUtilization() { v.s.MarkUtilization() }

// counters is the flat subset of redn.ServiceStats the benchmark reads.
type counters struct {
	Hits, Misses, Retries, CacheHits uint64
	SetOps, QuorumFails              uint64
	FabricSets, HostSets             uint64
	HintsQueued, HintsApplied        uint64
	HintsPending, RepairsPending     uint64
	RepairsApplied, AEPasses         uint64
	WindowCuts                       uint64
	GCFreed, CompactMoves            uint64
	ArenaPeakFoot, ArenaPeakLive     uint64

	// Busiest unit of each kind across the shard NICs, and overall.
	BottleneckUtil                                    float64
	PUUtil, FetchUtil, PCIeUtil, LinkUtil, AtomicUtil float64

	// PhaseShare[class][phase] is the provenance ledger's share of that
	// class's total latency (sinks-on services only).
	PhaseShare map[string]map[string]float64
}

// since returns the growth of the cumulative counters from b to c;
// high-water marks, utilizations and phase shares stay c's.
func (c counters) since(b counters) counters {
	d := c
	for _, f := range []struct {
		dst  *uint64
		base uint64
	}{
		{&d.Hits, b.Hits}, {&d.Misses, b.Misses}, {&d.Retries, b.Retries}, {&d.CacheHits, b.CacheHits},
		{&d.SetOps, b.SetOps}, {&d.QuorumFails, b.QuorumFails},
		{&d.FabricSets, b.FabricSets}, {&d.HostSets, b.HostSets},
		{&d.HintsQueued, b.HintsQueued}, {&d.HintsApplied, b.HintsApplied},
		{&d.RepairsApplied, b.RepairsApplied}, {&d.AEPasses, b.AEPasses},
		{&d.WindowCuts, b.WindowCuts}, {&d.GCFreed, b.GCFreed}, {&d.CompactMoves, b.CompactMoves},
	} {
		*f.dst -= f.base
	}
	return d
}

func (v *service) counters() counters {
	st := v.s.Stats()
	c := counters{
		Hits: st.Hits, Misses: st.Misses, Retries: st.Retries, CacheHits: st.CacheHits,
		SetOps: st.SetOps, QuorumFails: st.QuorumFails,
		FabricSets: st.FabricSets, HostSets: st.HostSets,
		HintsQueued: st.HintsQueued, HintsApplied: st.HintsApplied,
		HintsPending: st.HintsPending, RepairsPending: st.RepairsPending,
		RepairsApplied: st.RepairsApplied, AEPasses: st.AEPasses,
		WindowCuts: st.WindowCuts,
		GCFreed:    st.GCFreed, CompactMoves: st.CompactMoves,
		ArenaPeakFoot: st.ArenaPeak, ArenaPeakLive: st.ArenaPeakLive,
		BottleneckUtil: st.Bottleneck.Util,
	}
	for _, r := range st.Resources {
		slot := &c.PUUtil
		switch {
		case strings.HasSuffix(r.Name, "/fetch"):
			slot = &c.FetchUtil
		case strings.HasSuffix(r.Name, "/pcie"):
			slot = &c.PCIeUtil
		case strings.HasSuffix(r.Name, "/link"):
			slot = &c.LinkUtil
		case strings.HasSuffix(r.Name, "/atomic-unit"):
			slot = &c.AtomicUtil
		}
		if r.Util > *slot {
			*slot = r.Util
		}
	}
	if len(st.Provenance) > 0 {
		c.PhaseShare = make(map[string]map[string]float64)
		for _, d := range st.Provenance {
			shares := make(map[string]float64, len(d.Phases))
			for _, p := range d.Phases {
				shares[p.Phase] = p.Frac
			}
			c.PhaseShare[d.Class] = shares
		}
	}
	return c
}
