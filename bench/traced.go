package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// freshPass builds a service for w and runs a pass on it.
func freshPass(w *workload, seed int64, sinks bool, opts passOpts) (*passResult, error) {
	runtime.GC()
	svc, gen, _, err := build(w, seed, sinks)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return runPass(w, svc, gen, opts), nil
}

// runTraced adds every per-layer metric of w to a run whose untraced
// pass was plain. It runs the same seeded section twice more on fresh
// services — with the benchmark's host spans and profiles on, and with
// the repo's own telemetry sinks on — and copies in the ladder's
// metrics, which do not depend on the workload. All three passes must
// leave virtual time identical; the run says so if they do not.
func runTraced(w *workload, seed int64, plain *passResult, ladder map[string]metric, cpuprofile string, wr *workloadReport) error {
	m := newMetricSet(perLayer)
	for name, v := range ladder {
		m.putMetric(name, v)
	}

	ops := float64(plain.ops)
	d := plain.delta
	m.put("sim.events_per_op", float64(plain.events)/ops)
	m.put("sim.wall_ns_per_event", plain.wall*1e9/float64(plain.events))
	m.put("sim.pending_max", float64(plain.pendingMax))
	m.put("sim.wall_ns_per_virt_us", plain.wall*1e9/(float64(plain.virt)/float64(usec)))
	putPercentile(m, "service.virt_get_p50_us", plain.getLat, 50)
	putPercentile(m, "service.virt_set_p50_us", plain.setLat, 50)
	m.put("service.cache_hit_ratio", plain.cacheHitRatio())
	m.put("service.stale_read_ratio", ratio(float64(plain.staleReads), float64(plain.gets)))
	m.put("service.retries_per_op", float64(d.Retries)/ops)
	m.put("service.quorum_fail_ratio", ratio(float64(d.QuorumFails), float64(d.SetOps)))
	m.put("service.host_set_ratio", ratio(float64(d.HostSets), float64(d.HostSets+d.FabricSets)))
	m.put("service.hints_queued", float64(d.HintsQueued))
	m.put("service.hints_applied", float64(d.HintsApplied))
	m.put("service.repairs_applied", float64(d.RepairsApplied))
	m.put("service.ae_passes", float64(d.AEPasses))
	m.put("client.window_cuts", float64(d.WindowCuts))
	m.put("extent.foot_over_peak_live", ratio(float64(d.ArenaPeakFoot), float64(d.ArenaPeakLive)))
	m.put("extent.gc_freed", float64(d.GCFreed))
	m.put("extent.compact_moves", float64(d.CompactMoves))
	m.put("rnic.bottleneck_util", d.BottleneckUtil)
	m.put("rnic.pu_util_max", d.PUUtil)
	m.put("rnic.fetch_util_max", d.FetchUtil)
	m.put("rnic.pcie_util_max", d.PCIeUtil)
	m.put("rnic.link_util_max", d.LinkUtil)
	m.put("rnic.atomic_util_max", d.AtomicUtil)
	m.put("runtime.gc_cycles", float64(plain.host.gcCycles))
	m.put("runtime.gc_pause_ms", float64(plain.host.gcPause)/1e6)

	// Span-traced pass: host spans on every other segment, with a CPU
	// profile and the allocation profile's growth over the whole timed
	// section (so the profiler's cost falls on both halves and the ratio
	// isolates the spans).
	tr := newSpanTracer()
	var (
		cpu       bytes.Buffer
		memBefore memSnapshot
		mem       *shares
		self      [nSpanNames]int64
		profErr   error
	)
	spans, err := freshPass(w, seed, false, passOpts{tr: tr,
		timedStart: func() {
			memBefore, _ = snapshotMemProfile()
			profErr = pprof.StartCPUProfile(&cpu)
		},
		timedEnd: func() {
			pprof.StopCPUProfile()
			self = tr.self // read-back is not measured
			mem = memSharesSince(memBefore)
		}})
	if err != nil {
		return err
	}
	if profErr != nil {
		return fmt.Errorf("%s: cpu profile: %w", w.Name, profErr)
	}
	wr.absorb(spans)
	if err := tr.writeChromeTrace("trace_" + w.Name + ".json"); err != nil {
		return err
	}
	if cpuprofile != "" {
		if err := os.WriteFile(cpuprofile, cpu.Bytes(), 0o644); err != nil {
			return err
		}
	}
	if spans.fingerprint != plain.fingerprint {
		wr.fail("span_traced_pass_moved_virtual_time", 1)
	}
	untraced, traced, tracedOps := spans.halves()
	m.put("sim.run_self_ns_per_op", float64(self[spanEngineRun])/float64(tracedOps))
	m.put("service.submit_self_ns_per_op", float64(self[spanSubmit])/float64(tracedOps))
	m.put("service.flush_self_ns_per_op", float64(self[spanFlush])/float64(tracedOps))
	m.put("bench.callback_self_ns_per_op", float64(self[spanCallback])/float64(tracedOps))
	m.put("bench.gen_ns_per_op", float64(self[spanGen])/float64(tracedOps))
	m.put("bench.trace_overhead_ratio", median(untraced)/median(traced))
	cpuSh, err := cpuShares(cpu.Bytes())
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	for _, l := range layers {
		m.put(l+".cpu_share", ratio(cpuSh.layer[l], cpuSh.total))
		m.put(l+".alloc_bytes_share", ratio(mem.layer[l], mem.total))
	}
	m.put("runtime.alloc_cpu_share", ratio(cpuSh.alloc, cpuSh.total))
	m.put("runtime.memclr_cpu_share", ratio(cpuSh.memclr, cpuSh.total))
	m.put("runtime.gc_cpu_share", ratio(cpuSh.runtimeOnly, cpuSh.total))

	// Sinks-on pass: the repo's bounded telemetry (sentinel, provenance,
	// profiler) enabled, nothing of the benchmark's.
	sinks, err := freshPass(w, seed, true, passOpts{})
	if err != nil {
		return err
	}
	wr.absorb(sinks)
	m.put("telemetry.on_cost_ratio", plain.rate()/sinks.rate())
	m.put("telemetry.on_allocs_per_op_delta",
		(float64(sinks.host.mallocs)-float64(plain.host.mallocs))/ops)
	identical := 0.0
	if sinks.fingerprint == plain.fingerprint {
		identical = 1
	}
	m.put("telemetry.virt_identical", identical)
	for _, class := range []string{"get", "set"} {
		for _, ph := range phases {
			m.put(fmt.Sprintf("service.phase_%s_share.%s", ph, class), sinks.now.PhaseShare[class][ph])
		}
	}

	if miss := m.missing(); len(miss) > 0 {
		return fmt.Errorf("%s: per-layer metrics not emitted: %v", w.Name, miss)
	}
	wr.PerLayer = m.vals
	return nil
}
