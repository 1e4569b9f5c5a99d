package main

import (
	"fmt"
	"sort"
)

// metricDef names one metric the benchmark emits. The two tables below
// are the benchmark's contract: BENCHMARK.json lists exactly these
// names, units and directions (bench_test.go checks it), and a run
// that emits anything else panics.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
}

// endToEnd is what a user of the system sees, on both clocks. virt_*
// are virtual time (the modeled fabric) and repeat exactly for a seed;
// the rest are host measurements and carry noise. Each bound is at
// least three times the quartile spread seen over ten seeds on the
// worst workload (README, "Observed spread"), because the driver's
// acceptance runs compare across seeds; between two commits at one seed
// every virt_* difference is expected to be exactly 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_bytes_per_op", "B", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"virt_ops_per_s", "1/s", "higher", 0.05},
	{"virt_get_mean_us", "us", "lower", 0.15},
	{"virt_get_p99_us", "us", "lower", 0.25},
	{"virt_get_p999_us", "us", "lower", 0.25},
	{"virt_set_mean_us", "us", "lower", 0.20},
	{"virt_set_p99_us", "us", "lower", 0.25},
	{"op_ok_ratio", "ratio", "higher", 0.0005},
}

// layers are the repo's modules, used as metric prefixes and as the
// buckets CPU and allocation samples are charged to.
var layers = []string{"sim", "mem", "wqe", "rnic", "core", "client", "service",
	"shard", "extent", "hopscotch", "telemetry", "bench"}

var phases = []string{"window", "queue", "doorbell", "fabric", "coord", "retry", "host", "cache"}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// Counts from public accessors (exact for a seed, except the two wall ones).
	add("count", "lower", "sim.events_per_op", "sim.pending_max")
	add("ns", "lower", "sim.wall_ns_per_event", "sim.wall_ns_per_virt_us")
	add("us", "lower", "service.virt_get_p50_us", "service.virt_set_p50_us")
	add("ratio", "higher", "service.cache_hit_ratio")
	add("ratio", "lower", "service.stale_read_ratio", "service.retries_per_op", "service.quorum_fail_ratio", "service.host_set_ratio")
	add("count", "lower", "service.hints_queued", "service.hints_applied", "service.repairs_applied",
		"service.ae_passes", "client.window_cuts")
	add("ratio", "lower", "extent.foot_over_peak_live")
	add("count", "lower", "extent.gc_freed", "extent.compact_moves")
	add("ratio", "lower", "rnic.bottleneck_util", "rnic.pu_util_max", "rnic.fetch_util_max",
		"rnic.pcie_util_max", "rnic.link_util_max", "rnic.atomic_util_max")
	// Host spans the benchmark records around its own calls.
	add("ns", "lower", "sim.run_self_ns_per_op", "service.submit_self_ns_per_op",
		"service.flush_self_ns_per_op", "bench.callback_self_ns_per_op", "bench.gen_ns_per_op")
	add("ratio", "lower", "bench.trace_overhead_ratio")
	// CPU and allocation share by layer, from profiles taken from outside.
	for _, l := range layers {
		add("ratio", "lower", l+".cpu_share", l+".alloc_bytes_share")
	}
	add("ratio", "lower", "runtime.alloc_cpu_share", "runtime.memclr_cpu_share", "runtime.gc_cpu_share")
	add("count", "lower", "runtime.gc_cycles")
	add("ms", "lower", "runtime.gc_pause_ms")
	// The layer ladder.
	add("ns", "lower", "sim.ladder_ns_per_event")
	add("count", "lower", "sim.ladder_allocs_per_event")
	add("ms", "lower", "mem.ladder_new_ms_per_node")
	add("ns", "lower", "mem.ladder_read_ns", "wqe.ladder_decode_ns", "hopscotch.ladder_insert_ns", "shard.ladder_lookupn_ns")
	add("count", "lower", "mem.ladder_read_allocs", "wqe.ladder_decode_scatter_allocs")
	add("ns", "lower", "rnic.ladder_ns_per_wr")
	add("count", "lower", "rnic.ladder_events_per_wr", "rnic.ladder_allocs_per_wr")
	add("us", "lower", "rnic.ladder_write_virt_us")
	for _, op := range []string{"get", "set"} {
		add("ns", "lower", "core.ladder_"+op+"_ns")
		add("count", "lower", "core.ladder_"+op+"_events", "core.ladder_"+op+"_allocs", "core.ladder_"+op+"_wrs")
	}
	add("ns", "lower", "core.ladder_arm_ns")
	for _, op := range []string{"get", "set"} {
		add("ns", "lower", "client.ladder_"+op+"_ns")
		add("count", "lower", "client.ladder_"+op+"_events", "client.ladder_"+op+"_allocs")
	}
	add("us", "lower", "client.ladder_get_virt_us")
	for _, op := range []string{"get", "set"} {
		add("ns", "lower", "service.ladder_"+op+"_ns")
		add("count", "lower", "service.ladder_"+op+"_allocs")
	}
	add("ns", "lower", "service.ladder_quorum_set_ns")
	add("count", "lower", "service.ladder_quorum_set_events", "service.ladder_quorum_set_allocs")
	// The repo's own telemetry sinks, switched on.
	add("ratio", "lower", "telemetry.on_cost_ratio")
	add("count", "lower", "telemetry.on_allocs_per_op_delta")
	add("bool", "higher", "telemetry.virt_identical")
	for _, class := range []string{"get", "set"} {
		for _, p := range phases {
			add("ratio", "lower", fmt.Sprintf("service.phase_%s_share.%s", p, class))
		}
	}
	return defs
}

// metric is one emitted value. N is the sample count behind it where
// that means something; LowN marks a percentile with fewer than ten
// samples beyond it; Spread estimates the median's own quartile spread
// from the timed segments', which -compare uses to tell "same" from
// "unresolved".
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int64   `json:"n,omitempty"`
	LowN   bool    `json:"low_n,omitempty"`
	Spread float64 `json:"spread,omitempty"`
}

// metricSet collects emitted metrics against one of the tables above.
type metricSet struct {
	defs map[string]metricDef
	vals map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: make(map[string]metricDef, len(defs)), vals: make(map[string]metric, len(defs))}
	for _, d := range defs {
		m.defs[d.Name] = d
	}
	return m
}

func (m *metricSet) put(name string, value float64) { m.putMetric(name, metric{Value: value}) }

func (m *metricSet) putMetric(name string, v metric) {
	d, ok := m.defs[name]
	if !ok {
		panic("bench: metric " + name + " is not in the metric table")
	}
	v.Unit = d.Unit
	m.vals[name] = v
}

// missing lists table entries nothing was put for.
func (m *metricSet) missing() []string {
	var out []string
	for name := range m.defs {
		if _, ok := m.vals[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
