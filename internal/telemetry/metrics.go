package telemetry

import (
	"slices"
	"strings"

	"repro/internal/sim"
)

// Counter is a monotonically increasing uint64 its owner stores and
// increments itself. Any uint64 word converts to one, so a subsystem
// keeps its counters as plain fields of its own stats struct and
// registers their addresses (Registry.Bind): the registry reads the
// very words the subsystem increments.
type Counter uint64

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return uint64(*c)
}

// Gauge is a named sampled value backed by a closure, so queue depths
// and arena occupancy are read at sample time rather than maintained.
type Gauge struct {
	Name   string
	Sample func() float64
}

// Registry holds named counters, gauges and latency histograms.
// Registration order is preserved internally; Snapshot sorts by name
// so exports are deterministic regardless of wiring order.
type Registry struct {
	counters     map[string]*Counter
	counterNames []string
	gauges       []Gauge
	hists        map[string]*sim.LatencyStats
	histNames    []string
	histSubs     [][5]string // each histogram's sub-metric names, built once
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*sim.LatencyStats),
	}
}

// Bind registers the word c under name, so the registry snapshots a
// counter its owner stores and increments itself. Rebinding a name
// hands its count on to c (a shard rejoining under a drained shard's
// id continues its counters), so a name's count never falls.
// No-op on a nil registry.
func (r *Registry) Bind(name string, c *Counter) {
	if r == nil {
		return
	}
	if old, ok := r.counters[name]; ok {
		*c = *old
	} else {
		r.counterNames = append(r.counterNames, name)
	}
	r.counters[name] = c
}

// Gauge registers a sampled gauge. No-op on a nil registry.
func (r *Registry) Gauge(name string, sample func() float64) {
	if r == nil {
		return
	}
	r.gauges = append(r.gauges, Gauge{Name: name, Sample: sample})
}

// Gauges returns the registered gauges in registration order.
func (r *Registry) Gauges() []Gauge {
	if r == nil {
		return nil
	}
	return r.gauges
}

// Histogram returns the latency histogram registered under name,
// creating it on first use. A nil registry returns nil.
func (r *Registry) Histogram(name string) *sim.LatencyStats {
	if r == nil {
		return nil
	}
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &sim.LatencyStats{}
	r.hists[name] = h
	r.histNames = append(r.histNames, name)
	r.histSubs = append(r.histSubs, [5]string{
		name + ".n", name + ".avg_ns", name + ".p50_ns", name + ".p99_ns", name + ".max_ns"})
	return h
}

// Metric is one exported sample.
type Metric struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"` // "counter", "gauge", "hist"
	Value float64 `json:"value"`
}

// Snapshot returns every metric's current value, sorted by name.
// Histograms expand into .n/.avg/.p50/.p99/.max sub-metrics.
func (r *Registry) Snapshot() []Metric {
	return r.SnapshotAppend(nil)
}

// SnapshotAppend is Snapshot writing into buf's backing array (grown
// as needed) — the flight recorder samples every tick into a
// fixed-size ring slot, so a steady-state sample allocates nothing.
func (r *Registry) SnapshotAppend(buf []Metric) []Metric {
	if r == nil {
		return nil
	}
	out := buf[:0]
	for _, name := range r.counterNames {
		out = append(out, Metric{Name: name, Kind: "counter", Value: float64(r.counters[name].Value())})
	}
	for _, g := range r.gauges {
		out = append(out, Metric{Name: g.Name, Kind: "gauge", Value: g.Sample()})
	}
	for i, name := range r.histNames {
		h, sub := r.hists[name], &r.histSubs[i]
		out = append(out,
			Metric{Name: sub[0], Kind: "hist", Value: float64(h.N())},
			Metric{Name: sub[1], Kind: "hist", Value: float64(h.Avg())},
			Metric{Name: sub[2], Kind: "hist", Value: float64(h.Median())},
			Metric{Name: sub[3], Kind: "hist", Value: float64(h.P99())},
			Metric{Name: sub[4], Kind: "hist", Value: float64(h.Max())},
		)
	}
	slices.SortFunc(out, func(a, b Metric) int { return strings.Compare(a.Name, b.Name) })
	return out
}
