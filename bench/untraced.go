package main

import (
	"fmt"
	"math"
	"runtime/debug"
)

// setupBuilds is how many consecutive builds setup_s is the median of.
const setupBuilds = 5

// fail records n failures of one kind: ops the oracle rejected, or a
// harness-level check that is not any op's.
func (wr *workloadReport) fail(why string, n int64) {
	wr.Correct = false
	wr.Failed += n
	if wr.Failures == nil {
		wr.Failures = make(map[string]int64)
	}
	wr.Failures[why] += n
}

// absorb folds one pass's oracle verdict into the workload report.
func (wr *workloadReport) absorb(p *passResult) {
	wr.Attempted += p.attempted
	for why, n := range p.failures {
		wr.fail(why, n)
	}
}

// runUntraced measures every end-to-end metric of w with all tracing
// off: builds consecutive builds for setup_s (the last one is used),
// then one pass, which it returns for the traced run to compare its own
// passes against.
func runUntraced(w *workload, seed int64, builds int, wr *workloadReport) (*passResult, error) {
	var (
		svc    *service
		gen    *generator
		setups []float64
	)
	for i := 0; i < builds; i++ {
		// The previous build is collected and its pages returned before the
		// next is timed: every build pays for fresh memory, as a new process
		// would, instead of for whatever the scavenger happened to leave
		// mapped (which made setup_s twice as noisy).
		svc, gen = nil, nil
		debug.FreeOSMemory()
		var (
			took float64
			err  error
		)
		if svc, gen, took, err = build(w, seed, false); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		setups = append(setups, took)
	}
	p := runPass(w, svc, gen, passOpts{})
	wr.absorb(p)
	wr.Fingerprint = fmt.Sprintf("%016x", p.fingerprint)
	wr.LatenessNs = p.maxLate

	m := newMetricSet(endToEnd)
	m.putMetric("setup_s", metric{Value: median(setups), N: int64(builds)})
	rates := p.segRates()
	// The median of n segments is steadier than one segment by about √n.
	m.putMetric("wall_ops_per_s", metric{Value: median(rates), N: int64(len(rates)),
		Spread: quartileSpread(rates) / math.Sqrt(float64(len(rates)))})
	m.putMetric("allocs_per_op", metric{Value: float64(p.host.mallocs) / float64(p.ops), N: p.ops})
	m.putMetric("alloc_bytes_per_op", metric{Value: float64(p.host.bytes) / float64(p.ops), N: p.ops})
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m.put("peak_rss_mb", rss)
	done := p.ops
	if w.open() {
		done = p.good
	}
	// On the closed loop throughput is ops over virtual elapsed (the users
	// saturate the fabric, so this is modeled capacity); on the open loop
	// it is goodput: ops that succeeded inside the window, over the window.
	m.putMetric("virt_ops_per_s", metric{Value: float64(done) / (float64(p.virt) / float64(sec)), N: p.ops})
	m.putMetric("virt_get_mean_us", metric{Value: mean(p.getLat) / float64(usec), N: int64(len(p.getLat))})
	m.putMetric("virt_set_mean_us", metric{Value: mean(p.setLat) / float64(usec), N: int64(len(p.setLat))})
	putPercentile(m, "virt_get_p99_us", p.getLat, 99)
	putPercentile(m, "virt_get_p999_us", p.getLat, 99.9)
	putPercentile(m, "virt_set_p99_us", p.setLat, 99)
	m.putMetric("op_ok_ratio", metric{Value: 1 - float64(wr.Failed)/float64(wr.Attempted), N: wr.Attempted})
	if miss := m.missing(); len(miss) > 0 {
		return nil, fmt.Errorf("%s: end-to-end metrics not emitted: %v", w.Name, miss)
	}
	wr.EndToEnd = m.vals
	return p, nil
}

func putPercentile(m *metricSet, name string, sorted []int64, p float64) {
	v, resolved := percentile(sorted, p)
	m.putMetric(name, metric{Value: float64(v) / float64(usec), N: int64(len(sorted)), LowN: !resolved})
}
