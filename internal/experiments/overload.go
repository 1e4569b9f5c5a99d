package experiments

import (
	"fmt"

	"repro"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Overload sweeps open-loop offered load from 1x to 10x the measured
// service capacity against 256-deep client pipelines. Pinned at that
// depth, past the knee in-flight requests would queue on the NIC PUs
// until every get's completion landed after the 200us miss timeout and
// goodput collapsed toward zero (congestion collapse). The AIMD windows
// (grow on clean answers, halve on a lost request or on the ECN backlog
// mark the completion path stamps into acks) converge to the knee
// instead: excess offered load waits client-side, and goodput holds at
// capacity with bounded hit latency.
//
// Hit latency is stamped at issue (not submit), so client-side
// queueing under overload does not inflate the hit p999 — the sweep
// asserts it stays bounded while goodput stays >= 90% of peak.
func Overload() *Result {
	return overloadRun(6000)
}

// overloadKeys is the preloaded key-set size: small enough to preload
// quickly, large enough that per-(owner,key) write serialization never
// shapes a pure-get sweep.
const overloadKeys = 1024

// overloadDepth is the deliberately oversized pipeline: 2 client nodes
// x 2 connections x 256 slots outstanding against 2 shards is far past
// the knee, which is exactly the failure mode the AIMD window exists to
// remove.
const overloadDepth = 256

// overloadCapacity measures s's get capacity over keys with a closed
// loop of requests gets, its concurrency matched to the production
// shape's 2 shards x 2 connections x 16-deep pipelines: the knee an
// overload scenario's offered multiples are measured against. A cheaper
// chain moves the knee, and the offered load moves with it.
func overloadCapacity(s *redn.Service, keys []uint64, requests int) float64 {
	rep := workload.RunClosedLoop(s.Testbed().Engine(), s, workload.ClosedLoopConfig{
		Requests: requests,
		Window:   2 * 2 * 16,
		Keys:     &workload.Uniform{Keys: keys, Rng: workload.Rng(1)},
		ValLen:   64,
	})
	if rep.GetsPerSec <= 0 {
		panic("experiments: overload calibration measured zero capacity")
	}
	return rep.GetsPerSec
}

func overloadRun(requests int) *Result {
	r := &Result{ID: "overload",
		Title:  "Open-loop overload sweep: AIMD windows on 256-deep pipelines",
		Header: []string{"offered", "goodput", "hit p999", "(Mops/s, us)"}}

	keys := make([]uint64, overloadKeys)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}

	newSvc := func(pipeline int) *redn.Service {
		s := redn.NewServiceWith(redn.ServiceConfig{
			Shards:          2,
			ClientsPerShard: 2,
			Pipeline:        pipeline,
			Mode:            redn.LookupSeq,
			Replicas:        2,
			WriteQuorum:     2,
			Buckets:         1 << 14,
			MaxValLen:       256,
		})
		preloadKeys(s, len(keys))
		return s
	}

	capacity := overloadCapacity(newSvc(16), keys, requests)

	// The issue window: long enough to hold the per-point request budget
	// at 1x, and never shorter than several miss timeouts so AIMD's
	// convergence has room to play out.
	dur := sim.Time(float64(requests) / capacity * float64(sim.Second))
	if min := 6 * redn.DefaultMissTimeout; dur < min {
		dur = min
	}
	bucket := dur / 20

	multiples := []int{1, 2, 4, 6, 8, 10}
	goodputs := make([]float64, len(multiples))
	var peak, p999Max float64
	for mi, m := range multiples {
		s := newSvc(overloadDepth)
		gap := sim.Time(float64(sim.Second) / (float64(m) * capacity))
		if gap < 1 {
			gap = 1
		}
		rep := workload.RunOpenLoop(s.Testbed().Engine(), s, workload.OpenLoopConfig{
			Duration: dur,
			Gap:      gap,
			Bucket:   bucket,
			Keys:     &workload.Uniform{Keys: keys, Rng: workload.Rng(2)},
			ValLen:   64,
			Gauges:   s.Metrics().Gauges(),
		})
		good, p999 := float64(rep.Hits)/dur.Seconds(), rep.HitLat.Percentile(99.9)
		goodputs[mi] = good
		peak, p999Max = max(peak, good), max(p999Max, p999.Micros())
		r.Rows = append(r.Rows, Row{
			Label: fmt.Sprintf("%dx capacity", m),
			Cells: []string{mops(float64(m) * capacity), mops(good), us(p999), ""}})
		r.metric(fmt.Sprintf("overload_adapt_good_%dx", m), good)
		r.metric(fmt.Sprintf("overload_adapt_p999_%dx_us", m), p999.Micros())
		if m == multiples[len(multiples)-1] {
			st := s.Stats()
			r.metric("overload_window_cuts_10x", float64(st.WindowCuts))
			r.metric("overload_ecn_cuts_10x", float64(st.EcnCuts))
			for g, name := range rep.GaugeNames {
				// drop is the largest fall between consecutive samples,
				// as a fraction of the earlier one: the window's
				// multiplicative decrease seen on the timeline.
				series, gpeak, drop := rep.GaugeSeries[g], 0.0, 0.0
				for i, v := range series {
					gpeak = max(gpeak, v)
					if i > 0 && series[i-1] > 0 {
						drop = max(drop, (series[i-1]-v)/series[i-1])
					}
				}
				switch name {
				case "svc/get_window":
					r.metric("overload_peak_window_10x", gpeak)
					r.metric("overload_window_drop_10x", drop)
				case "svc/nic_backlog_us":
					r.metric("overload_peak_backlog_10x_us", gpeak)
				}
			}
		}
	}

	// The headline fraction, against the sweep's own peak: goodput must
	// hold >= 90% of it at every offered multiple from 2x.
	adaptMin := 1.0
	for mi, m := range multiples {
		if peak > 0 && m >= 2 {
			adaptMin = min(adaptMin, goodputs[mi]/peak)
		}
	}
	r.metric("overload_capacity_ops", capacity)
	r.metric("overload_adapt_min_frac", adaptMin)
	r.metric("overload_adapt_p999_max_us", p999Max)

	r.Notes = append(r.Notes,
		fmt.Sprintf("2 shards r=2, 2x2 client connections, uniform %dK-key 64B pure gets; capacity %.2f Mops/s calibrated closed-loop at 16-deep",
			overloadKeys/1024, capacity/1e6),
		fmt.Sprintf("open loop paced at 1-10x capacity for %v per point; goodput counts hits completed inside the window", dur),
		fmt.Sprintf("%d-deep pipelines; the window halves on a lost request or an ECN backlog mark and grows ~1/w per clean answer",
			overloadDepth),
		"hit latency is stamped at issue, not submit: client-side queueing under overload delays issues instead of inflating the hit p999")
	return r
}
