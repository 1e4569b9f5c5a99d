package experiments

import (
	"fmt"

	"repro"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Overload sweeps open-loop offered load from 1x to 10x the measured
// service capacity and compares two congestion postures:
//
//  1. fixed-K — the pre-adaptive client: a 256-deep pinned pipeline
//     per connection. Past the knee, in-flight requests queue on the
//     NIC PUs until every get's completion lands after the 200us miss
//     timeout: the chains still burn PU cycles but nothing counts as
//     a hit, and goodput collapses toward zero (congestion collapse).
//  2. adaptive — AIMD windows (grow on clean acks, halve on timeout
//     or on the ECN backlog mark the completion path stamps into
//     acks). The window converges to the knee, excess offered load
//     waits client-side, and goodput holds at capacity with bounded
//     hit latency.
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

// overloadFixedK is the deliberately oversized pinned window: 2 client
// nodes x 2 connections x 256 slots outstanding against 2 shards is
// far past the knee, which is exactly the failure mode the adaptive
// window exists to remove.
const overloadFixedK = 256

func overloadRun(requests int) *Result {
	r := &Result{ID: "overload",
		Title: "Open-loop overload sweep: AIMD windows versus the fixed-K pipeline",
		Header: []string{"offered", "fixedK", "adaptive", "adapt p999",
			"(Mops/s, us)"}}

	keys := make([]uint64, overloadKeys)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}

	type posture struct {
		pipeline int
		adaptive bool
	}
	newSvc := func(p posture) *redn.Service {
		s := redn.NewServiceWith(redn.ServiceConfig{
			Shards:          2,
			ClientsPerShard: 2,
			Pipeline:        p.pipeline,
			Mode:            redn.LookupSeq,
			Replicas:        2,
			WriteQuorum:     2,
			Buckets:         1 << 14,
			MaxValLen:       256,
			AdaptiveWindow:  p.adaptive,
		})
		preloadKeys(s, len(keys))
		return s
	}

	// Calibrate capacity with the production-shaped closed loop (16-deep
	// pinned windows, concurrency matched to the pipeline): the knee the
	// open-loop sweep's multiples are measured against.
	calib := newSvc(posture{pipeline: 16})
	crep := workload.RunClosedLoop(calib.Testbed().Engine(), calib, workload.ClosedLoopConfig{
		Requests: requests,
		Window:   2 * 2 * 16,
		Keys:     &workload.Uniform{Keys: keys, Rng: workload.Rng(1)},
		ValLen:   64,
	})
	capacity := crep.GetsPerSec
	if capacity <= 0 {
		panic("experiments: overload calibration measured zero capacity")
	}

	// The issue window: long enough to hold the per-point request budget
	// at 1x, and never shorter than several miss timeouts so fixed-K's
	// collapse (a 200us-timeout phenomenon) and AIMD's convergence both
	// have room to play out.
	dur := sim.Time(float64(requests) / capacity * float64(sim.Second))
	if min := 6 * redn.DefaultMissTimeout; dur < min {
		dur = min
	}
	bucket := dur / 20

	multiples := []int{1, 2, 4, 6, 8, 10}
	postures := []posture{
		{pipeline: overloadFixedK},
		{pipeline: overloadFixedK, adaptive: true},
	}

	type point struct {
		goodput float64
		p999    sim.Time
	}
	results := make([][]point, len(postures))
	var adaptPeak float64
	for pi, p := range postures {
		results[pi] = make([]point, len(multiples))
		for mi, m := range multiples {
			s := newSvc(p)
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
			pt := point{
				goodput: float64(rep.Hits) / dur.Seconds(),
				p999:    rep.HitLat.Percentile(99.9),
			}
			results[pi][mi] = pt
			if p.adaptive {
				if pt.goodput > adaptPeak {
					adaptPeak = pt.goodput
				}
				if m == multiples[len(multiples)-1] {
					st := s.Stats()
					r.metric("overload_window_cuts_10x", float64(st.WindowCuts))
					r.metric("overload_ecn_cuts_10x", float64(st.EcnCuts))
					for g, name := range rep.GaugeNames {
						peak := 0.0
						for _, v := range rep.GaugeSeries[g] {
							if v > peak {
								peak = v
							}
						}
						switch name {
						case "svc/get_window":
							r.metric("overload_peak_window_10x", peak)
						case "svc/nic_backlog_us":
							r.metric("overload_peak_backlog_10x_us", peak)
						}
					}
				}
			}
		}
	}

	// Headline fractions, all against the adaptive sweep's own peak:
	// the adaptive posture must hold >= 90% of it at every offered
	// multiple, while fixed-K demonstrably falls below it.
	adaptMin, fixedMin := 1.0, 1.0
	for mi, m := range multiples {
		fixed, adapt := results[0][mi], results[1][mi]
		r.Rows = append(r.Rows, Row{
			Label: fmt.Sprintf("%dx capacity", m),
			Cells: []string{mops(float64(m) * capacity), mops(fixed.goodput),
				mops(adapt.goodput), us(adapt.p999), ""}})
		r.metric(fmt.Sprintf("overload_fixed_good_%dx", m), fixed.goodput)
		r.metric(fmt.Sprintf("overload_adapt_good_%dx", m), adapt.goodput)
		r.metric(fmt.Sprintf("overload_adapt_p999_%dx_us", m), adapt.p999.Micros())
		if adaptPeak > 0 && m >= 2 {
			if f := adapt.goodput / adaptPeak; f < adaptMin {
				adaptMin = f
			}
			if f := fixed.goodput / adaptPeak; f < fixedMin {
				fixedMin = f
			}
		}
	}
	r.metric("overload_capacity_ops", capacity)
	r.metric("overload_adapt_min_frac", adaptMin)
	r.metric("overload_fixed_min_frac", fixedMin)
	var p999Max float64
	for mi := range multiples {
		if us := results[1][mi].p999.Micros(); us > p999Max {
			p999Max = us
		}
	}
	r.metric("overload_adapt_p999_max_us", p999Max)

	r.Notes = append(r.Notes,
		fmt.Sprintf("2 shards r=2, 2x2 client connections, uniform %dK-key 64B pure gets; capacity %.2f Mops/s calibrated closed-loop at 16-deep",
			overloadKeys/1024, capacity/1e6),
		fmt.Sprintf("open loop paced at 1-10x capacity for %v per point; goodput counts hits completed inside the window", dur),
		fmt.Sprintf("fixed-K pins %d-deep windows: past the knee every completion lands after the %v miss timeout and goodput collapses",
			overloadFixedK, redn.DefaultMissTimeout),
		"adaptive halves the window on timeout or ECN backlog mark and grows ~1/w per clean ack",
		"hit latency is stamped at issue, not submit: client-side queueing under overload delays issues instead of inflating the hit p999")
	return r
}
