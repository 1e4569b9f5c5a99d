package workload

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// AsyncKV is the service surface the load generators drive: pipelined
// asynchronous gets, sets AND deletes — all travel the fabric and all
// have real modeled latency. redn.Service implements it.
type AsyncKV interface {
	SetAsync(key uint64, value []byte, cb func(lat sim.Time, err error))
	GetAsync(key, valLen uint64, cb func(val []byte, lat sim.Time, ok bool))
	// DeleteAsync retires a key through the fabric delete path; err is
	// non-nil when the delete failed its write quorum.
	DeleteAsync(key uint64, cb func(lat sim.Time, err error))
	// Flush kicks doorbells for operations posted since the last flush.
	Flush()
}

// ClosedLoopConfig shapes one load-generation run.
type ClosedLoopConfig struct {
	// Requests is the total operation count (gets + sets).
	Requests int
	// Window is the number of concurrent closed-loop users: each keeps
	// exactly one operation outstanding, issuing its next when the
	// previous completes.
	Window int
	// Keys yields the access pattern (Uniform, Zipfian, Sequential).
	Keys KeyStream
	// ValLen is the value size gets request and sets store.
	ValLen uint64
	// WriteEvery makes every n-th operation of a user a set (0 = pure
	// reads). Sets go through the fabric write path — a NIC CAS-claim
	// chain per replica owner — so they occupy the user's loop slot
	// until the write quorum acknowledges, exactly like gets.
	WriteEvery int
	// DeleteEvery makes every n-th operation a delete of the sampled
	// key (0 = none), checked before WriteEvery. Deletes travel the NIC
	// tombstone chain and block the loop slot for their quorum ack; a
	// deleted key misses until the key stream writes it again — the
	// churn workload's steady state.
	DeleteEvery int

	// SampleEvery, with OnSample set, invokes OnSample(completedOps)
	// after every SampleEvery-th operation completes — the hook the
	// repair experiment uses to track an external metric (stale
	// replicas) against workload progress without owning the loop.
	SampleEvery int
	OnSample    func(done int)
}

// LoadReport summarizes a run. Get latency percentiles cover gets only
// (misses included, at the configured timeout); set percentiles cover
// the write path's quorum-ack latency. Throughput rates divide each
// operation class by the span from first issue to last completion.
type LoadReport struct {
	Requests int
	Gets     int
	Sets     int
	Dels     int
	Hits     int
	Misses   int
	SetErrs  int // sets that failed their write quorum
	DelErrs  int // deletes that failed their write quorum

	Elapsed    sim.Time
	GetsPerSec float64
	SetsPerSec float64
	DelsPerSec float64

	Avg, P50, P99, P999 sim.Time
	SetP50, SetP99      sim.Time
	DelP50, DelP99      sim.Time

	// Hit percentiles cover successful gets only. The combined P50/P99
	// above mix in misses, which report the configured timeout (or the
	// failover budget spent) rather than a real service time — a miss
	// is a timeout-censored observation, not a latency. Censored counts
	// those samples; Miss percentiles summarize them distinctly so a
	// miss-heavy run can't masquerade as a slow one.
	HitP50, HitP99   sim.Time
	MissP50, MissP99 sim.Time
	Censored         int
}

func (r LoadReport) String() string {
	return fmt.Sprintf("%d ops (%d gets, %d sets, %d dels, %d misses, %d set errs, %d del errs) in %v: %.0f gets/s %.0f sets/s %.0f dels/s, p50=%v p99=%v p999=%v hit-p50=%v hit-p99=%v miss-p50=%v miss-p99=%v (censored=%d) set-p50=%v set-p99=%v del-p50=%v",
		r.Requests, r.Gets, r.Sets, r.Dels, r.Misses, r.SetErrs, r.DelErrs, r.Elapsed,
		r.GetsPerSec, r.SetsPerSec, r.DelsPerSec, r.P50, r.P99, r.P999,
		r.HitP50, r.HitP99, r.MissP50, r.MissP99, r.Censored, r.SetP50, r.SetP99, r.DelP50)
}

// OpenLoopConfig shapes a paced, timeline-bucketed run — the Fig 16
// measurement style: requests issue at a fixed gap regardless of
// completions, and successful operations are counted into fixed-width
// time buckets so outages appear as rate dips. With WriteEvery set,
// every n-th issue is a set, and acknowledged writes are bucketed
// separately — a write outage is visible even while reads survive.
type OpenLoopConfig struct {
	Duration sim.Time // how long to keep issuing
	Gap      sim.Time // one operation per gap
	Bucket   sim.Time // timeline bucket width
	Keys     KeyStream
	ValLen   uint64
	// WriteEvery makes every n-th issued operation a set (0 = reads only).
	WriteEvery int
	// Classify tags each request with a class in [0, Classes); hits and
	// acked writes are counted per class and bucket (e.g. "keys owned by
	// the crashed shard" versus the rest). Nil puts everything in class 0.
	Classify func(key uint64) int
	Classes  int
	// Gauges are sampled once per timeline bucket (at the bucket's
	// midpoint); each becomes one row of the report's GaugeSeries, so
	// queue depths line up against the hit/ack timelines — a hint-queue
	// spike sits visibly under the outage dip that caused it.
	Gauges []telemetry.Gauge
	// OnSetAck, when set, observes every quorum-acknowledged write with
	// the key it stored — the ledger hook the resharding experiment uses
	// to prove that every key acked under membership churn is readable
	// at its post-migration owners.
	OnSetAck func(key uint64)
	// OnBucket, when set, is called as each timeline bucket closes with
	// the hits and acked writes counted into it, summed across classes —
	// the live feed the SLO sentinel's outage rule watches, delivered as
	// the run progresses rather than from the finished report.
	OnBucket func(bucket int, hits, acks float64)
}

// OpenLoopReport is the timeline of an open-loop run.
type OpenLoopReport struct {
	Issued, Hits, Misses int
	// Series[class][bucket] counts hits completed in that bucket.
	Series [][]float64

	// HitLat aggregates the per-hit latency the KV reported (stamped at
	// issue, so client-side admission queueing does not inflate it) —
	// the p999 bound the overload sweep asserts against.
	HitLat sim.LatencyStats

	SetsIssued, SetsAcked, SetErrs int
	// SetSeries[class][bucket] counts quorum-acknowledged writes.
	SetSeries [][]float64

	// GaugeSeries[g][bucket] is cfg.Gauges[g] sampled at that bucket's
	// midpoint; GaugeNames[g] labels the row.
	GaugeNames  []string
	GaugeSeries [][]float64
}

// bucketsBelow counts buckets of s in [from, to) strictly below
// threshold.
func bucketsBelow(s []float64, from, to int, threshold float64) int {
	n := 0
	for i := from; i < to && i < len(s); i++ {
		if s[i] < threshold {
			n++
		}
	}
	return n
}

// BucketsBelow counts get buckets of class cls in [from, to) whose hit
// count is strictly below threshold. Counts are integers, so a
// threshold of 0.5 counts full-outage (zero-hit) buckets and
// steady/2 counts half-rate buckets.
func (r OpenLoopReport) BucketsBelow(cls, from, to int, threshold float64) int {
	return bucketsBelow(r.Series[cls], from, to, threshold)
}

// SetBucketsBelow is BucketsBelow over the acked-write timeline: a
// threshold of 0.5 counts write-outage buckets.
func (r OpenLoopReport) SetBucketsBelow(cls, from, to int, threshold float64) int {
	return bucketsBelow(r.SetSeries[cls], from, to, threshold)
}

// RunOpenLoop issues one operation per Gap for Duration, advancing eng
// until the issue window closes (stragglers completing after Duration
// are not counted — as in the paper's fixed-window timeline). The
// engine's pending work (e.g. scheduled recovery events) is left in
// place.
func RunOpenLoop(eng *sim.Engine, kv AsyncKV, cfg OpenLoopConfig) OpenLoopReport {
	if cfg.Gap <= 0 || cfg.Duration <= 0 {
		panic("workload: RunOpenLoop needs positive Gap and Duration")
	}
	if cfg.Bucket <= 0 {
		cfg.Bucket = cfg.Duration / 24
	}
	if cfg.ValLen == 0 {
		cfg.ValLen = 64
	}
	if cfg.Classes < 1 {
		cfg.Classes = 1
	}
	rep := OpenLoopReport{
		Series:    make([][]float64, cfg.Classes),
		SetSeries: make([][]float64, cfg.Classes),
	}
	nb := int(cfg.Duration / cfg.Bucket)
	for c := 0; c < cfg.Classes; c++ {
		rep.Series[c] = make([]float64, nb)
		rep.SetSeries[c] = make([]float64, nb)
	}
	start := eng.Now()
	if len(cfg.Gauges) > 0 {
		rep.GaugeNames = make([]string, len(cfg.Gauges))
		rep.GaugeSeries = make([][]float64, len(cfg.Gauges))
		for g := range cfg.Gauges {
			rep.GaugeNames[g] = cfg.Gauges[g].Name
			rep.GaugeSeries[g] = make([]float64, nb)
		}
		for i := 0; i < nb; i++ {
			idx := i
			eng.At(start+sim.Time(idx)*cfg.Bucket+cfg.Bucket/2, func() {
				for g := range cfg.Gauges {
					rep.GaugeSeries[g][idx] = cfg.Gauges[g].Sample()
				}
			})
		}
	}
	if cfg.OnBucket != nil {
		for i := 0; i < nb; i++ {
			idx := i
			eng.At(start+sim.Time(idx+1)*cfg.Bucket, func() {
				var hits, acks float64
				for c := 0; c < cfg.Classes; c++ {
					hits += rep.Series[c][idx]
					acks += rep.SetSeries[c][idx]
				}
				cfg.OnBucket(idx, hits, acks)
			})
		}
	}
	opN := 0
	var issue func()
	issue = func() {
		if eng.Now()-start >= cfg.Duration {
			return
		}
		key := cfg.Keys.Next()
		cls := 0
		if cfg.Classify != nil {
			cls = cfg.Classify(key)
		}
		opN++
		if cfg.WriteEvery > 0 && opN%cfg.WriteEvery == 0 {
			rep.SetsIssued++
			kv.SetAsync(key, Value(key, int(cfg.ValLen)), func(_ sim.Time, err error) {
				if err != nil {
					rep.SetErrs++
					return
				}
				rep.SetsAcked++
				if cfg.OnSetAck != nil {
					cfg.OnSetAck(key)
				}
				if idx := int((eng.Now() - start) / cfg.Bucket); idx >= 0 && idx < nb {
					rep.SetSeries[cls][idx]++
				}
			})
		} else {
			rep.Issued++
			kv.GetAsync(key, cfg.ValLen, func(_ []byte, lat sim.Time, ok bool) {
				if !ok {
					rep.Misses++
					return
				}
				rep.Hits++
				rep.HitLat.Add(lat)
				if idx := int((eng.Now() - start) / cfg.Bucket); idx >= 0 && idx < nb {
					rep.Series[cls][idx]++
				}
			})
		}
		kv.Flush()
		eng.After(cfg.Gap, issue)
	}
	issue()
	eng.RunUntil(start + cfg.Duration)
	return rep
}

// RunClosedLoop drives kv with Window concurrent users until Requests
// operations have been issued and every operation has completed,
// advancing eng as needed. The engine must be otherwise idle: the run
// owns the virtual clock until it returns.
func RunClosedLoop(eng *sim.Engine, kv AsyncKV, cfg ClosedLoopConfig) LoadReport {
	if cfg.Window < 1 {
		cfg.Window = 1
	}
	if cfg.Requests < 1 {
		cfg.Requests = 1
	}
	if cfg.ValLen == 0 {
		cfg.ValLen = 64
	}

	getStats := &sim.LatencyStats{}
	hitStats := &sim.LatencyStats{}
	missStats := &sim.LatencyStats{}
	setStats := &sim.LatencyStats{}
	delStats := &sim.LatencyStats{}
	rep := LoadReport{Requests: cfg.Requests}
	start := eng.Now()
	lastDone := start
	issued := 0
	completed := 0
	sample := func() {
		completed++
		if cfg.SampleEvery > 0 && cfg.OnSample != nil && completed%cfg.SampleEvery == 0 {
			cfg.OnSample(completed)
		}
	}

	// user is one closed-loop client: it keeps exactly one operation —
	// get, set or delete — outstanding at a time. Sets and deletes
	// block the loop slot for their quorum-ack latency, just as gets
	// block for their response.
	var user func()
	user = func() {
		if issued >= cfg.Requests {
			return
		}
		issued++
		key := cfg.Keys.Next()
		if cfg.DeleteEvery > 0 && issued%cfg.DeleteEvery == 0 {
			rep.Dels++
			kv.DeleteAsync(key, func(lat sim.Time, err error) {
				if err != nil {
					rep.DelErrs++
				}
				delStats.Add(lat)
				lastDone = eng.Now()
				sample()
				user()
				kv.Flush()
			})
			return
		}
		if cfg.WriteEvery > 0 && issued%cfg.WriteEvery == 0 {
			rep.Sets++
			kv.SetAsync(key, Value(key, int(cfg.ValLen)), func(lat sim.Time, err error) {
				if err != nil {
					rep.SetErrs++
				}
				setStats.Add(lat)
				lastDone = eng.Now()
				sample()
				user()
				kv.Flush()
			})
			return
		}
		rep.Gets++
		kv.GetAsync(key, cfg.ValLen, func(_ []byte, lat sim.Time, ok bool) {
			if ok {
				rep.Hits++
				hitStats.Add(lat)
			} else {
				rep.Misses++
				missStats.Add(lat)
			}
			getStats.Add(lat)
			lastDone = eng.Now()
			sample()
			user()
			kv.Flush()
		})
	}
	for i := 0; i < cfg.Window && issued < cfg.Requests; i++ {
		user()
	}
	kv.Flush()
	eng.Run()

	rep.Elapsed = lastDone - start
	if rep.Elapsed > 0 {
		if rep.Gets > 0 {
			rep.GetsPerSec = float64(rep.Gets) / rep.Elapsed.Seconds()
		}
		if rep.Sets > 0 {
			rep.SetsPerSec = float64(rep.Sets) / rep.Elapsed.Seconds()
		}
		if rep.Dels > 0 {
			rep.DelsPerSec = float64(rep.Dels) / rep.Elapsed.Seconds()
		}
	}
	rep.Avg = getStats.Avg()
	rep.P50 = getStats.Percentile(50)
	rep.P99 = getStats.Percentile(99)
	rep.P999 = getStats.Percentile(99.9)
	rep.HitP50 = hitStats.Percentile(50)
	rep.HitP99 = hitStats.Percentile(99)
	rep.MissP50 = missStats.Percentile(50)
	rep.MissP99 = missStats.Percentile(99)
	rep.Censored = int(missStats.N())
	rep.SetP50 = setStats.Percentile(50)
	rep.SetP99 = setStats.Percentile(99)
	rep.DelP50 = delStats.Percentile(50)
	rep.DelP99 = delStats.Percentile(99)
	return rep
}
