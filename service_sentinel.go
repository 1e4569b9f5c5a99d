package redn

import (
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The SLO sentinel + flight recorder: the service noticing that it is
// unhealthy and capturing the evidence before it scrolls away.
//
// Two fixed-memory pieces run permanently once ServiceConfig.Sentinel
// is set: a metric-sample ring snapshotting the registry on an
// activity-armed tick, and an SLO engine evaluating burn-rate rules
// over those samples. When a rule transitions into firing, the
// sentinel freezes what it has — metric timelines, resource
// bottleneck report, the rule's burn evidence and, when the service is
// traced, the trace window those samples cover — into a deterministic
// incident bundle (telemetry.Incident). It keeps no trace of its own:
// a run is a deterministic function of its config and seed, so the
// same run with ServiceConfig.Trace on is the untraced incident's
// replay.
//
// The tick is armed by op arrivals (GetAsync / SetAsync / DeleteAsync
// / migrator ticks / workload bucket feeds) and re-arms itself only
// while the metrics are still moving, mirroring armMigration and
// armAntiEntropy: an idle service leaves the simulation engine
// drainable, under sustained load the effect is a periodic sampler.

// Sentinel timing defaults: sample every DefaultSentinelEvery; rules
// confirm a burn on a DefaultSLOFast window and demand evidence volume
// over DefaultSLOSlow (the 1:5 fast/slow ratio of multi-window
// burn-rate alerting, scaled to fabric microseconds).
const (
	DefaultSentinelEvery = 50 * sim.Microsecond
	DefaultSLOFast       = 500 * sim.Microsecond
	DefaultSLOSlow       = 2500 * sim.Microsecond
	// defaultSlowGetLat is the fleet latency SLO: a served get slower
	// than this is a "slow op" for the latency-burn rule.
	defaultSlowGetLat = sim.Millisecond
	// defaultMaxIncidents bounds retained incident bundles.
	defaultMaxIncidents = 16
)

// defaultSLORules is the anomaly taxonomy the sentinel watches out of
// the box. Classes: "crash" (suspicion transitions from timeout
// bursts), "overload" (AIMD windows shedding slots to ECN cuts),
// "write-availability" (quorum failures), "outage" (workload buckets
// with zero hits, via FeedWorkloadBucket), "migration" (a resharding
// backlog sustained past the slow window), "migration-stall" (backlog
// with no segments sealing — stuck, not busy), "latency" (fleet-wide
// slow-get burn over the merged per-shard histograms), and
// "repair-backlog" (hint + repair records sustained deep).
func defaultSLORules() []telemetry.Rule {
	return []telemetry.Rule{
		{Name: "crash-suspects", Class: "crash",
			Metrics:   []string{"svc/suspects"},
			Threshold: 1, Fast: DefaultSLOFast, Slow: DefaultSLOSlow},
		{Name: "window-cut-storm", Class: "overload",
			Metrics:   []string{"svc/ecn_shed"},
			Threshold: 64, Fast: DefaultSLOFast, Slow: DefaultSLOSlow},
		{Name: "quorum-errors", Class: "write-availability",
			Metrics:   []string{"svc/quorum_fails"},
			Threshold: 4, Fast: DefaultSLOFast, Slow: DefaultSLOSlow},
		{Name: "outage-buckets", Class: "outage",
			Metrics: []string{"wl/outage"}, Level: true,
			Threshold: 1, Fast: DefaultSLOFast, Slow: DefaultSLOSlow},
		{Name: "migration-backlog", Class: "migration",
			Metrics: []string{"svc/migrating_buckets"}, Level: true,
			Threshold: 1, Fast: DefaultSLOFast, Slow: DefaultSLOSlow},
		{Name: "migration-stall", Class: "migration-stall",
			Metrics: []string{"svc/migrating_buckets"}, Level: true,
			Threshold: 1, Fast: DefaultSLOFast, Slow: DefaultSLOSlow,
			StallOf: "svc/mig_segs_sealed"},
		{Name: "latency-burn", Class: "latency",
			Metrics:   []string{"fleet/get_slow"},
			Threshold: 50, Fast: DefaultSLOFast, Slow: DefaultSLOSlow},
		{Name: "repair-backlog", Class: "repair-backlog",
			Metrics: []string{"svc/hints_pending", "svc/repairs_pending"}, Level: true,
			Threshold: 256, Fast: DefaultSLOFast, Slow: DefaultSLOSlow},
	}
}

// sentinel is the per-service runtime state behind ServiceConfig.Sentinel.
type sentinel struct {
	rec       *telemetry.Recorder
	slo       *telemetry.SLO
	armed     bool
	tickFn    func() // the armed tick, bound once
	incidents []*telemetry.Incident

	// fleetLat is the merge scratch for fleet-wide get percentiles:
	// reset and re-merged from the per-shard histograms at each gauge
	// sample, so the ~8 KiB buckets are reused, never reallocated.
	fleetLat sim.LatencyStats

	// Workload bucket feed (FeedWorkloadBucket): the last closed
	// open-loop bucket's hit/ack counts and the derived outage flag.
	wlWired        bool
	wlHits, wlAcks float64
	wlOutage       float64
}

// initSentinel builds the sentinel when configured. Runs after the
// registry and shards exist; the fleet gauges read s.order at sample
// time, so shards joining or draining later are covered automatically.
func (s *Service) initSentinel() {
	if !s.cfg.Sentinel {
		return
	}
	sen := &sentinel{}
	s.sen = sen
	sen.tickFn = func() {
		sen.armed = false
		s.sentinelTick()
	}
	// Fleet-wide latency SLO inputs: per-shard get histograms merged
	// into one distribution each sample (sim.LatencyStats.Merge).
	// fleet/get_slow is cumulative and monotone — a delta-able slow-op
	// counter; fleet/get_p99_us is the merged tail for timelines.
	s.reg.Gauge("fleet/get_slow", func() float64 {
		return float64(s.fleetGetLat().CountAbove(s.cfg.slowGetLat))
	})
	s.reg.Gauge("fleet/get_p99_us", func() float64 {
		return float64(s.fleetGetLat().P99()) / float64(sim.Microsecond)
	})
	rules := s.cfg.sentinelRules
	if rules == nil {
		rules = defaultSLORules()
	}
	// Size the metric-sample ring to cover the widest rule's slow window
	// with headroom, so coverage-gated evaluation starts as soon as it
	// validly can.
	var slow sim.Time
	for _, r := range rules {
		if r.Slow > slow {
			slow = r.Slow
		}
	}
	samples := int(slow/DefaultSentinelEvery) + 14
	if samples < telemetry.DefaultRingSamples {
		samples = telemetry.DefaultRingSamples
	}
	sen.rec = telemetry.NewRecorder(s.tb.clu.Eng, s.reg, samples)
	sen.slo = telemetry.NewSLO(sen.rec, rules, defaultMaxIncidents)
}

// fleetGetLat merges every shard's get-latency histogram into the
// sentinel's scratch stats and returns it (valid until the next call).
func (s *Service) fleetGetLat() *sim.LatencyStats {
	sen := s.sen
	sen.fleetLat.Reset()
	for _, sh := range s.order {
		sen.fleetLat.Merge(sh.getLat)
	}
	return &sen.fleetLat
}

// sentinelKick arms one sentinel tick DefaultSentinelEvery from now unless
// one is already pending — the activity-armed pattern shared with
// armMigration/armAntiEntropy. Called from the op entry points; cheap
// enough (two loads and a branch) for every hot path, and a no-op
// with the sentinel off.
func (s *Service) sentinelKick() {
	sen := s.sen
	if sen == nil || sen.armed {
		return
	}
	sen.armed = true
	s.tb.clu.Eng.After(DefaultSentinelEvery, sen.tickFn)
}

// sentinelTick records one metric sample, evaluates the SLO rules,
// captures incident bundles for anything that fired, and re-arms while
// the metrics are still moving. Sampling is read-only with respect to
// simulation state, so a run with the sentinel on is op-for-op
// identical in virtual time to the same seed with it off.
func (s *Service) sentinelTick() {
	sen := s.sen
	sen.rec.Record()
	for _, a := range sen.slo.Evaluate() {
		s.captureIncident(a)
	}
	if sen.moving() {
		s.sentinelKick()
	}
}

// moving reports whether the last two samples differ — the disarm
// condition: when nothing changed across a full tick (no ops, gauges
// settled, backlog drained), the sampler stops until the next kick.
func (sen *sentinel) moving() bool {
	n := sen.rec.Len()
	if n < 2 {
		return true
	}
	a, b := sen.rec.At(n-2), sen.rec.At(n-1)
	if len(a.Metrics) != len(b.Metrics) {
		return true
	}
	for i := range a.Metrics {
		if a.Metrics[i].Value != b.Metrics[i].Value {
			return true
		}
	}
	return false
}

// captureIncident freezes the flight recorder into a bundle for one
// firing anomaly: the metric timelines, the resource report, the burn
// evidence, and the traced run's window (balanced for export). Bundles are
// kept in memory (Incidents()).
func (s *Service) captureIncident(a telemetry.Anomaly) {
	sen := s.sen
	if len(sen.incidents) >= defaultMaxIncidents {
		return
	}
	inc := telemetry.BuildIncident(len(sen.incidents)+1, a, sen.rec, s.tr, s.resourceReport())
	if s.prov != nil && a.Class == "latency" {
		// Latency incidents carry their own explanation: the phase
		// decomposition at capture time says which leg of the
		// critical path the burn came from.
		inc.Provenance = s.prov.DecomposeAll()
	}
	sen.incidents = append(sen.incidents, inc)
}

// Incidents returns the captured incident bundles, oldest first (nil
// with the sentinel off or while healthy).
func (s *Service) Incidents() []*telemetry.Incident {
	if s.sen == nil {
		return nil
	}
	return s.sen.incidents
}

// FeedWorkloadBucket feeds one closed open-loop timeline bucket into
// the sentinel — the workload.OpenLoopConfig.OnBucket hook. hits and
// acks are the bucket's served-get and acked-write counts; a bucket
// with zero hits raises the wl/outage level the outage-buckets rule
// watches. No-op with the sentinel off.
func (s *Service) FeedWorkloadBucket(bucket int, hits, acks float64) {
	sen := s.sen
	if sen == nil {
		return
	}
	if !sen.wlWired {
		sen.wlWired = true
		s.reg.Gauge("wl/bucket_hits", func() float64 { return sen.wlHits })
		s.reg.Gauge("wl/bucket_acks", func() float64 { return sen.wlAcks })
		s.reg.Gauge("wl/outage", func() float64 { return sen.wlOutage })
	}
	sen.wlHits, sen.wlAcks = hits, acks
	if hits == 0 {
		sen.wlOutage = 1
	} else {
		sen.wlOutage = 0
	}
	_ = bucket
	s.sentinelKick()
}
