package redn

import (
	"fmt"
	"reflect"
	"slices"

	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/fabric"
	"repro/internal/failure"
	"repro/internal/hopscotch"
	"repro/internal/repair"
	"repro/internal/ring"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// ReadPolicy selects which replica owner serves a get when Replicas > 1.
type ReadPolicy int

const (
	// ReadPrimary sends every get to the key's primary ring owner
	// (write-all/read-primary, the pre-replica-read behavior). Backups
	// still serve as failover targets when the primary times out.
	ReadPrimary ReadPolicy = iota
	// ReadRoundRobin rotates gets across all replica owners.
	ReadRoundRobin
	// ReadLeastInflight sends each get to the owner whose client
	// connections currently hold the fewest outstanding gets.
	ReadLeastInflight
	// ReadHotSpread keeps cold keys on their primary (one authoritative
	// server per key) but rotates the tracked top-k hot keys — those
	// already tracked when the get is issued — across all owners: skew
	// relief without giving up primary locality.
	ReadHotSpread
)

func (p ReadPolicy) String() string {
	switch p {
	case ReadRoundRobin:
		return "round-robin"
	case ReadLeastInflight:
		return "least-inflight"
	case ReadHotSpread:
		return "hot-spread"
	}
	return "primary"
}

// cacheHitLat is the virtual cost of serving a get from the client's
// local hot-key cache: a hash probe and a short copy in client memory,
// no NIC involved.
const cacheHitLat = 150 * sim.Nanosecond

// cacheAdmitCount is the estimated access count a hot key needs before
// its value is admitted to the client-side cache. It is the sketch's
// estimate, not a tally: a newcomer inherits the evicted minimum's count.
const cacheAdmitCount = 8

// hotTrackPerEntry is how many tracker counters the service keeps per
// cache entry. A cached value lives only while its key holds a counter,
// and a k-counter space-saving sketch keeps only keys above ~1/k of the
// stream, so a sketch the size of the cache drops much of the hot set
// it is meant to hold. Fed 400 K seeded Zipf 1.1 draws over 10 K keys,
// sketches of 1x, 2x and 4x a cache size C of 1024 hold 50 %, 82 % and
// 100 % of the true top-C (TestHotKeysSizedForTopC), and the cache
// replayed over that stream hits 0.78, 0.80 and 0.82 of it, against
// 0.85 for a cache pinned to the true top-C.
const hotTrackPerEntry = 4

// defaultSuspectAfter and defaultSuspectFor shape crash detection:
// after defaultSuspectAfter consecutive timeouts a shard is presumed
// dead and its circuit breaker opens — gets go to other replica owners
// and writes hint — until something proves it alive. Every
// defaultSuspectFor the breaker goes half-open: the next routing
// decision that steers an op around the shard sends it one dedicated
// liveness probe, whose answer closes the breaker and whose timeout
// re-arms the window. User ops never pay for the probing.
const (
	defaultSuspectAfter = 4
	defaultSuspectFor   = 25 * sim.Millisecond
)

// defaultAdmitBacklog is the NIC backlog watermark above which an
// admission-controlled shard stops accepting new requests. It sits
// well above defaultEcnBacklog (the AIMD cut point) so window-controlled
// clients rarely trip it — admission is the safety net for open-loop
// offered load that outruns what backoff alone can absorb, while
// staying under DefaultMissTimeout so shedding beats timing out.
const defaultAdmitBacklog = 100 * sim.Microsecond

// ServiceConfig sizes a sharded RedN KV service.
type ServiceConfig struct {
	Shards          int        // server nodes, each with its own NIC and table
	ClientsPerShard int        // client nodes connected to each shard
	Pipeline        int        // gets in flight per client connection
	Mode            LookupMode // probe strategy of every offload context
	Replicas        int        // ring owners written per Set (>=1)

	// WriteQuorum is W of the W-of-N write quorum: a set acknowledges
	// once W of its Replicas owners have applied it; the remaining
	// owners complete in the background (or via hinted handoff when
	// down). 0 selects write-all (W = Replicas), under which any owner
	// failure surfaces as a *QuorumError — with the replicas that did
	// apply rolled forward through hints, never rolled back.
	WriteQuorum int

	ReadPolicy  ReadPolicy // which replica owner serves a get
	HotKeyTrack int        // least top-k tracker size (0 = 64 when hot routing/caching is on); the tracker keeps max(HotKeyTrack, 4*HotKeyCache) counters
	HotKeyCache int        // client-side hot-value cache entries (0 = disabled)

	HullParent bool // crashed processes keep their RDMA resources (Fig 16)

	Buckets     uint64 // hopscotch buckets per shard
	MaxValLen   uint64 // largest value a get can return or a set can store
	MissTimeout Duration

	// SegmentSize is the extent arena's segment granularity per shard
	// (0 = a power-of-two multiple of MaxValLen; see NewServiceWith).
	SegmentSize uint64
	// CompactEvery, when nonzero, runs a background compaction pass per
	// shard on that period: sealed segments whose live fraction is
	// below CompactThreshold are evacuated at modeled host copy cost.
	CompactEvery Duration
	// CompactThreshold is the live fraction below which a segment is
	// evacuated (0 = 0.5).
	CompactThreshold float64
	// NoReclaim puts every shard arena in leak-forever mode: frees
	// still account (live bytes stay truthful) but memory is never
	// reused and compaction is a no-op — reproducing the pre-lifecycle
	// allocator. Only the churn experiment's baseline should want this.
	NoReclaim bool

	// ReadRepair enables version probes on replicated gets: every
	// ProbeEvery-th hit also interrogates one other owner's version
	// word through the NIC probe chain (core.ProbeOffload), and any
	// skew enqueues a repair that rolls the laggard forward. Requires
	// Replicas > 1 to do anything.
	ReadRepair bool
	// ProbeEvery probes every n-th replicated hit (0 or 1 = every hit).
	ProbeEvery int
	// AntiEntropyEvery, when nonzero, runs the background anti-entropy
	// sweeper: each tick scans one shard (rotating), diffs Merkle-style
	// segment digests against every co-owner, and enqueues repairs for
	// divergent keys — bounding staleness even for keys no client ever
	// reads. Activity-armed like the compactor.
	AntiEntropyEvery Duration
	// AntiEntropySegments is the per-shard digest segment count over
	// which sweeps summarize bucket versions (0 = 64).
	AntiEntropySegments int
	// NoRepair disables the repair subsystem entirely — capacity
	// rejections are dropped on the floor again and nothing probes or
	// sweeps. The pre-repair behavior, kept for the repair experiment's
	// divergence baseline.
	NoRepair bool

	// AdaptiveWindow puts every client pipeline under AIMD congestion
	// control instead of the fixed Pipeline-deep window: start at 16
	// slots (at most Pipeline), grow additively on clean acks, halve on
	// timeout and on the ECN-like backlog watermark (25us of PU backlog)
	// the NIC stamps into completions. Off, windows are pinned to
	// Pipeline (the pre-adaptive fixed-K behavior).
	AdaptiveWindow bool

	// Admission enables server-side admission control: a shard whose
	// NIC backlog watermark exceeds 100us is overloaded —
	// new gets defer to other replica owners or shed outright, and
	// writes shed with a typed *ErrOverload when too few owners can
	// admit them. Clients back off on the signal instead of stacking
	// more timeouts onto a saturated NIC.
	Admission bool

	// MigrateEvery is the background migrator's tick period during a
	// live resharding (AddShard/DrainShard): each tick copies and seals
	// a batch of moving bucket segments (0 = 20us).
	MigrateEvery Duration
	// MigrateBatch is how many bucket segments one migrator tick starts
	// (0 = 4).
	MigrateBatch int

	// Trace makes the service record per-op trace spans through every
	// layer (service fan-out, client slots, WRs on NIC PUs) for
	// trace-event JSON export, on a tracer built on its testbed's engine
	// (which does not exist until NewServiceWith constructs it).
	// Retrieve it with Tracer() after construction. Off, tracing costs
	// nothing.
	Trace bool

	// Sentinel enables the always-on SLO sentinel + flight recorder
	// (service_sentinel.go): a bounded ring tracer replaces the
	// grow-forever tracer (built automatically when Trace is off),
	// registry snapshots land in a fixed metric-sample ring on an
	// activity-armed DefaultSentinelEvery tick, and burn-rate SLO rules
	// evaluate each tick. A firing rule snapshots a deterministic
	// incident bundle (at most 16 are kept); read them back with
	// Incidents() and Stats().Anomalies.
	Sentinel bool

	// Provenance enables per-op latency receipts: every get/set/delete
	// (and probe) accumulates a fixed-size phase ledger — window wait,
	// client queue, doorbell batching, fabric time, quorum stitching,
	// retry legs — partitioned so the phases sum exactly to the observed
	// latency. Aggregated per op class into bounded histograms plus a
	// top-N slowest-receipt heap; read them with Provenance() and
	// Stats().Provenance. Off, every receipt path is a nil check.
	Provenance bool
	// Profile enables the virtual-time profiler: every grant on a
	// server NIC resource (PU, fetch unit, link, PCIe, atomic unit) is
	// attributed to (op class, shard, resource) with queue-wait and
	// execution split, exported as folded stacks for flamegraphs.
	// Retrieve with Profiler(). Off, the grant path is a nil check.
	Profile bool

	// Test hooks, each left at its default outside the package's tests.
	// repairEvery is the repair queue's service tick: pending records
	// are applied in batches on this period, activity-armed like the
	// compactor (0 = defaultRepairEvery). The queue is live whenever
	// Replicas > 1 — capacity-rejected owners land in it even with
	// ReadRepair off. sentinelRules overrides the sentinel's rule set
	// (nil = defaultSLORules()), and slowGetLat its fleet latency-burn
	// threshold: gets slower than this count toward the "latency" SLO
	// (0 = defaultSlowGetLat).
	repairEvery   Duration
	sentinelRules []telemetry.Rule
	slowGetLat    Duration
}

// defaultServiceConfig returns the production-shaped defaults: 16-deep
// pipelines, sequential two-bucket probing (writes may place keys in
// either candidate bucket), 4 KiB values.
func defaultServiceConfig(nShards, clientsPerShard int) ServiceConfig {
	return ServiceConfig{
		Shards:          nShards,
		ClientsPerShard: clientsPerShard,
		Pipeline:        16,
		Mode:            LookupSeq,
		Replicas:        1,
		Buckets:         1 << 15,
		MaxValLen:       4096,
		MissTimeout:     DefaultMissTimeout,
	}
}

// Simulated memory per service node: servers hold the table, the value
// arena and every connection's chain rings; clients only per-slot
// buffers.
const (
	serviceServerMem = 1 << 27
	serviceClientMem = 1 << 23
)

// adaptiveWindowStart is an adaptive window's initial size (capped at
// Pipeline). Starting at the full Pipeline depth would open with a
// thundering herd the AIMD loop then has to pay for in timeouts;
// starting modestly lets additive increase probe up to the knee.
const adaptiveWindowStart = 16

// serviceShard is one server node: a hash table plus its connected
// pipelined clients.
type serviceShard struct {
	id      string
	svc     *Service // the owning service, for callbacks bound to the shard
	srv     *Server
	table   *HashTable
	mode    LookupMode
	clients []*Client
	cnodes  []*fabric.Node // client nodes, kept for reconnection
	rr      int            // round-robin client cursor
	ringIdx int32          // position in the ring's node table (-1: not on the ring)

	// The shard's coordinator-side trace track names, built once at
	// wiring so a traced op concatenates nothing: get attempts, voting
	// and auxiliary write legs, hint and repair instants.
	trTry, trLeg, trAux, trHint, trRepair string

	// Crash-detection state, driven purely by observed timeouts.
	hostDown     bool     // host-side service (kick-path sets) unavailable
	consecMiss   int      // timeouts since the last confirmed hit
	suspectUntil sim.Time // nonzero while the breaker is open; once passed, probeLapsed probes
	probing      bool     // the liveness probe is in flight on probeCli
	probeCli     *Client
	probeFn      func(val []byte, lat Duration, ok bool) // probed, bound once

	// Write-path state: hints hold the newest value (or tombstone) each
	// down owner is missing (hinted handoff), inflightSet serializes
	// same-key writes AND deletes so per-key order survives the
	// pipelined fabric.
	hints       map[uint64]*hint
	inflightSet map[uint64]ring.Queue[func()]

	// tombVer records the newest delete sequence THIS owner applied per
	// key — coordinator metadata standing in for scanning tombstoned
	// buckets, whose version words lose their key identity once the
	// bucket is reclaimed by another key. ownerState consults it so the
	// repair subsystem can order "deleted at seq v" against a live
	// replica instead of conflating deletion with a missed write.
	tombVer map[uint64]uint64

	// arena is the shard's value-extent allocator — always present;
	// under NoReclaim it keeps accounting but never reuses memory
	// (extent.SetNoReclaim), so every allocation path is uniform.
	arena *extent.Arena
	// retiring holds the extents cooling off before they return to the
	// arena, oldest first; freeRetired, bound once, frees the oldest.
	// Every cool-off is the same extentGraceLat, so the events fire in
	// the order the extents were queued.
	retiring    ring.Queue[uint64]
	freeRetired func()

	// stats holds the shard's counters (the ShardStats fields tagged
	// `metric`), which the registry reads in place; Stats() copies the
	// struct and fills in the rest.
	stats        ShardStats
	compactArmed bool

	// getLat accumulates hit latency for gets this shard served (a
	// failover hit carries the timeouts spent discovering dead owners).
	// The sentinel merges these per-shard histograms into fleet-wide
	// percentiles each tick (sim.LatencyStats.Merge).
	getLat *sim.LatencyStats
}

// initMetrics registers the shard's counters under its id: each
// ShardStats field tagged `metric`, by address.
func (sh *serviceShard) initMetrics(reg *telemetry.Registry) {
	v := reflect.ValueOf(&sh.stats).Elem()
	for i := range v.NumField() {
		if name, ok := v.Type().Field(i).Tag.Lookup("metric"); ok {
			reg.Bind(sh.id+"/"+name, (*telemetry.Counter)(v.Field(i).Addr().Interface().(*uint64)))
		}
	}
	sh.getLat = reg.Histogram(sh.id + "/get_lat")
}

// extentGraceLat is how long a superseded or deleted value extent
// cools before returning to the arena. A lookup chain that probed the
// bucket just before it was repointed still holds the old extent
// pointer in its response WQE; the response WRITE executes within the
// chain's own span (well under this grace), so deferring the free
// keeps arena reuse from handing those bytes to another key while a
// reader is mid-flight. Chains the NIC never received don't probe at
// all, so nothing outlives the grace.
const extentGraceLat = 10 * sim.Microsecond

// retireExtent returns addr to the shard's arena after the read-grace
// period. Extents that were never published to a bucket (refused-claim
// staging) skip the grace and free directly.
func (sh *serviceShard) retireExtent(addr uint64) {
	*sh.retiring.Push() = addr
	sh.srv.tb.clu.Eng.After(extentGraceLat, sh.freeRetired)
}

// inflight sums outstanding and queued gets across the shard's client
// connections (the ReadLeastInflight load signal).
func (sh *serviceShard) inflight() int {
	n := 0
	for _, cli := range sh.clients {
		st := cli.pipelineStats(pipeGet)
		n += st.InFlight + st.Queued
	}
	return n
}

// down reports whether the shard's circuit breaker is open: it is
// presumed dead until a hit, an executed miss, an acked write, a probe
// answer or a reconnect proves otherwise.
func (sh *serviceShard) down() bool { return sh.suspectUntil != 0 }

// markLive closes the breaker: sh just proved itself alive.
func (sh *serviceShard) markLive() { sh.consecMiss, sh.suspectUntil = 0, 0 }

// noteOwnerMiss records one unexecuted-chain timeout against sh — the
// crash symptom, as opposed to an executed miss — and opens the breaker
// after defaultSuspectAfter consecutive ones; a timeout while it is
// open re-arms the window. Only the healthy-to-suspected transition
// increments svc/suspects, the SLO sentinel's crash signal: one count
// per outage, however many probes it takes to see the shard back.
func (s *Service) noteOwnerMiss(sh *serviceShard) {
	sh.consecMiss++
	if sh.consecMiss >= defaultSuspectAfter {
		if !sh.down() {
			s.suspects++
		}
		sh.suspectUntil = s.tb.Now() + defaultSuspectFor
	}
}

// probeLapsed runs where an op is steered around a down shard: once the
// suspect window has lapsed, and unless a probe is already in flight, it
// sends the shard's liveness probe — an 8-byte get of key on the next
// connection. The op that asked stays on live owners.
func (s *Service) probeLapsed(sh *serviceShard, key uint64) {
	if sh.probing || s.tb.Now() < sh.suspectUntil {
		return
	}
	sh.probing = true
	sh.probeCli = sh.clients[sh.rr%len(sh.clients)]
	sh.rr++
	sh.probeCli.GetAsync(key, 8, sh.probeFn)
	sh.probeCli.Flush()
}

// probed is the liveness probe's answer: a hit or an executed miss
// closes the breaker and hands off the hints that piled up behind it;
// silence re-arms the window.
func (sh *serviceShard) probed(_ []byte, _ Duration, ok bool) {
	s, cli := sh.svc, sh.probeCli
	sh.probing, sh.probeCli = false, nil
	if !ok && !cli.lastExecuted(pipeGet) {
		s.noteOwnerMiss(sh)
		return
	}
	sh.markLive()
	if len(sh.hints) > 0 && !sh.hostDown {
		s.drainHints(sh)
	}
}

// overloaded reports whether admission control should refuse new work
// on sh: its NIC's PU backlog watermark is past the admission
// threshold. Always false with Admission off.
func (s *Service) overloaded(sh *serviceShard) bool {
	return s.cfg.Admission &&
		sh.srv.node.Dev.BacklogWatermark(s.tb.Now()) > defaultAdmitBacklog
}

// Service is a sharded key-value service served entirely by NICs: a
// consistent-hash ring routes 48-bit keys across N server nodes, each
// running a hopscotch table with a pre-armed LookupOffload pool and a
// SetOffload pool per client connection. Gets and sets are both
// asynchronous and pipelined through the fabric: a set claims the
// key's bucket with a NIC-side CAS on each of its replica owners and
// acknowledges at a W-of-N quorum, with hinted handoff carrying the
// write to owners that were down (see service_write.go). Only the
// cuckoo-kick relocation path still runs on the host CPU.
type Service struct {
	cfg    ServiceConfig
	tb     *Testbed
	ring   *shard.Ring
	shards map[string]*serviceShard
	order  []*serviceShard // insertion order for deterministic iteration
	// ringShards resolves the ring's node table (shard.Ring.Nodes order,
	// what LookupNodes indexes) to shards; ringChanged refreshes it on
	// every membership change, so routing an op does no map lookup.
	ringShards []*serviceShard

	// Pooled op records (DESIGN.md §4, "Op records").
	gets recordPool[getOp]
	sets recordPool[setOp]
	runs recordPool[ownerRun]

	hot      *shard.HotKeys    // top-k access tracker (hot routing / cache admission)
	cache    map[uint64][]byte // client-side hot-value cache
	setEpoch map[uint64]uint64 // per-key write counter guarding cache admission
	rrSpread int               // rotation cursor for spreading policies

	// nextSeq issues per-key write sequence numbers: the coordinator
	// serializes same-key writes, and hints carry their sequence so a
	// drain can never resurrect a superseded value.
	nextSeq map[uint64]uint64
	// unsettled counts writes per key that some owner has not yet
	// resolved (applied, drained, or superseded). While nonzero, a
	// lagging replica may legally serve an older value — so the cache
	// must not admit reads of the key (a stale admission would outlive
	// the lag it came from).
	unsettled map[uint64]int

	// settleHook, when set (tests), runs once per write when every
	// owner has resolved it: applied, drained, or superseded by a newer
	// hint. The write's value can no longer "appear late" anywhere.
	settleHook func(key, seq uint64)
	// applyHook, when set (tests), runs on every successful owner-level
	// apply (fabric ack, host path, hint drain, or repair) — the
	// linearizability checker's per-replica visibility signal.
	applyHook func(shardID string, key, seq uint64)

	// Repair subsystem state (service_repair.go): the pending-record
	// queue, its activity-armed tick, the anti-entropy sweeper's arm
	// and rotating shard cursor, and the read-repair probe rotation.
	repq        *repair.Queue
	repairArmed bool
	aeArmed     bool
	aeCursor    int
	aeCleanRun  int // consecutive sweeps that found no divergence
	// Sweep scratch, reused by every sweep: the root's and the partner's
	// binned scans, the per-segment dedup set, and the findings of the
	// sweep whose digest charge is elapsing (aeSettling).
	aeRoot, aePartner aeBins
	aeSeen            map[uint64]struct{}
	aeFound           []aeFound
	aeSettling        bool
	aeSettleFn        func()
	probeTick         uint64
	probeCursor       int

	// Live-resharding state (service_reshard.go): the active migration
	// (nil while membership is stable), its tick arm, the monotonically
	// increasing ownership epoch, the cache generation that fences the
	// hot-value cache across ownership changes, and the log of finished
	// migrations.
	mig      *migration
	migArmed bool
	migEpoch uint64
	cacheGen uint64
	migLog   []MigrationSummary

	// Service-level counters, which reg reads in place as "svc/<name>"
	// (initMetrics) and Stats copies out; ServiceStats documents each.
	hits, misses, retries, cacheHits uint64
	setOps, delOps, quorumFails      uint64
	probes, probeSkews               uint64
	aePasses, aeSegsDiffed           uint64
	aeKeysChecked                    uint64
	deferredGets, shedGets           uint64
	shedWrites, suspects             uint64
	migKeysMoved, migKeysSkipped     uint64
	migSegsSealed, migCopyFails      uint64
	migHintsRedirected               uint64

	reg *telemetry.Registry // metrics registry (counters, queue-depth gauges)
	tr  *telemetry.Tracer   // nil = tracing disabled
	sen *sentinel           // SLO sentinel + flight recorder (nil = off)

	// Latency-provenance state: the per-class receipt aggregator, the
	// virtual-time profiler attached to every server NIC, and a scratch
	// receipt the coordinator folds client ledgers into before
	// recording (receipts are copied on Record, so one scratch serves
	// every op). All nil/unused when the knobs are off.
	prov        *telemetry.Provenance
	profiler    *telemetry.Profiler
	rcptScratch telemetry.Receipt

	// legRcpt is the one-slot handoff from an owner leg's apply site
	// (fabric callback or host-path completion) to the quorum
	// accounting that consumes it synchronously in the same call
	// chain: the acking leg's client receipt, or a synthesized
	// host-latency ledger. legValid guards against adopting a stale
	// note from an earlier leg.
	legRcpt  telemetry.Receipt
	legValid bool

	// utilBase snapshots per-resource busy/grant totals at the last
	// MarkUtilization, so Stats reports utilization over the measured
	// window instead of diluting it with setup-phase idle time.
	utilBase map[string]telemetry.ResourceUtil
	utilMark sim.Time
}

// initMetrics registers the service-level counters and queue-depth
// gauges.
func (s *Service) initMetrics() {
	s.reg = telemetry.NewRegistry()
	for _, c := range []struct {
		name string
		word *uint64
	}{
		{"hits", &s.hits}, {"misses", &s.misses}, {"retries", &s.retries}, {"cache_hits", &s.cacheHits},
		{"set_ops", &s.setOps}, {"del_ops", &s.delOps}, {"quorum_fails", &s.quorumFails},
		{"probes", &s.probes}, {"probe_skews", &s.probeSkews},
		{"ae_passes", &s.aePasses}, {"ae_segs_diffed", &s.aeSegsDiffed}, {"ae_keys_checked", &s.aeKeysChecked},
		{"deferred_gets", &s.deferredGets}, {"shed_gets", &s.shedGets}, {"shed_writes", &s.shedWrites},
		{"suspects", &s.suspects},
		{"mig_keys_moved", &s.migKeysMoved}, {"mig_keys_skipped", &s.migKeysSkipped},
		{"mig_segs_sealed", &s.migSegsSealed}, {"mig_copy_fails", &s.migCopyFails},
		{"mig_hints_redirected", &s.migHintsRedirected},
	} {
		s.reg.Bind("svc/"+c.name, (*telemetry.Counter)(c.word))
	}

	s.reg.Gauge("svc/hints_pending", func() float64 {
		n := 0
		for _, sh := range s.order {
			n += len(sh.hints)
		}
		return float64(n)
	})
	s.reg.Gauge("svc/repairs_pending", func() float64 { return float64(s.repq.Len()) })
	s.reg.Gauge("svc/client_inflight", func() float64 {
		n := 0
		for _, sh := range s.order {
			for _, cli := range sh.clients {
				for _, op := range []pipeOp{pipeGet, pipeSet, pipeDelete, pipeProbe} {
					n += cli.pipelineStats(op).InFlight
				}
			}
		}
		return float64(n)
	})
	// get_window sums the AIMD get-window sizes across every client
	// connection: the open-loop timelines show it collapsing on the
	// first timeout burst and probing back up as the NIC drains.
	s.reg.Gauge("svc/get_window", func() float64 {
		n := 0
		for _, sh := range s.order {
			for _, cli := range sh.clients {
				n += cli.pipelineStats(pipeGet).Window
			}
		}
		return float64(n)
	})
	// nic_backlog_us is the worst shard's PU backlog watermark — the
	// same signal the completion path stamps into acks as ECN.
	s.reg.Gauge("svc/nic_backlog_us", func() float64 {
		var max sim.Time
		now := s.tb.Now()
		for _, sh := range s.order {
			if b := sh.srv.node.Dev.BacklogWatermark(now); b > max {
				max = b
			}
		}
		return float64(max) / float64(sim.Microsecond)
	})
	s.reg.Gauge("svc/arena_live_bytes", func() float64 {
		var n uint64
		for _, sh := range s.order {
			n += sh.arena.Stats().LiveBytes
		}
		return float64(n)
	})
	// ring_nodes and migrating_buckets put membership changes on the
	// open-loop timelines: a join or drain shows up as a step in the
	// node count and a pulse of unsealed migration segments decaying to
	// zero as the migrator seals them.
	s.reg.Gauge("svc/ring_nodes", func() float64 { return float64(s.ring.Len()) })
	s.reg.Gauge("svc/migrating_buckets", func() float64 { return float64(s.migratingBuckets()) })
	// window_cuts / ecn_cuts surface the AIMD cut totals the client
	// pipelines already account — monotone except across a reconnect
	// (rebuilt connections restart at zero; the SLO engine clamps
	// negative deltas).
	s.reg.Gauge("svc/window_cuts", func() float64 {
		var n uint64
		for _, sh := range s.order {
			for _, cli := range sh.clients {
				n += cli.Stats().WindowCuts
			}
		}
		return float64(n)
	})
	s.reg.Gauge("svc/ecn_cuts", func() float64 {
		var n uint64
		for _, sh := range s.order {
			for _, cli := range sh.clients {
				n += cli.Stats().EcnCuts
			}
		}
		return float64(n)
	})
}

// Metrics exposes the service's registry (counters, gauges) for
// timeline sampling and exports.
func (s *Service) Metrics() *telemetry.Registry { return s.reg }

// Tracer returns the tracer wired at construction (nil when disabled).
func (s *Service) Tracer() *telemetry.Tracer { return s.tr }

// Provenance returns the per-op-class receipt aggregator (nil unless
// ServiceConfig.Provenance).
func (s *Service) Provenance() *telemetry.Provenance { return s.prov }

// Profiler returns the virtual-time profiler attached to the shard
// NICs (nil unless ServiceConfig.Profile).
func (s *Service) Profiler() *telemetry.Profiler { return s.profiler }

// NewService builds a service of nShards server nodes, each serving
// clientsPerShard pipelined client connections, with default sizing.
func NewService(nShards, clientsPerShard int) *Service {
	return NewServiceWith(defaultServiceConfig(nShards, clientsPerShard))
}

// NewServiceWith builds a service from an explicit configuration.
func NewServiceWith(cfg ServiceConfig) *Service {
	def := defaultServiceConfig(cfg.Shards, cfg.ClientsPerShard)
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.ClientsPerShard < 1 {
		cfg.ClientsPerShard = 1
	}
	if cfg.Pipeline < 1 {
		cfg.Pipeline = def.Pipeline
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > cfg.Shards {
		cfg.Replicas = cfg.Shards
	}
	if cfg.WriteQuorum < 1 || cfg.WriteQuorum > cfg.Replicas {
		cfg.WriteQuorum = cfg.Replicas
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = def.Buckets
	}
	if cfg.MaxValLen == 0 {
		cfg.MaxValLen = def.MaxValLen
	}
	if cfg.MissTimeout == 0 {
		cfg.MissTimeout = def.MissTimeout
	}
	if cfg.HotKeyTrack == 0 && (cfg.ReadPolicy == ReadHotSpread || cfg.HotKeyCache > 0) {
		cfg.HotKeyTrack = shard.DefaultHotKeys
	}
	if cfg.SegmentSize == 0 {
		cfg.SegmentSize = 16 * cfg.MaxValLen
		if cfg.SegmentSize < extent.DefaultSegmentSize {
			cfg.SegmentSize = extent.DefaultSegmentSize
		}
	}
	if cfg.CompactThreshold == 0 {
		cfg.CompactThreshold = 0.5
	}
	if cfg.ProbeEvery < 1 {
		cfg.ProbeEvery = 1
	}
	if cfg.repairEvery == 0 {
		cfg.repairEvery = defaultRepairEvery
	}
	if cfg.AntiEntropySegments == 0 {
		cfg.AntiEntropySegments = defaultAntiEntropySegments
	}
	if cfg.MigrateEvery == 0 {
		cfg.MigrateEvery = defaultMigrateEvery
	}
	if cfg.MigrateBatch < 1 {
		cfg.MigrateBatch = defaultMigrateBatch
	}
	if cfg.slowGetLat == 0 {
		cfg.slowGetLat = defaultSlowGetLat
	}

	s := &Service{cfg: cfg, tb: NewTestbed(), ring: shard.NewRing(shard.DefaultVirtualNodes),
		shards: make(map[string]*serviceShard), nextSeq: make(map[uint64]uint64),
		unsettled: make(map[uint64]int), repq: repair.NewQueue(),
		aeSeen: make(map[uint64]struct{})}
	s.aeSettleFn = s.aeSettled
	if cfg.Trace {
		s.tr = telemetry.NewTracer(s.tb.clu.Eng)
	} else if cfg.Sentinel {
		// Free-by-default tracing: the sentinel's trace window is a
		// fixed-memory ring, so it runs permanently without the
		// grow-forever cost that made full tracing opt-in.
		s.tr = telemetry.NewRingTracer(s.tb.clu.Eng, telemetry.DefaultRingEvents)
	}
	if cfg.Provenance {
		s.prov = telemetry.NewProvenance(telemetry.DefaultTailReceipts)
	}
	if cfg.Profile {
		s.profiler = telemetry.NewProfiler()
	}
	s.initMetrics()
	if cfg.HotKeyTrack > 0 {
		s.hot = shard.NewHotKeys(max(cfg.HotKeyTrack, hotTrackPerEntry*cfg.HotKeyCache))
	}
	if cfg.HotKeyCache > 0 {
		s.cache = make(map[uint64][]byte, cfg.HotKeyCache)
		s.setEpoch = make(map[uint64]uint64)
	}
	for i := 0; i < cfg.Shards; i++ {
		id := fmt.Sprintf("shard%d", i)
		sh := s.buildShard(id)
		if err := s.ring.AddNode(id); err != nil {
			panic(err)
		}
		s.shards[id] = sh
		s.order = append(s.order, sh)
	}
	s.ringChanged()
	s.initSentinel()
	return s
}

// ringChanged re-resolves the ring's node table to shards after a
// membership change. A shard that left the ring but not yet the service
// (a drain in progress) has ringIdx -1.
func (s *Service) ringChanged() {
	for _, sh := range s.order {
		sh.ringIdx = -1
	}
	s.ringShards = s.ringShards[:0]
	for i, id := range s.ring.Nodes() {
		sh := s.shards[id]
		sh.ringIdx = int32(i)
		s.ringShards = append(s.ringShards, sh)
	}
}

// buildShard constructs one server shard — fabric node, arena, table,
// and its pipelined client connections — without touching the ring or
// the shard index. Shared by construction and live AddShard.
func (s *Service) buildShard(id string) *serviceShard {
	cfg := s.cfg
	nc := fabric.DefaultNodeConfig(id)
	nc.MemSize = serviceServerMem
	node := s.tb.clu.AddNode(nc)
	node.Dev.SetTracer(s.tr)
	if s.profiler != nil {
		// Server NICs only: the profiler's exec totals then reconcile
		// exactly with resourceReport, which also scopes to the shards.
		node.Dev.SetProfiler(s.profiler)
	}
	srv := &Server{tb: s.tb, node: node, builder: core.NewBuilder(node.Dev, 1<<16)}
	srv.arena = extent.NewArena(node.Mem, cfg.SegmentSize)
	srv.arena.SetNoReclaim(cfg.NoReclaim)
	sh := &serviceShard{id: id, stats: ShardStats{ID: id}, svc: s, srv: srv, table: srv.NewHashTable(cfg.Buckets), mode: cfg.Mode,
		arena: srv.arena, ringIdx: -1,
		hints: make(map[uint64]*hint), inflightSet: make(map[uint64]ring.Queue[func()]),
		tombVer: make(map[uint64]uint64),
		trTry:   "try:" + id, trLeg: "leg:" + id, trAux: "aux:" + id,
		trHint: "hint:" + id, trRepair: "repair:" + id}
	sh.freeRetired = func() { sh.arena.Free(sh.retiring.Pop()) }
	sh.probeFn = sh.probed
	sh.initMetrics(s.reg)
	for c := 0; c < cfg.ClientsPerShard; c++ {
		cc := fabric.DefaultNodeConfig(fmt.Sprintf("%s-client%d", id, c))
		cc.MemSize = serviceClientMem
		cn := s.tb.clu.AddNode(cc)
		cn.Dev.SetTracer(s.tr)
		sh.cnodes = append(sh.cnodes, cn)
		sh.clients = append(sh.clients, s.newShardClient(sh, cn))
	}
	return sh
}

// newShardClient wires one pipelined client connection to sh's server.
func (s *Service) newShardClient(sh *serviceShard, cn *fabric.Node) *Client {
	cli := newClientOnNode(s.tb, cn, sh.srv, s.cfg.Mode, s.cfg.Pipeline, s.cfg.MaxValLen, sh.arena)
	cli.MissTimeout = s.cfg.MissTimeout
	cli.Bind(sh.table)
	cli.setTracer(s.tr, cn.Name)
	if s.prov != nil {
		cli.enableProvenance()
	}
	if s.cfg.AdaptiveWindow {
		cli.configureWindow(windowConfig{Adaptive: true, Start: adaptiveWindowStart})
	}
	return cli
}

// Testbed exposes the simulated cluster (engine driving, timing).
func (s *Service) Testbed() *Testbed { return s.tb }

// Run drains all pending simulated work.
func (s *Service) Run() { s.tb.Run() }

// NumShards returns the shard count.
func (s *Service) NumShards() int { return len(s.order) }

// owners returns key's replica owner shards, primary first, as a
// read-only view of the ring's owner table (appending to it copies).
// Only an empty ring has no owners, and DrainShard refuses to empty it —
// nil keeps a regression from panicking the simulation.
func (s *Service) owners(key uint64) []string {
	ids, err := s.ring.LookupN(key, s.cfg.Replicas)
	if err != nil {
		return nil
	}
	return ids
}

// ownerNodes is owners for the op path: the same owners as indexes into
// ringShards.
func (s *Service) ownerNodes(key uint64) []int32 {
	nodes, err := s.ring.LookupNodes(key, s.cfg.Replicas)
	if err != nil {
		return nil
	}
	return nodes
}

// Owners exposes key's replica owner shard ids, primary first. The
// result is a fresh copy the caller may keep and modify.
func (s *Service) Owners(key uint64) []string {
	return append([]string(nil), s.owners(key&hopscotch.KeyMask)...)
}

// ShardID returns the id of the i-th shard.
func (s *Service) ShardID(i int) string { return s.order[i].id }

// Set stores key -> value on its replica owners through the fabric
// write path, blocking until the W-of-N quorum acknowledges (or
// fails): a convenience wrapper over SetAsync that advances the
// simulation, mirroring Get. Replication to the remaining owners
// continues in the background after Set returns.
func (s *Service) Set(key uint64, value []byte) error {
	var (
		err  error
		done bool
	)
	s.SetAsync(key, value, func(_ Duration, e error) {
		err, done = e, true
	})
	s.Flush()
	if !s.tb.stepUntil(&done) {
		return fmt.Errorf("redn: set(%#x) never completed", key)
	}
	return err
}

// Delete removes key from its replica owners through the fabric delete
// path, blocking until the W-of-N quorum acknowledges — the
// convenience wrapper mirroring Set. It reports whether the key was
// present on some owner AND the quorum acknowledged the delete; a
// quorum failure (the key may survive on live owners) returns false,
// never success.
func (s *Service) Delete(key uint64) bool {
	key &= hopscotch.KeyMask
	existed := false
	for _, id := range s.owners(key) {
		if _, _, ok := s.shards[id].table.table.Lookup(key); ok {
			existed = true
			break
		}
	}
	var derr error
	done := false
	s.DeleteAsync(key, func(_ Duration, err error) { derr, done = err, true })
	s.Flush()
	s.tb.stepUntil(&done)
	return existed && derr == nil
}

func (sh *serviceShard) set(key uint64, value []byte, ver uint64) error {
	sh.stats.Sets++
	t := sh.table.table
	m := sh.srv.node.Mem
	n := uint64(len(value))

	oldVa, oldVl, hadOld := t.Lookup(key)
	// Overwrite in place when the key is already stored and the new
	// bytes fit the extent's allocated capacity (falling back to the
	// bucket length for extents the arena does not own).
	if hadOld {
		fit := oldVl
		if cap, live := sh.arena.Size(oldVa); live {
			fit = cap
		}
		if n <= fit {
			if err := m.Write(oldVa, value); err != nil {
				return err
			}
			return t.InsertV(key, oldVa, n, ver)
		}
	}

	addr := sh.arena.Alloc(n, key)
	if err := m.Write(addr, value); err != nil {
		return err
	}
	if err := sh.place(key, addr, n, ver); err != nil {
		// The table refused: the key keeps its old extent (or stays
		// absent); the orphaned new one was never published — free it
		// directly, no reader can hold it.
		sh.arena.Free(addr)
		return err
	}
	if hadOld {
		sh.retireExtent(oldVa)
	}
	return nil
}

// del removes key on the host CPU — the retirement path for spilled
// residents the NIC delete chain cannot address, and the roll-forward
// for refused delete claims. The freed extent returns to the arena
// directly (no to-free ring hop: the CPU already holds the pointer).
// ver stamps the tombstone's version word (the delete's quorum
// sequence).
func (sh *serviceShard) del(key, ver uint64) bool {
	va, _, ok := sh.table.table.RemoveV(key, ver)
	if !ok {
		return false
	}
	sh.retireExtent(va)
	return true
}

// place stores key at one of its candidate buckets through the
// table's kick walk (hopscotch.Table.Place).
//
// LookupSingle offloads probe only H1, so single-mode shards place at
// the first candidate or spill — relocation is impossible when a key
// has one reachable home. The capacity cost is the latency trade-off
// of §5.2: single-probe gets are cheaper but the table saturates
// sooner.
func (sh *serviceShard) place(key, valAddr, valLen, ver uint64) error {
	t := sh.table.table
	if sh.mode == LookupSingle {
		// A resident key, spilled or not, is overwritten where it lives.
		if _, _, resident := t.Lookup(key); resident {
			return t.InsertV(key, valAddr, valLen, ver)
		}
		if _, _, _, ok := t.EntryAt(t.Hash(key, 0)); !ok {
			return t.InsertAtV(key, valAddr, valLen, ver, 0, 0)
		}
		sh.stats.Spills++
		return t.InsertV(key, valAddr, valLen, ver)
	}
	spilled, err := t.Place(key, valAddr, valLen, ver)
	if spilled {
		sh.stats.Spills++
	}
	return err
}

// readOrder fills g.order with key's replica owners in the order the
// get should try them: the configured read policy picks the preferred
// owner, then down shards are moved to the back (they remain last-resort
// failover targets) and, their suspect window lapsed, sent a liveness
// probe. When every owner is down the get itself is the probe.
func (s *Service) readOrder(g *getOp) {
	key := g.key
	nodes := s.ownerNodes(key)
	rot := 0
	if len(nodes) > 1 {
		switch s.cfg.ReadPolicy {
		case ReadRoundRobin:
			rot = s.rrSpread % len(nodes)
			s.rrSpread++
		case ReadHotSpread:
			if g.hot {
				rot = s.rrSpread % len(nodes)
				s.rrSpread++
			}
		}
	}
	shs := g.order[:0]
	for i := range nodes {
		shs = append(shs, s.ringShards[nodes[(i+rot)%len(nodes)]])
	}
	if len(shs) > 1 {
		if s.cfg.ReadPolicy == ReadLeastInflight {
			min := 0
			for i := 1; i < len(shs); i++ {
				if shs[i].inflight() < shs[min].inflight() {
					min = i
				}
			}
			if min != 0 {
				first := shs[min]
				copy(shs[1:min+1], shs[:min])
				shs[0] = first
			}
		}
		// Stable-partition live shards ahead of down ones.
		nLive := 0
		for _, sh := range shs {
			if !sh.down() {
				nLive++
			}
		}
		if nLive > 0 && nLive < len(shs) {
			ordered := g.spare[:0]
			for _, sh := range shs {
				if !sh.down() {
					ordered = append(ordered, sh)
				}
			}
			for _, sh := range shs {
				if sh.down() {
					s.probeLapsed(sh, key)
					ordered = append(ordered, sh)
				}
			}
			shs, g.spare = ordered, shs
		}
	}
	// Dual-read during a resharding: a key whose bucket segment has not
	// sealed may still live only at its pre-change owners — append them
	// as last-resort attempts so no get goes dark mid-migration.
	if m := s.mig; m != nil && m.keyUnsealed(key) {
		cur := len(shs)
		for _, id := range m.oldOwners(key) {
			if osh, ok := s.shards[id]; ok && !slices.Contains(shs[:cur], osh) {
				shs = append(shs, osh)
			}
		}
	}
	g.order = shs
}

// Get performs one blocking get (routing + offloaded lookup),
// advancing the simulation until the response lands or times out.
func (s *Service) Get(key uint64, valLen uint64) ([]byte, Duration, bool) {
	var (
		out  []byte
		lat  Duration
		ok   bool
		done bool
	)
	s.GetAsync(key, valLen, func(v []byte, l Duration, hit bool) {
		out, lat, ok, done = v, l, hit, true
	})
	s.Flush()
	eng := s.tb.clu.Eng
	to := s.cfg.MissTimeout
	eng.RunUntil(eng.Now() + to)
	for !done && eng.Pending() > 0 {
		eng.RunUntil(eng.Now() + to)
	}
	return out, lat, ok
}

// GetAsync issues one pipelined offloaded get; cb runs when a response
// lands or every candidate owner has timed out. The read policy picks
// which replica owner serves it; a timeout fails the get over to the
// next owner (counting toward that shard's suspect threshold), so with
// Replicas > 1 a crashed shard costs the gets that reach it before its
// circuit breaker opens one extra MissTimeout rather than their answers,
// and the gets after that nothing. Tracked hot keys may be answered from
// the client-side cache with no NIC involvement at all. Gets beyond a
// client's pipeline depth queue client-side. Call Flush after posting
// a batch — same-shard gets posted between flushes share one doorbell.
func (s *Service) GetAsync(key, valLen uint64, cb func(val []byte, lat Duration, ok bool)) {
	key &= hopscotch.KeyMask
	s.sentinelKick()
	hot := false
	if s.hot != nil {
		// Hotness is judged before this access counts: once touched,
		// every key is tracked.
		hot = s.hot.Tracked(key)
		if evicted, ok := s.hot.Touch(key); ok {
			delete(s.cache, evicted)
		}
	}
	g := s.takeGet(key, valLen, s.tr.OpBegin("get", key), cb)
	g.hot = hot
	if s.cache != nil {
		if v, ok := s.cache[key]; ok && uint64(len(v)) >= valLen {
			s.cacheHits++
			s.hits++
			g.val = v[:valLen]
			g.next = getCacheHit
			s.tb.clu.Eng.After(cacheHitLat, g.cacheHitFn)
			return
		}
		g.epoch = s.setEpoch[key]
		// Issued behind an unsettled write, this read may hit an owner
		// that has not applied it and answer after it settles: no admission.
		g.admit = s.unsettled[key] == 0
	}
	s.readOrder(g)
	if len(g.order) == 0 {
		// Empty ring: nothing owns the key. Unreachable while DrainShard
		// refuses to drain the last shard; kept as a miss, not a panic.
		s.misses++
		s.tr.OpEnd(g.op, "get")
		g.release()
		s.tb.clu.Eng.After(0, func() { cb(nil, 0, false) })
		return
	}
	s.tryGet(g)
}

// recordGetReceipt folds the final attempt's client receipt into the
// coordinator's get ledger: everything between the op entering the
// coordinator (began) and the final attempt's own submit->finish span
// — earlier failed attempts, their timeouts, admission deferrals — is
// the retry phase, so the phases still partition the client-observed
// latency exactly. cli is the client whose callback is running (its
// lastReceipt is this attempt's ledger).
func (s *Service) recordGetReceipt(cli *Client, began sim.Time) {
	if s.prov == nil {
		return
	}
	now := s.tb.Now()
	r := &s.rcptScratch
	if cr := cli.lastReceipt(pipeGet); cr != nil {
		*r = *cr
	} else {
		// Failed without reaching a slot (dead connection): the whole
		// span is coordinator-side waiting.
		r.Reset(0, telemetry.ClassGet, began)
		r.Censored = true
	}
	r.Start = began
	if retry := (now - began) - r.PhaseSum(); retry > 0 {
		r.AddPhase(telemetry.PhaseRetry, retry)
	}
	r.Total = r.PhaseSum()
	s.prov.Record(r)
}

// getStage names the one continuation a get record has outstanding.
type getStage uint8

const (
	getFree     getStage = iota // on the service's free list
	getRouting                  // taken; being dispatched synchronously
	getCacheHit                 // the cache-hit latency is elapsing
	getShed                     // the zero-cost hop that delivers a shed
	getAttempt                  // a client get is in flight on order[i]
	getProbe                    // answered; a read-repair probe is in flight
)

// getOp is one service-level get from GetAsync to its last
// continuation: what tryGet's per-attempt closures and the read-repair
// probe's callback would capture, in one pooled record. Its four
// continuations are method values bound once, when the record is made;
// next names the single one outstanding, so a continuation reaching a
// record that was released — or released and taken again — panics. The
// record goes back when the caller has its answer, or, when that answer
// started a read-repair probe, when the probe has answered too.
type getOp struct {
	s    *Service
	next getStage

	key, valLen uint64
	cb          func(val []byte, lat Duration, ok bool)
	op          uint64   // trace op id
	began       sim.Time // when the op entered the coordinator
	val         []byte   // cache hit: the cached bytes to deliver

	// epoch is the key's write epoch at issue time; it gates cache
	// admission against sets that raced the read. gen is the service
	// cache generation at issue time; it gates admission against
	// ownership changes that raced the read (a resharding started
	// mid-flight). admit is false when a write to the key was unsettled
	// at issue time. hot is whether the key was tracked before this
	// get's own access, the hot-spread policy's test.
	epoch, gen uint64
	admit, hot bool

	// order is the policy-ordered owners to try (spare is readOrder's
	// scratch for reordering them), i the attempt in flight, cli the
	// connection it is on, spent the latency of the attempts before it —
	// so a failover's cost (the timeout spent discovering the dead
	// owner) lands in the reported latency.
	order, spare []*serviceShard
	i            int
	cli          *Client
	spent        Duration

	// The read-repair probe a hit started: the owner asked, over which
	// connection, the version the serving owner holds, the probe's trace
	// op id.
	partner   *serviceShard
	pcli      *Client
	servedVer uint64
	pop       uint64

	cacheHitFn, shedFn func()
	attemptFn          func(val []byte, lat Duration, ok bool)
	probeFn            func(ver uint64, lat Duration, ok bool)
}

// takeGet hands out a get record in the routing stage.
func (s *Service) takeGet(key, valLen, op uint64, cb func(val []byte, lat Duration, ok bool)) *getOp {
	g, fresh := s.gets.take()
	if fresh {
		g.s = s
		g.cacheHitFn, g.shedFn, g.attemptFn, g.probeFn = g.cacheHit, g.shed, g.attempted, g.probed
	}
	g.next = getRouting
	g.key, g.valLen, g.op, g.cb = key, valLen, op, cb
	g.began, g.epoch, g.gen, g.admit = s.tb.Now(), 0, s.cacheGen, false
	g.i, g.spent = 0, 0
	return g
}

// release returns the record to the service, dropping what it
// referenced.
func (g *getOp) release() {
	if g.next == getFree {
		panic("redn: get record released twice")
	}
	g.next = getFree
	g.cb, g.val, g.cli, g.partner, g.pcli = nil, nil, nil, nil, nil
	g.s.gets.put(g)
}

// enter asserts that stage is the continuation this record is waiting
// for, and puts it back in the routing stage.
func (g *getOp) enter(stage getStage) {
	if g.next != stage {
		panic(fmt.Sprintf("redn: get continuation %d ran on a record expecting %d", stage, g.next))
	}
	g.next = getRouting
}

// cacheHit delivers a get served from the client-side cache.
func (g *getOp) cacheHit() {
	g.enter(getCacheHit)
	s := g.s
	s.tr.Instant("coordinator", "cache-hit", g.op)
	s.tr.OpEnd(g.op, "get")
	if s.prov != nil {
		r := &s.rcptScratch
		r.Reset(g.op, telemetry.ClassGet, s.tb.Now()-cacheHitLat)
		r.AddPhase(telemetry.PhaseCache, cacheHitLat)
		r.Total = cacheHitLat
		s.prov.Record(r)
	}
	cb, val := g.cb, g.val
	g.release()
	cb(val, cacheHitLat, true)
}

// shed delivers a get every owner was too loaded to admit.
func (g *getOp) shed() {
	g.enter(getShed)
	cb, spent := g.cb, g.spent
	g.release()
	cb(nil, spent, false)
}

// tryGet issues attempt g.i of a get against its policy-ordered owners,
// skipping owners admission control has closed.
func (s *Service) tryGet(g *getOp) {
	if g.next != getRouting {
		panic(fmt.Sprintf("redn: get record routed in stage %d", g.next))
	}
	sh := g.order[g.i]
	for s.overloaded(sh) {
		if g.i+1 == len(g.order) {
			// Every owner is saturated: shed instead of stacking a request
			// that would only time out and burn more PU cycles re-running.
			s.shedGets++
			if s.tr.Enabled() {
				s.tr.Instant(sh.id, "shed:get", g.op)
			}
			s.tr.OpEnd(g.op, "get")
			g.next = getShed
			s.tb.clu.Eng.After(0, g.shedFn)
			return
		}
		// Defer: some other replica owner may still have headroom.
		s.deferredGets++
		g.i++
		sh = g.order[g.i]
	}
	sh.stats.Gets++
	g.cli = sh.clients[sh.rr%len(sh.clients)]
	sh.rr++
	if s.tr.Enabled() {
		s.tr.AsyncBegin("attempt", g.op<<4|uint64(g.i), sh.trTry, g.op)
	}
	s.tr.SetOp(g.op)
	g.next = getAttempt
	g.cli.GetAsync(g.key, g.valLen, g.attemptFn)
	s.tr.SetOp(0)
	if g.i > 0 {
		// Retries run outside the caller's batch; kick them directly.
		g.cli.Flush()
	}
}

// attempted is the client callback of attempt g.i: a hit answers the
// caller (and may start a read-repair probe), a miss fails over to the
// next owner or, on the last one, answers with the miss.
func (g *getOp) attempted(val []byte, lat Duration, ok bool) {
	g.enter(getAttempt)
	s, sh, cli := g.s, g.order[g.i], g.cli
	lat += g.spent
	if s.tr.Enabled() {
		s.tr.AsyncEnd("attempt", g.op<<4|uint64(g.i), sh.trTry, g.op)
	}
	if ok {
		sh.markLive()
		s.hits++
		sh.getLat.Add(lat)
		s.maybeCache(g, val)
		// A hit proves the shard live: if handoff hints piled up
		// behind a false suspicion, deliver them now.
		if len(sh.hints) > 0 && !sh.hostDown {
			s.drainHints(sh)
		}
		// Read-repair: a replicated hit also interrogates one other
		// owner's version word through the NIC probe chain; skew
		// enqueues a roll-forward (service_repair.go). The probe keeps
		// the record until it answers.
		probing := s.maybeReadRepair(g, sh)
		s.tr.OpEnd(g.op, "get")
		s.recordGetReceipt(cli, g.began)
		cb := g.cb
		if probing {
			g.cb = nil
		} else {
			g.release()
		}
		cb(val, lat, true)
		return
	}
	if cli.lastExecuted(pipeGet) {
		// The chain ran and found nothing: the key is absent, the
		// NIC is alive. Liveness proof, not a crash symptom.
		sh.markLive()
	} else {
		s.noteOwnerMiss(sh)
	}
	if g.i+1 < len(g.order) {
		s.retries++
		g.i++
		g.spent = lat
		s.tryGet(g)
		return
	}
	s.misses++
	s.tr.OpEnd(g.op, "get")
	s.recordGetReceipt(cli, g.began)
	// Miss-path read-repair: a miss on every owner is itself a
	// version report ("I hold nothing the NIC can reach"). If the
	// coordinator's view says some owner does hold the key — a
	// spilled resident offloaded probes cannot reach, or a replica
	// the others are missing — repair the laggards; reads of
	// genuinely absent keys no-op.
	if s.cfg.ReadRepair && s.repairEnabled() && len(g.order) > 1 {
		s.scheduleSkewRepair(g.key)
	}
	cb := g.cb
	g.release()
	cb(val, lat, false)
}

// maybeCache admits a sufficiently hot value g read to the client-side
// cache, unless a write raced the read: one was unsettled when the get
// was issued (the read may have come from an owner that had not applied
// it), or one was issued since (the key's write epoch moved). Either way
// admitting would install a stale value that write-through could never
// fix. Together the two cover every write still unsettled at completion:
// a write bumps the epoch in the same step that counts it unsettled.
func (s *Service) maybeCache(g *getOp, val []byte) {
	key := g.key
	if s.cache == nil || s.hot == nil || uint64(len(val)) < g.valLen {
		return
	}
	if !g.admit || s.setEpoch[key] != g.epoch {
		return
	}
	// A resharding started (or finished) while this get was in flight:
	// the value may have been read from an owner that just lost the key.
	if g.gen != s.cacheGen {
		return
	}
	if _, ok := s.cache[key]; ok {
		return
	}
	if len(s.cache) >= s.cfg.HotKeyCache || s.hot.Count(key) < cacheAdmitCount {
		return
	}
	s.cache[key] = append([]byte(nil), val...)
}

// CrashShard schedules a §5.6 failure of the i-th shard at absolute
// virtual time at. A ProcessCrash without a hull parent freezes the
// shard's NIC (the OS reclaims the process's RDMA resources); since a
// frozen NIC drops trigger SENDs, the old connections are dead even
// after the restarted process returns, so recovery rebuilds the
// shard's client connections — exactly the reconnect a real client
// performs against a restarted server. With HullParent (or under
// OSPanic, which never frees RDMA resources) the NIC keeps serving
// pre-armed chains throughout and only host-side sets are lost.
func (s *Service) CrashShard(i int, k failure.Kind, at Duration) {
	sh := s.order[i]
	failure.NodeCrash{
		Node:       sh.srv.node,
		Kind:       k,
		HullParent: s.cfg.HullParent,
		OnDown:     func() { sh.hostDown = true },
		OnUp: func() {
			sh.hostDown = false
			if !s.cfg.HullParent {
				s.reconnect(sh)
			}
			// The owner is reachable again: hand off the writes it
			// missed while down, wake any repairs parked in backoff,
			// and schedule an anti-entropy rotation — recovery is
			// exactly when divergence (lost hints, crash-era misses)
			// is worth hunting.
			s.drainHints(sh)
			s.aeCleanRun = 0
			s.armRepair()
			s.armAntiEntropy()
		},
	}.InjectAt(s.tb.clu.Eng, at)
}

// reconnect replaces sh's client connections after a process crash
// killed the old ones. In-flight gets on the old connections still
// time out (and fail over) normally; the old connection state is
// simply abandoned, as with real RC QPs in error state.
func (s *Service) reconnect(sh *serviceShard) {
	sh.stats.Rebuilds++
	sh.clients = sh.clients[:0]
	for _, cn := range sh.cnodes {
		sh.clients = append(sh.clients, s.newShardClient(sh, cn))
	}
	// The rebuilt connections announce the shard is back.
	sh.markLive()
}

// Flush rings every client doorbell with posted-but-unkicked triggers.
func (s *Service) Flush() {
	for _, sh := range s.order {
		for _, cli := range sh.clients {
			cli.Flush()
		}
	}
}

// ShardStats is one shard's counters. ServiceStats embeds a ShardStats
// as the fleet row: every uint64 field summed over the shards.
type ShardStats struct {
	ID string

	// The shard counts these itself; the registry reads each in place
	// as "<id>/<tag>".
	Sets              uint64 `metric:"sets"`                // owner writes applied (fabric acks + host path + drained hints)
	Spills            uint64 `metric:"spills"`              // keys resident but NIC-unreachable
	Gets              uint64 `metric:"gets"`                // get attempts routed here (failover retries included)
	Rebuilds          uint64 `metric:"rebuilds"`            // client reconnects after process crashes
	FabricSets        uint64 `metric:"fabric_sets"`         // owner writes attempted through the NIC claim chain
	HostSets          uint64 `metric:"host_sets"`           // owner writes that fell back to the host CPU (kicks, spilled residents, claim races)
	HintsQueued       uint64 `metric:"hints_queued"`        // hints ever queued
	HintsApplied      uint64 `metric:"hints_applied"`       // hints delivered on reconnect (exactly once each)
	HintsDropped      uint64 `metric:"hints_dropped"`       // hints superseded by a newer write before draining
	Deletes           uint64 `metric:"dels"`                // owner deletes applied (fabric + host + trivial absents)
	FabricDeletes     uint64 `metric:"fabric_dels"`         // owner deletes attempted through the NIC tombstone chain
	HostDeletes       uint64 `metric:"host_dels"`           // owner deletes that fell back to the host CPU
	CompactPasses     uint64 `metric:"compact_passes"`      // compaction ticks that ran on this shard
	CompactMoves      uint64 `metric:"compact_moved"`       // extents relocated by compaction
	CompactBytes      uint64 `metric:"compact_moved_bytes"` // capacity bytes relocated by compaction
	CompactSkips      uint64 `metric:"compact_skips"`       // relocations declined (busy keys, stale records)
	RepairsQueued     uint64 `metric:"repairs_queued"`      // repair records enqueued for this owner
	RepairsApplied    uint64 `metric:"repairs_applied"`     // repairs that rolled this owner forward
	RepairsSuperseded uint64 `metric:"repairs_superseded"`  // repairs satisfied before applying (owner caught up)
	RepairsDropped    uint64 `metric:"repairs_dropped"`     // repairs abandoned after bounded retries
	AERepairs         uint64 `metric:"ae_repairs"`          // repairs the anti-entropy sweeper found for this owner

	// Stats reads these off the shard's hints, client connections and
	// arena.
	HintsPending  uint64 // handoff hints currently queued for this owner
	GCFreed       uint64 // to-free ring extents returned to the arena
	GCStale       uint64 // ring entries whose extent was already gone
	WindowCuts    uint64 // AIMD multiplicative decreases on the shard's client pipelines
	EcnCuts       uint64 // the subset triggered by ECN backlog marks
	ArenaLive     uint64 // live extent bytes in the shard's arena
	ArenaPeakLive uint64 // high-water live bytes (working-set size)
	ArenaFoot     uint64 // bytes of server memory the arena holds
	ArenaPeak     uint64 // high-water arena footprint
}

// add sums o into st field by field.
func (st *ShardStats) add(o *ShardStats) {
	a, b := reflect.ValueOf(st).Elem(), reflect.ValueOf(o).Elem()
	for i := range a.NumField() {
		if f := a.Field(i); f.Kind() == reflect.Uint64 {
			f.SetUint(f.Uint() + b.Field(i).Uint())
		}
	}
}

// ServiceStats aggregates service counters. Its embedded ShardStats is
// the fleet row, the sum of Shards (its ID is empty).
type ServiceStats struct {
	ShardStats
	Shards []ShardStats

	Hits        uint64
	Misses      uint64
	Retries     uint64 // failover attempts beyond each get's first owner
	CacheHits   uint64 // gets served from the client-side hot-key cache
	MaxInFlight int    // high-water mark of overlapping gets, any client

	DeferredGets uint64 // gets routed past an overloaded owner (admission)
	ShedGets     uint64 // gets refused: every owner overloaded
	ShedWrites   uint64 // writes/deletes refused with ErrOverload
	Suspects     uint64 // healthy-to-suspected transitions: breaker openings, the sentinel's crash signal

	SetOps      uint64 // client-visible writes issued (before replication fan-out)
	DelOps      uint64 // client-visible deletes issued
	QuorumFails uint64 // writes/deletes that failed their W-of-N quorum

	Migrations         int    // completed reshardings (joins + drains)
	MigratingBuckets   int    // unsealed bucket segments of the active migration
	MigKeysMoved       uint64 // owner copies the resharding migrator applied
	MigKeysSkipped     uint64 // moving keys already converged when their turn came
	MigSegsSealed      uint64 // bucket segments sealed across all migrations
	MigCopyFails       uint64 // migrator copies abandoned to the repair queue
	MigHintsRedirected uint64 // hints redirected off a draining shard

	Probes         uint64 // version probes issued on replicated hits
	ProbeSkews     uint64 // probes (and host fallbacks) that found version skew
	RepairsPending uint64 // records still in the queue
	AEPasses       uint64 // anti-entropy sweep ticks that ran
	AESegsDiffed   uint64 // segments whose digests disagreed
	AEKeysChecked  uint64 // per-key comparisons inside flagged segments

	// Resources lists every serialized NIC unit across the shard
	// fleet (PUs, fetch units, links, PCIe, atomic units) with its
	// busy fraction of the run so far; Bottleneck is the busiest.
	// TopResources ranks the k busiest (k=3, deterministic name
	// tie-break) — TopResources[1] is the second-order bottleneck, the
	// unit that would saturate next if the first were relieved.
	Resources    []telemetry.ResourceUtil
	Bottleneck   telemetry.ResourceUtil
	TopResources []telemetry.ResourceUtil

	// Provenance decomposes each op class's latency into its phase
	// ledger (percentiles, phase shares, per-resource wait/exec, worst
	// retained receipt) when ServiceConfig.Provenance is on; nil off.
	Provenance []telemetry.ClassDecomp

	// Anomalies lists every typed anomaly the SLO sentinel recorded,
	// oldest first (empty with the sentinel off). Incidents() returns
	// the full bundles behind them.
	Anomalies []telemetry.Anomaly
}

// MarkUtilization starts the utilization measurement window: Stats
// reports each NIC resource's busy fraction since the last mark (or
// since t=0 if never marked). Call it after preloading a service so
// the bottleneck report reflects the workload, not the setup phase's
// idle fabric.
func (s *Service) MarkUtilization() {
	now := s.tb.Now()
	var rs []telemetry.ResourceUtil
	for _, sh := range s.order {
		rs = sh.srv.node.Dev.ResourceUtils(rs, now)
	}
	s.utilBase = make(map[string]telemetry.ResourceUtil, len(rs))
	for _, r := range rs {
		s.utilBase[r.Name] = r
	}
	s.utilMark = now
}

// Stats snapshots the service counters: it copies the service's and
// each shard's stored counters, derives the rest, and sums the shard
// rows into the fleet row.
func (s *Service) Stats() ServiceStats {
	out := ServiceStats{Hits: s.hits, Misses: s.misses, Retries: s.retries, CacheHits: s.cacheHits,
		DeferredGets: s.deferredGets, ShedGets: s.shedGets, ShedWrites: s.shedWrites, Suspects: s.suspects,
		SetOps: s.setOps, DelOps: s.delOps, QuorumFails: s.quorumFails,
		Migrations: len(s.migLog), MigratingBuckets: s.migratingBuckets(),
		MigKeysMoved: s.migKeysMoved, MigKeysSkipped: s.migKeysSkipped,
		MigSegsSealed: s.migSegsSealed, MigCopyFails: s.migCopyFails, MigHintsRedirected: s.migHintsRedirected,
		Probes: s.probes, ProbeSkews: s.probeSkews, RepairsPending: uint64(s.repq.Len()),
		AEPasses: s.aePasses, AESegsDiffed: s.aeSegsDiffed, AEKeysChecked: s.aeKeysChecked}
	for _, sh := range s.order {
		ss := sh.stats
		ss.HintsPending = uint64(len(sh.hints))
		for _, cli := range sh.clients {
			cs := cli.Stats()
			ss.GCFreed += cs.GCFreed
			ss.GCStale += cs.GCStale
			ss.WindowCuts += cs.WindowCuts
			ss.EcnCuts += cs.EcnCuts
			out.MaxInFlight = max(out.MaxInFlight, cs.MaxInFlight)
		}
		ast := sh.arena.Stats()
		ss.ArenaLive, ss.ArenaPeakLive = ast.LiveBytes, ast.PeakLive
		ss.ArenaFoot, ss.ArenaPeak = ast.Footprint, ast.Peak
		out.Shards = append(out.Shards, ss)
		out.add(&ss)
	}
	out.Resources = s.resourceReport()
	if bn, ok := telemetry.Bottleneck(out.Resources); ok {
		out.Bottleneck = bn
	}
	out.TopResources = telemetry.TopUtil(out.Resources, 3)
	if s.prov != nil {
		out.Provenance = s.prov.DecomposeAll()
	}
	if s.sen != nil {
		out.Anomalies = append([]telemetry.Anomaly(nil), s.sen.slo.Anomalies()...)
	}
	return out
}

// resourceReport builds the fleet resource-utilization slice —
// every serialized NIC unit across the shards, windowed from the last
// MarkUtilization when one was taken. Shared by Stats and the
// sentinel's incident capture.
func (s *Service) resourceReport() []telemetry.ResourceUtil {
	now := s.tb.Now()
	var rs []telemetry.ResourceUtil
	for _, sh := range s.order {
		rs = sh.srv.node.Dev.ResourceUtils(rs, now)
	}
	if s.utilBase != nil && now > s.utilMark {
		window := now - s.utilMark
		for i := range rs {
			r := &rs[i]
			base := s.utilBase[r.Name]
			r.Busy -= base.Busy
			r.Grants -= base.Grants
			r.Util = float64(r.Busy) / float64(window)
		}
	}
	return rs
}

// Now returns the current virtual time.
func (s *Service) Now() sim.Time { return s.tb.Now() }
