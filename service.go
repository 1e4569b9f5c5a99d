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
	// ReadHotSpread joins the shortest queue: each get goes to the owner
	// with the fewest gets outstanding on the service's own connections
	// to it, ties to ring order (primary first), so the owners' fetch
	// units fill evenly however the keys' primaries are skewed.
	ReadHotSpread
)

func (p ReadPolicy) String() string {
	switch p {
	case ReadRoundRobin:
		return "round-robin"
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

// ServiceConfig sizes a sharded RedN KV service.
type ServiceConfig struct {
	Shards          int        // server nodes, each with its own NIC and table
	ClientsPerShard int        // client nodes connected to each shard
	Pipeline        int        // slots per client pipeline (deletes share the sets' slots and window); its AIMD window opens at min(Pipeline, the ECN mark over FetchManaged)
	Mode            LookupMode // read by nothing: every service get is hinted or a locate (Client.locateAsync)
	Replicas        int        // ring owners written per Set (>=1)

	// WriteQuorum is W of the W-of-N write quorum: a set acknowledges
	// once W of its Replicas owners have applied it; the remaining
	// owners complete in the background (or via hinted handoff when
	// down). 0 selects write-all (W = Replicas), under which any owner
	// failure surfaces as a *QuorumError — with the replicas that did
	// apply rolled forward through hints, never rolled back.
	WriteQuorum int

	ReadPolicy  ReadPolicy // which replica owner serves a get
	HotKeyTrack int        // floor on the cache's admission sketch (0 = 64): it keeps max(HotKeyTrack, 4*HotKeyCache) counters
	HotKeyCache int        // client-side hot-value cache entries (0 = disabled)

	HullParent bool // crashed processes keep their RDMA resources (Fig 16)

	Buckets   uint64 // hopscotch buckets per shard
	MaxValLen uint64 // largest value a get can return or a set can store

	// NoReclaim puts every shard arena in leak-forever mode: frees
	// still account (live bytes stay truthful) but memory is never
	// reused — reproducing the pre-lifecycle allocator. Only the churn
	// experiment's baseline should want this. Otherwise a retired
	// extent is reused as soon as no get can still read it.
	NoReclaim bool

	// ReadRepair enables version probes on replicated gets: every
	// ProbeEvery-th hit also reads one other owner's value header with
	// a version probe (two one-sided READs, a request on the set
	// pipeline of that owner's next connection), and any skew enqueues
	// a repair that rolls the laggard forward.
	// Requires Replicas > 1 to do anything.
	ReadRepair bool
	// ProbeEvery probes every n-th replicated hit (0 or 1 = every hit).
	ProbeEvery int
	// AntiEntropyEvery, when nonzero, runs the background anti-entropy
	// sweeper: each tick scans one shard (rotating), diffs Merkle-style
	// segment digests against every co-owner, and enqueues repairs for
	// divergent keys — bounding staleness even for keys no client ever
	// reads. Activity-armed, like the migrator.
	AntiEntropyEvery Duration
	// AntiEntropySegments is the per-shard digest segment count over
	// which sweeps summarize bucket versions (0 = 64).
	AntiEntropySegments int
	// NoRepair turns off the repair subsystem's discoverers — capacity
	// rejections are dropped on the floor again and nothing probes or
	// sweeps — the pre-repair behavior, kept for the repair experiment's
	// divergence baseline. Records still stand where an owner is known
	// to lag (a resharding's moving keys), as they do at Replicas: 1.
	NoRepair bool

	// MigrateEvery is the background migrator's tick period during a
	// live resharding (AddShard/DrainShard): each tick stands the repair
	// records of a batch of moving bucket segments (0 = 20us).
	MigrateEvery Duration
	// MigrateBatch is how many bucket segments one migrator tick starts
	// (0 = 4).
	MigrateBatch int

	// Trace makes the service record per-op trace spans through every
	// layer (service fan-out, client slots, WRs on NIC PUs) for
	// trace-event JSON export, on a tracer built on its testbed's engine
	// (which does not exist until NewServiceWith constructs it).
	// Retrieve it with Tracer() after construction; the tracer keeps
	// every event. Off, Tracer() is nil and tracing costs nothing.
	Trace bool

	// Sentinel enables the always-on SLO sentinel + flight recorder
	// (service_sentinel.go): registry snapshots land in a fixed
	// metric-sample ring on an activity-armed DefaultSentinelEvery
	// tick, and burn-rate SLO rules evaluate each tick. A firing rule
	// snapshots a deterministic incident bundle (at most 16 are kept);
	// read them back with Incidents() and Stats().Anomalies. With Trace
	// on, a bundle also carries the trace window its samples cover; the
	// sentinel builds no tracer of its own, so an untraced incident is
	// reproduced by re-running the same config and seed with Trace on.
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
	// sentinelRules overrides the sentinel's rule set (nil =
	// defaultSLORules()), and slowGetLat its fleet latency-burn
	// threshold: gets slower than this count toward the "latency" SLO
	// (0 = defaultSlowGetLat).
	sentinelRules []telemetry.Rule
	slowGetLat    Duration
}

// defaultServiceConfig returns the production-shaped defaults: 16-deep
// pipelines, 4 KiB values.
func defaultServiceConfig(nShards, clientsPerShard int) ServiceConfig {
	return ServiceConfig{
		Shards:          nShards,
		ClientsPerShard: clientsPerShard,
		Pipeline:        16,
		Replicas:        1,
		Buckets:         1 << 15,
		MaxValLen:       4096,
	}
}

// Simulated memory per service node: servers hold the table, the value
// arena and every connection's chain rings; clients only per-slot
// buffers.
const (
	serviceServerMem = 1 << 27
	serviceClientMem = 1 << 23
)

// shardPorts is a shard NIC's port count: the modelled ConnectX-5 is
// dual-port. A shard's client connection c runs its chains on port
// c % shardPorts, so each port's fetch unit serves half the
// connections; a shard with one connection keeps one port.
const shardPorts = 2

// serviceShard is one server node: a hash table plus its connected
// pipelined clients.
type serviceShard struct {
	id      string
	svc     *Service // the owning service, for callbacks bound to the shard
	srv     *Server
	table   *HashTable
	clients []*Client
	rr      int    // round-robin client cursor
	ringIdx int32  // position in the ring's node table (-1: not on the ring)
	null    uint64 // MaxValLen bytes no value occupies: what a deleted key's hint gathers

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

	// keys is this owner's per-key write state (ownerKey: write slot,
	// missing-write record, tombstone version), an entry only while one
	// is held; nHints and nRepairs count the entries whose record stands,
	// by kind.
	keys             map[uint64]ownerKey
	nHints, nRepairs int
	slots            recordPool[ring.Queue[*ownerRun]] // queues of held write slots

	// Drain: keys whose record waits for a replay sit in drainQ from
	// drainAt on, front first, for one of the shard's drain lanes — one
	// per write slot of its clients — and lanes counts the idle ones.
	drainQ  []uint64
	drainAt int
	lanes   int

	// stats holds the shard's counters (the ShardStats fields tagged
	// `metric`), which the registry reads in place; Stats() copies the
	// struct and fills in the rest.
	stats ShardStats

	// getLat accumulates hit latency for gets this shard served (a
	// failover hit carries the timeouts spent discovering dead owners).
	// The sentinel merges these per-shard histograms into fleet-wide
	// percentiles each tick (sim.LatencyStats.Merge).
	getLat *sim.LatencyStats
}

// initMetrics registers the shard's counters under its id and its get
// latency histogram.
func (sh *serviceShard) initMetrics(reg *telemetry.Registry) {
	bindCounters(reg, sh.id+"/", &sh.stats)
	sh.getLat = reg.Histogram(sh.id + "/get_lat")
}

// bindCounters registers each field of the struct ptr points to that
// carries a `metric` tag as prefix+tag, by address: the registry reads
// the very words their owner increments.
func bindCounters(reg *telemetry.Registry, prefix string, ptr any) {
	v := reflect.ValueOf(ptr).Elem()
	for i := range v.NumField() {
		if name, ok := v.Type().Field(i).Tag.Lookup("metric"); ok {
			reg.Bind(prefix+name, (*telemetry.Counter)(v.Field(i).Addr().Interface().(*uint64)))
		}
	}
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
			s.stats.Suspects++
		}
		sh.suspectUntil = s.tb.Now() + defaultSuspectFor
	}
}

// probeLapsed runs where an op is steered around a down shard: once the
// suspect window has lapsed, and unless a probe is already in flight, it
// sends the shard's liveness probe — a locate of key on the next
// connection. The op that asked stays on live owners.
func (s *Service) probeLapsed(sh *serviceShard, key uint64) {
	if sh.probing || s.tb.Now() < sh.suspectUntil {
		return
	}
	sh.probing = true
	sh.probeCli = sh.clients[sh.rr%len(sh.clients)]
	sh.rr++
	sh.probeCli.locateAsync(key, 0, sh.probeFn)
	sh.probeCli.Flush()
}

// probed is the liveness probe's answer: an answer closes the breaker
// and hands off the hints that piled up behind it; silence re-arms the
// window.
func (sh *serviceShard) probed([]byte, Duration, bool) {
	s, cli := sh.svc, sh.probeCli
	sh.probing, sh.probeCli = false, nil
	if !cli.lastExecuted(pipeGet) {
		s.noteOwnerMiss(sh)
		return
	}
	sh.markLive()
	s.drainHints(sh, false)
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
	gets  recordPool[getOp]
	sets  recordPool[setOp]
	runs  recordPool[ownerRun]
	lacks recordPool[lack]

	hot      *shard.HotKeys    // the cache's admission sketch (nil without a cache)
	cache    map[uint64][]byte // client-side hot-value cache
	rrSpread int               // round-robin's rotation cursor

	// keys is the coordinator's per-key write state (keyRec: sequence,
	// unsettled count, cache epoch), born at a key's first write.
	keys map[uint64]keyRec

	// settleHook, when set (tests), runs once per write when every
	// owner has resolved it: applied, drained, or superseded by a newer
	// hint. The write's value can no longer "appear late" anywhere.
	settleHook func(key, seq uint64)
	// applyHook, when set (tests), runs on every successful owner-level
	// apply (fabric ack, host path, hint drain, or repair) — the
	// linearizability checker's per-replica visibility signal.
	applyHook func(shardID string, key, seq uint64)

	// Repair subsystem state (service_repair.go): the anti-entropy
	// sweeper's arm and rotating shard cursor, and the read-repair probe
	// rotation.
	aeArmed    bool
	aeCursor   int
	aeCleanRun int // consecutive sweeps that found no divergence
	// Sweep scratch, reused by every sweep: the root's and the partner's
	// binned scans, the per-segment dedup set, and the findings of the
	// sweep whose digest charge is elapsing (aeSettling).
	aeRoot, aePartner aeBins
	aeSeen            map[uint64]struct{}
	aeFound           []aeFound
	aeSettling        bool
	aeSettleFn        func()
	// The anti-entropy tick's continuation, bound once so arming it
	// allocates nothing.
	aeTickFn func()
	// The repair retry tick's arm and continuation (bound once).
	retryArmed  bool
	retryFn     func()
	probeTick   uint64
	probeCursor int

	// Live-resharding state (service_reshard.go): the active migration
	// (nil while membership is stable), its tick arm, the cache
	// generation that fences the hot-value cache across ownership
	// changes, and the log of finished migrations.
	mig      *migration
	migArmed bool
	cacheGen uint64
	migLog   []MigrationSummary

	// stats holds the service-level counters (the ServiceStats fields
	// tagged `metric`), which reg reads in place as "svc/<tag>"; Stats()
	// starts from it and fills in the rest.
	stats ServiceStats

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
	bindCounters(s.reg, "svc/", &s.stats)

	s.reg.Gauge("svc/hints_pending", func() float64 { n, _ := s.pendingRecords(); return float64(n) })
	s.reg.Gauge("svc/repairs_pending", func() float64 { _, n := s.pendingRecords(); return float64(n) })
	s.reg.Gauge("svc/client_inflight", func() float64 {
		n := 0
		for _, sh := range s.order {
			for _, cli := range sh.clients {
				for _, p := range cli.pipes {
					n += p.inFlight
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
			n += sh.srv.arena.Stats().LiveBytes
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
	// pipelines already account; ecn_shed, the window slots the ECN cuts
	// gave up, is what the overload rule counts (DESIGN.md §3.12).
	s.reg.Gauge("svc/window_cuts", func() float64 { c, _, _ := s.cutTotals(); return float64(c) })
	s.reg.Gauge("svc/ecn_cuts", func() float64 { _, e, _ := s.cutTotals(); return float64(e) })
	s.reg.Gauge("svc/ecn_shed", func() float64 { _, _, sl := s.cutTotals(); return sl })
}

// cutTotals sums every connection's window cut counters; a reconnect
// keeps them, so all three are monotone.
func (s *Service) cutTotals() (cuts, ecn uint64, shed float64) {
	for _, sh := range s.order {
		for _, cli := range sh.clients {
			c, e, sl := cli.cuts()
			cuts, ecn, shed = cuts+c, ecn+e, shed+sl
		}
	}
	return cuts, ecn, shed
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
	if cfg.HotKeyTrack == 0 {
		cfg.HotKeyTrack = shard.DefaultHotKeys
	}
	if cfg.ProbeEvery < 1 {
		cfg.ProbeEvery = 1
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
		shards: make(map[string]*serviceShard), keys: make(map[uint64]keyRec),
		aeSeen: make(map[uint64]struct{})}
	s.aeSettleFn, s.aeTickFn, s.retryFn = s.aeSettled, s.aeTick, s.retryTick
	if cfg.Trace {
		s.tr = telemetry.NewTracer(s.tb.clu.Eng)
	}
	if cfg.Provenance {
		s.prov = telemetry.NewProvenance(telemetry.DefaultTailReceipts)
	}
	if cfg.Profile {
		s.profiler = telemetry.NewProfiler()
	}
	s.initMetrics()
	if cfg.HotKeyCache > 0 {
		s.hot = shard.NewHotKeys(max(cfg.HotKeyTrack, hotTrackPerEntry*cfg.HotKeyCache))
		s.cache = make(map[uint64][]byte, cfg.HotKeyCache)
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
	nc.Ports = min(shardPorts, cfg.ClientsPerShard)
	node := s.tb.clu.AddNode(nc)
	node.Dev.SetTracer(s.tr)
	if s.profiler != nil {
		// Server NICs only: the profiler's exec totals then reconcile
		// exactly with resourceReport, which also scopes to the shards.
		node.Dev.SetProfiler(s.profiler)
	}
	srv := newServer(s.tb, node)
	srv.valueArena().SetNoReclaim(cfg.NoReclaim)
	sh := &serviceShard{id: id, stats: ShardStats{ID: id}, svc: s, srv: srv, table: srv.NewHashTable(cfg.Buckets),
		ringIdx: -1, keys: make(map[uint64]ownerKey), lanes: cfg.ClientsPerShard * cfg.Pipeline,
		null:  srv.node.Mem.Alloc(cfg.MaxValLen, 64),
		trTry: "try:" + id, trLeg: "leg:" + id, trAux: "aux:" + id,
		trHint: "hint:" + id, trRepair: "repair:" + id}
	sh.probeFn = sh.probed
	sh.initMetrics(s.reg)
	for c := 0; c < cfg.ClientsPerShard; c++ {
		cc := fabric.DefaultNodeConfig(fmt.Sprintf("%s-client%d", id, c))
		cc.MemSize = serviceClientMem
		cn := s.tb.clu.AddNode(cc)
		cn.Dev.SetTracer(s.tr)
		sh.clients = append(sh.clients, s.newShardClient(sh, cn, srv.builders[c%len(srv.builders)]))
	}
	return sh
}

// newShardClient wires one pipelined client connection to sh's server,
// its server-side queues on b's port; no get it serves arms Arm's probes.
func (s *Service) newShardClient(sh *serviceShard, cn *fabric.Node, b *core.Builder) *Client {
	cli := newClientOnNode(s.tb, cn, sh.srv, b, LookupSeq, s.cfg.Pipeline, s.cfg.MaxValLen, true)
	cli.Bind(sh.table)
	cli.setTracer(s.tr, cn.Name)
	if s.prov != nil {
		cli.enableProvenance()
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

// set stores key -> value at version ver on the host CPU: the bytes and
// their [version, length] header go to a fresh extent, which the table
// then names, and the key's old extent retires, as a fabric overwrite's
// ack retires it. Never in place: a hinted overwrite armed before this
// one still expects the old extent, and must find it gone.
func (sh *serviceShard) set(key uint64, value []byte, ver uint64) error {
	sh.stats.Sets++
	m := sh.srv.node.Mem
	n := uint64(len(value))
	oldVa, _, hadOld := sh.table.table.Lookup(key)
	addr := sh.srv.arena.Alloc(n, key)
	extent.PutHead(m, addr, ver, n)
	if err := m.Write(addr, value); err != nil {
		return err
	}
	if err := sh.place(key, addr, n); err != nil {
		// The table refused: the key keeps its old extent (or stays
		// absent); the orphaned new one was never published — free it
		// directly, no reader can hold it.
		freeExtent(sh.srv.arena, addr)
		return err
	}
	if hadOld {
		sh.srv.retire.push(oldVa)
	}
	return nil
}

// stored reports key's resident value on sh: the extent its bucket
// names and the [version, length] header stored with it.
func (sh *serviceShard) stored(key uint64) (va, ver, n uint64, ok bool) {
	if va, _, ok = sh.table.table.Lookup(key); ok {
		ver, n = extent.Head(sh.srv.node.Mem, va)
	}
	return va, ver, n, ok
}

// del removes key on the host CPU — the retirement path for spilled
// residents the NIC delete chain cannot address, and the roll-forward
// for refused delete claims. The freed extent goes to the retire queue
// at once, as an applied fabric delete's goes on its ack.
func (sh *serviceShard) del(key uint64) bool {
	sh.svc.dropPlaced(key)
	va, _, ok := sh.table.table.Remove(key)
	if !ok {
		return false
	}
	sh.srv.retire.push(va)
	return true
}

// place stores key at one of its candidate buckets through the
// table's kick walk (hopscotch.Table.Place), dropping the placement
// hints of key and of every resident the walk moved — and the claim of
// a moved resident's own write, whose ack may land after the walk.
func (sh *serviceShard) place(key, valAddr, valLen uint64) error {
	t := sh.table.table
	sh.svc.dropPlaced(key)
	spilled, moved, err := t.Place(key, valAddr, valLen)
	if spilled {
		sh.stats.Spills++
	}
	for _, k := range moved {
		sh.svc.dropPlaced(k)
		if q := sh.keys[k].slot; q != nil {
			(*q.Peek()).claimAt = 0 // the holder's ack must not learn the bucket k left
		}
	}
	return err
}

// getLoad is the gets outstanding at sh on the service's own
// connections: in flight, in quarantined slots and waiting client-side.
// A frozen owner's quarantined slots count, so it looks full, not idle.
func (sh *serviceShard) getLoad() int {
	n := 0
	for _, c := range sh.clients {
		n += c.get.inFlight + c.get.nWedged + c.get.waiting.Len()
	}
	return n
}

// readOrder fills g.order with key's replica owners in the order the
// get should try them: the configured read policy picks the preferred
// owner (hot-spread: the least-loaded live one, ties to ring order) and
// the rest follow in ring order, then down shards are moved to the back
// (they remain last-resort failover targets) and, their suspect window
// lapsed, sent a liveness probe. When every owner is down the get itself
// is the probe.
func (s *Service) readOrder(g *getOp) {
	key := g.key
	nodes := s.ownerNodes(key)
	rot := 0
	if len(nodes) > 1 && s.cfg.ReadPolicy == ReadRoundRobin {
		rot = s.rrSpread % len(nodes)
		s.rrSpread++
	}
	shs := g.order[:0]
	for i := range nodes {
		shs = append(shs, s.ringShards[nodes[(i+rot)%len(nodes)]])
	}
	if len(shs) > 1 && s.cfg.ReadPolicy == ReadHotSpread {
		best, load := 0, -1
		for i, sh := range shs {
			if l := sh.getLoad(); !sh.down() && (load < 0 || l < load) {
				best, load = i, l
			}
		}
		first := shs[best]
		copy(shs[1:best+1], shs[:best])
		shs[0] = first
	}
	if len(shs) > 1 {
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
// advancing the simulation until the response lands or times out. The
// value it returns is the caller's own copy.
func (s *Service) Get(key uint64, valLen uint64) ([]byte, Duration, bool) {
	var (
		out  []byte
		lat  Duration
		ok   bool
		done bool
	)
	s.GetAsync(key, valLen, func(v []byte, l Duration, hit bool) {
		out, lat, ok, done = append([]byte(nil), v...), l, hit, true
	})
	s.Flush()
	eng := s.tb.clu.Eng
	eng.RunUntil(eng.Now() + DefaultMissTimeout)
	for !done && eng.Pending() > 0 {
		eng.RunUntil(eng.Now() + DefaultMissTimeout)
	}
	return out, lat, ok
}

// GetAsync issues one pipelined offloaded get; cb runs on a hit, or
// once every owner has answered a miss or timed out. The read policy
// picks which replica owner serves it; a timeout fails the get over to the
// next owner (counting toward that shard's suspect threshold), so with
// Replicas > 1 a crashed shard costs the gets that reach it before its
// circuit breaker opens one extra MissTimeout rather than their answers,
// and the gets after that nothing. Hot keys may be answered from
// the client-side cache with no NIC involvement at all. val is valid
// until cb returns; copy it to keep it. A cache hit hands out the
// cache's own slice, which must not be modified. Gets beyond a
// client's pipeline depth queue client-side. Call Flush after posting
// a batch — same-shard gets posted between flushes share one doorbell.
func (s *Service) GetAsync(key, valLen uint64, cb func(val []byte, lat Duration, ok bool)) {
	key &= hopscotch.KeyMask
	s.sentinelKick()
	g := s.takeGet(key, valLen, s.tr.OpBegin("get", key), cb)
	if s.cache != nil {
		if evicted, ok := s.hot.Touch(key); ok {
			delete(s.cache, evicted)
		}
		if v, ok := s.cache[key]; ok && uint64(len(v)) >= valLen {
			s.stats.CacheHits++
			s.stats.Hits++
			g.val = v[:valLen]
			g.next = getCacheHit
			s.tb.clu.Eng.After(cacheHitLat, g.cacheHitFn)
			return
		}
	}
	// Issued behind an unsettled write, this read may hit an owner that
	// has not applied it and answer after it settles: no admission.
	rec := s.keys[key]
	g.epoch, g.admit = rec.epoch, rec.unsettled == 0
	s.readOrder(g)
	if len(g.order) == 0 {
		// Empty ring: nothing owns the key. Unreachable while DrainShard
		// refuses to drain the last shard; kept as a miss, not a panic.
		s.stats.Misses++
		s.tr.OpEnd(g.op, "get")
		g.release()
		s.tb.clu.Eng.After(0, func() { cb(nil, 0, false) })
		return
	}
	g.fn, g.ext = s.placedAt(key, g.order[0])
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
	getAttempt                  // a client get is in flight on order[i]
	getProbe                    // answered; a read-repair probe is in flight
)

// getOp is one service-level get from GetAsync to its last
// continuation: what tryGet's per-attempt closures and the read-repair
// probe's callback would capture, in one pooled record. Its three
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
	// admission and hint learning against sets that raced the read. gen
	// is the service cache generation at issue time; it gates admission
	// against ownership changes that raced the read (a resharding
	// started mid-flight). admit is false when a write to the key was
	// unsettled at issue time.
	epoch, gen uint64
	admit      bool

	// order is the policy-ordered owners to try (spare is readOrder's
	// scratch for reordering them), i the attempt in flight, cli the
	// connection it is on, spent the latency of the attempts before it —
	// so a failover's cost (the timeout spent discovering the dead
	// owner) lands in the reported latency.
	order, spare []*serviceShard
	i            int
	cli          *Client
	spent        Duration
	fn           int    // 1 + the candidate attempt g.i probes alone, 0: it locates the key
	ext          uint64 // the extent attempt g.i expects that candidate to name
	located      bool   // a locate has answered on order[g.i]

	// The read-repair probe a hit started: the owner asked, over which
	// connection, the version the serving owner holds, the probe's trace
	// op id.
	partner   *serviceShard
	pcli      *Client
	servedVer uint64
	pop       uint64

	cacheHitFn func()
	attemptFn  func(val []byte, lat Duration, ok bool)
	probeFn    func(ver uint64, lat Duration, ok bool)
}

// takeGet hands out a get record in the routing stage.
func (s *Service) takeGet(key, valLen, op uint64, cb func(val []byte, lat Duration, ok bool)) *getOp {
	g, fresh := s.gets.take()
	if fresh {
		g.s = s
		g.cacheHitFn, g.attemptFn, g.probeFn = g.cacheHit, g.attempted, g.probed
	}
	g.next = getRouting
	g.key, g.valLen, g.op, g.cb = key, valLen, op, cb
	g.began, g.epoch, g.gen, g.admit = s.tb.Now(), 0, s.cacheGen, false
	g.i, g.spent, g.located = 0, 0, false
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

// tryGet issues attempt g.i of a get against its policy-ordered owners:
// hinted at g.fn and g.ext, or with fn 0 a locate.
func (s *Service) tryGet(g *getOp) {
	if g.next != getRouting {
		panic(fmt.Sprintf("redn: get record routed in stage %d", g.next))
	}
	sh := g.order[g.i]
	sh.stats.Gets++
	g.cli = sh.clients[sh.rr%len(sh.clients)]
	sh.rr++
	if s.tr.Enabled() {
		s.tr.AsyncBegin("attempt", g.op<<4|uint64(g.i), sh.trTry, g.op)
	}
	g.next = getAttempt
	if g.fn == 0 {
		g.cli.locateAsync(g.key, g.op, g.attemptFn)
	} else {
		g.cli.getAsync(g.key, g.valLen, g.op, g.fn, g.ext, g.attemptFn)
	}
	if g.i > 0 {
		// Retries run outside the caller's batch; kick them directly.
		g.cli.Flush()
	}
}

// attempted is the client callback of attempt g.i: a hit answers the
// caller (and may start a read-repair probe); a miss aims again on the
// same owner while its answer says where to, then fails over to the
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
		s.stats.Hits++
		if g.located && s.keys[g.key].epoch == g.epoch {
			// Reached through a locate, and no write issued since.
			s.learnPlaced(g.key, sh, sh.table.table.HashAddr(g.key, g.fn-1), g.ext)
		}
		sh.getLat.Add(lat)
		s.maybeCache(g, val)
		// A hit proves the shard live: if handoff hints piled up
		// behind a false suspicion, deliver them now.
		s.drainHints(sh, false)
		// Read-repair: a replicated hit also reads one other owner's
		// value header with a version probe (two READs); skew
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
		// The chain ran and answered: the NIC is alive, not a crash
		// symptom. The next get aims where the answer showed the key's
		// word; shown nowhere, the get locates once unless a delete is
		// the key's newest write; else this owner has answered the miss.
		sh.markLive()
		hinted := g.fn != 0
		g.located = g.located || !hinted
		if cli.movedFn != 0 || !g.located && !s.keys[g.key].del {
			if hinted {
				sh.stats.PlacedMisses++
			}
			g.fn, g.ext, g.spent = int(cli.movedFn), cli.moved, lat
			s.tryGet(g)
			g.cli.Flush() // outside the caller's batch, like a failover
			return
		}
	} else {
		s.noteOwnerMiss(sh)
	}
	if g.i+1 < len(g.order) {
		s.stats.Retries++
		g.i, g.spent, g.located = g.i+1, lat, false
		g.fn, g.ext = s.placedAt(g.key, g.order[g.i])
		s.tryGet(g)
		return
	}
	s.stats.Misses++
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
	if s.cache == nil || uint64(len(val)) < g.valLen {
		return
	}
	if !g.admit || s.keys[key].epoch != g.epoch {
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
// frozen NIC drops trigger SENDs, the old connections are out of step
// even after the restarted process returns, so recovery resets the
// shard's client connections in place — the reconnect a real client
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
			// missed while down, hints and repairs alike, and schedule
			// an anti-entropy rotation — recovery is exactly when
			// divergence (lost hints, crash-era misses) is worth
			// hunting.
			s.drainHints(sh, false)
			s.aeCleanRun = 0
			s.armAntiEntropy()
		},
	}.InjectAt(s.tb.clu.Eng, at)
}

// reconnect re-establishes sh's client connections after a process
// crash desequenced them, by resetting each in place (Client.reset):
// requests still in flight on them fail at once and fail over like any
// unexecuted timeout, and the shard's node memory, QPs and PU placement
// stay as they were.
func (s *Service) reconnect(sh *serviceShard) {
	sh.stats.Rebuilds++
	for _, cli := range sh.clients {
		cli.reset()
	}
	// The reset connections announce the shard is back.
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
	Sets              uint64 `metric:"sets"`               // owner writes applied (fabric acks + host path + drained hints)
	Spills            uint64 `metric:"spills"`             // keys resident but NIC-unreachable
	Gets              uint64 `metric:"gets"`               // get attempts routed here (failover retries included)
	PlacedMisses      uint64 `metric:"placed_misses"`      // hinted gets whose aim did not hold: aimed again where their answer showed the key, or located
	Rebuilds          uint64 `metric:"rebuilds"`           // client reconnects after process crashes
	FabricSets        uint64 `metric:"fabric_sets"`        // owner writes attempted through the NIC claim chain
	HostSets          uint64 `metric:"host_sets"`          // owner writes that fell back to the host CPU (kicks, spilled residents, claim races)
	HintsQueued       uint64 `metric:"hints_queued"`       // hints ever queued
	HintsApplied      uint64 `metric:"hints_applied"`      // hints delivered on reconnect (exactly once each)
	HintsDropped      uint64 `metric:"hints_dropped"`      // hints superseded by a newer write before draining
	Deletes           uint64 `metric:"dels"`               // owner deletes applied (fabric + host + trivial absents)
	FabricDeletes     uint64 `metric:"fabric_dels"`        // owner deletes attempted through the NIC pointer CAS
	HostDeletes       uint64 `metric:"host_dels"`          // owner deletes that fell back to the host CPU
	GCFreed           uint64 `metric:"gc_freed"`           // extents applied fabric deletes retired to the arena
	RepairsQueued     uint64 `metric:"repairs_queued"`     // repair records enqueued for this owner
	RepairsApplied    uint64 `metric:"repairs_applied"`    // repairs that rolled this owner forward
	RepairsSuperseded uint64 `metric:"repairs_superseded"` // repairs satisfied before applying (owner caught up, a newer record, or a write in flight)
	RepairsDropped    uint64 `metric:"repairs_dropped"`    // repairs dropped on a capacity rejection, or with their owner leaving
	AERepairs         uint64 `metric:"ae_repairs"`         // repairs the anti-entropy sweeper found for this owner

	// Stats reads these off the shard's hints, client connections and
	// arena.
	HintsPending  uint64 // handoff hints currently queued for this owner
	WindowCuts    uint64 // AIMD multiplicative decreases on the shard's client pipelines
	EcnCuts       uint64 // the subset triggered by ECN backlog marks
	ArenaLive     uint64 // live extent bytes in the shard's arena
	ArenaPeakLive uint64 // high-water live bytes (working-set size)
	ArenaPeak     uint64 // high-water arena footprint (the footprint: the arena never returns memory)

	// CompactMoves is always 0: the arena reuses each extent in place,
	// so nothing is ever relocated. The benchmark still reads it.
	CompactMoves uint64
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

	// The service counts the `metric`-tagged fields itself; the
	// registry reads each in place as "svc/<tag>".
	Hits        uint64 `metric:"hits"`
	Misses      uint64 `metric:"misses"`
	Retries     uint64 `metric:"retries"`    // failover attempts beyond each get's first owner
	CacheHits   uint64 `metric:"cache_hits"` // gets served from the client-side hot-key cache
	MaxInFlight int    // high-water mark of overlapping gets, any client

	Suspects uint64 `metric:"suspects"` // healthy-to-suspected transitions: breaker openings, the sentinel's crash signal

	SetOps      uint64 `metric:"set_ops"`      // client-visible writes issued (before replication fan-out)
	DelOps      uint64 `metric:"del_ops"`      // client-visible deletes issued
	QuorumFails uint64 `metric:"quorum_fails"` // writes/deletes that failed their W-of-N quorum

	Migrations         int    // completed reshardings (joins + drains)
	MigratingBuckets   int    // unsealed bucket segments of the active migration
	MigKeysMoved       uint64 `metric:"mig_keys_moved"`       // repair records the resharding migrator stood on lagging owners
	MigSegsSealed      uint64 `metric:"mig_segs_sealed"`      // bucket segments sealed across all migrations
	MigHintsRedirected uint64 `metric:"mig_hints_redirected"` // hints redirected off a draining shard

	Probes         uint64 `metric:"probes"`      // version probes issued on replicated hits
	ProbeSkews     uint64 `metric:"probe_skews"` // probes (and host fallbacks) that found version skew
	RepairsPending uint64 // repair records still standing
	AEPasses       uint64 `metric:"ae_passes"`       // anti-entropy sweep ticks that ran
	AESegsDiffed   uint64 `metric:"ae_segs_diffed"`  // segments whose digests disagreed
	AEKeysChecked  uint64 `metric:"ae_keys_checked"` // per-key comparisons inside flagged segments

	// Resources lists every serialized NIC unit across the shard
	// fleet (PUs, fetch units, links, PCIe, atomic units) with its
	// busy fraction of the run so far; Bottleneck is the busiest.
	Resources  []telemetry.ResourceUtil
	Bottleneck telemetry.ResourceUtil

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
	out := s.stats
	out.Migrations, out.MigratingBuckets = len(s.migLog), s.migratingBuckets()
	for _, sh := range s.order {
		out.RepairsPending += uint64(sh.nRepairs)
		ss := sh.stats
		ss.HintsPending = uint64(sh.nHints)
		for _, cli := range sh.clients {
			cuts, ecn, _ := cli.cuts()
			ss.WindowCuts += cuts
			ss.EcnCuts += ecn
			out.MaxInFlight = max(out.MaxInFlight, cli.get.maxInFlight)
		}
		ast := sh.srv.arena.Stats()
		ss.ArenaLive, ss.ArenaPeakLive, ss.ArenaPeak = ast.LiveBytes, ast.PeakLive, ast.Footprint
		out.Shards = append(out.Shards, ss)
		out.add(&ss)
	}
	out.Resources = s.resourceReport()
	if bn, ok := telemetry.Bottleneck(out.Resources); ok {
		out.Bottleneck = bn
	}
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
