package main

// Virtual-time units, in the simulator's nanoseconds.
const (
	usec int64 = 1000
	msec       = 1000 * usec
	sec        = 1000 * msec
)

// workload is one row of the benchmark: a service shape plus a seeded
// load. Every row runs through the same two drivers (closed, open);
// nothing in the harness branches on a workload's name.
type workload struct {
	Name string
	Why  string

	// Service shape. Everything else is fixed for all workloads:
	// 4 shards x 2 clients x 16-deep pipelines, LookupSeq, 1<<16 buckets.
	Replicas         int
	WriteQuorum      int
	ReadPolicy       string // "primary", "round-robin", "hot-spread"
	HotKeyTrack      int
	HotKeyCache      int
	ReadRepair       bool
	AntiEntropyEvery int64

	// Load.
	Keys   int
	ZipfS  float64 // > 1: Zipf exponent; 0: uniform
	SetPct int     // share of ops that are sets, in percent
	Users  int     // closed-loop users (the open loop warms up with them)

	// Closed loop: an untimed warm-up, then closedSegments timed segments
	// of SegOps ops each. Every metric is taken over that one timed
	// section, so counts and virtual time repeat exactly for a seed.
	WarmOps int
	SegOps  int

	// Open loop (Gap > 0): a burst of Burst ops every Gap for Window of
	// virtual time, shard 0 crashing CrashAt into it, then quiesce and
	// read back. An op counts toward goodput only if it succeeds within
	// LatencyLimit.
	Gap          int64
	Burst        int
	Window       int64
	CrashAt      int64
	LatencyLimit int64

	// MinCacheHit fails the run when the client cache serves a smaller
	// share of gets (0: not checked).
	MinCacheHit float64
}

func (w *workload) open() bool { return w.Gap > 0 }

// runSeconds is run_seconds in BENCHMARK.json: the run length the table
// below is sized for. closedSegments x SegOps takes each closed loop
// about 8 s of wall time on the 2-core reference box on a quiet hour and
// up to 15 s on a noisy one; the open loop's window takes 3 to 5 s.
const runSeconds = 10

// closedSegments is how many timed segments a closed loop runs: an even
// number, so the span-traced pass traces exactly half of them.
const closedSegments = 8

// workloads is the whole benchmark.
var workloads = []workload{
	{
		Name:     "read_uniform",
		Why:      "closed loop, 128 users, 98% gets uniform over 10K keys, r=1: the NIC-offloaded get chain at saturation; sim+rnic+core do the wall work, service only routes",
		Replicas: 1, ReadPolicy: "primary",
		Keys: 10000, SetPct: 2, Users: 128,
		WarmOps: 20000, SegOps: 28000,
	},
	{
		Name:     "quorum_write",
		Why:      "closed loop, 128 users, 50% sets, r=3 W=2: CAS-claim set chains, 3-way fan-out, quorum state machine, write slots and extent arena; the only workload that loads set latency",
		Replicas: 3, WriteQuorum: 2, ReadPolicy: "primary",
		Keys: 10000, SetPct: 50, Users: 128,
		WarmOps: 8000, SegOps: 10000,
	},
	{
		Name:     "hot_zipf_cached",
		Why:      "closed loop, 128 users, Zipf 1.1 gets with the client hot-key cache on: ~80% of gets never enter the fabric, so service+shard+generator dominate; the bypass for engine work",
		Replicas: 2, ReadPolicy: "hot-spread", HotKeyTrack: 1024, HotKeyCache: 1024,
		Keys: 10000, ZipfS: 1.1, SetPct: 2, Users: 128,
		WarmOps: 80000, SegOps: 80000,
		MinCacheHit: 0.7,
	},
	{
		Name:     "crash_openloop",
		Why:      "open loop, bursts of 8 ops every 1.6 ms (5K ops/s, ~1% load) through a shard crash: timeouts, failover, circuit breaker, hints, repair; near-unloaded latency beside the failover tail",
		Replicas: 3, WriteQuorum: 2, ReadPolicy: "round-robin",
		ReadRepair: true, AntiEntropyEvery: 50 * msec,
		Keys: 4000, SetPct: 25, Users: 32,
		WarmOps: 4000,
		Gap:     1600 * usec, Burst: 8, Window: 6 * sec, CrashAt: 1 * sec, LatencyLimit: 100 * usec,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sized returns w sized for a run of the given length: op counts and the
// open loop's rate grow and shrink with seconds/runSeconds, and below
// runSeconds the key set shrinks with them; the virtual timeline of the
// crash stays where it is. Op counts are fixed by seconds, never by the
// clock. A run at another length than runSeconds is a different
// workload: its numbers compare with nothing (smoke runs use 0.1).
func (w workload) sized(seconds float64) workload {
	if seconds == runSeconds {
		return w
	}
	scale := seconds / runSeconds
	resize := func(n int) int { return max(int(float64(n)*scale), 2*w.Users) }
	w.WarmOps, w.SegOps, w.Keys = resize(w.WarmOps), resize(w.SegOps), min(w.Keys, resize(w.Keys))
	if w.open() {
		w.Gap = int64(float64(w.Gap) / scale)
	}
	if scale < 1 {
		w.MinCacheHit = 0 // the cache has not warmed in a smoke run
	}
	return w
}
