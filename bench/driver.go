package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// openSegments is how many equal slices of virtual time the open loop's
// window is accounted in, so its wall_ops_per_s is a median like the
// closed loops'.
const openSegments = 12

// engineSlice is how much virtual time one Engine.RunUntil call covers:
// short enough to sample the event-queue depth and to give the trace an
// engine.run span per few hundred ops, long enough that the loop around
// it costs nothing.
const engineSlice = 100 * usec

// runner drives one service through one pass of a workload. It holds the
// correctness oracle: values are f(key, version), the runner knows the
// last version it handed out and the newest one acknowledged per key,
// and every completion is checked against them.
type runner struct {
	w   *workload
	svc *service
	gen *generator
	tr  *spanTracer // nil: this segment is untraced

	issued []uint64 // per key index: newest version handed to a set
	acked  []uint64 // per key index: newest version a set acknowledged
	valBuf []byte

	attempted  int64
	failed     int64
	failures   map[string]int64
	gets       int64
	staleReads int64 // tolerated (W < N) hits older than the newest acknowledged version

	// Timed-section samples: per-op virtual latencies and the
	// fingerprint of the (kind, key, ok, latency) stream.
	recording      bool
	getLat, setLat []int64
	fingerprint    uint64

	// Load state: both loops run continuously; segments only count.
	completed  int64 // generator ops completed
	inflight   int   // closed loop: ops outstanding
	stopping   bool  // closed loop: users issue no more
	issuedOpen int64 // open loop: ops issued
	good       int64 // open loop: ops inside the window and their latency limit
	maxLate    int64 // open loop: worst generator lateness, virtual ns

	pendingMax int
}

func newRunner(w *workload, svc *service, gen *generator) *runner {
	r := &runner{w: w, svc: svc, gen: gen,
		issued: make([]uint64, len(gen.keys)), acked: make([]uint64, len(gen.keys)),
		valBuf: make([]byte, valLen), failures: make(map[string]int64),
		fingerprint: 14695981039346656037}
	for i := range r.issued { // the preload stored version 1 of every key
		r.issued[i], r.acked[i] = 1, 1
	}
	return r
}

func (r *runner) fail(why string, n int64) {
	r.failed += n
	r.failures[why] += n
}

func (r *runner) mix(x uint64) {
	r.fingerprint = (r.fingerprint ^ x) * 1099511628211
}

func (r *runner) record(kind opKind, key uint64, ok bool, lat int64) {
	if !r.recording {
		return
	}
	okBit := uint64(0)
	if ok {
		okBit = 1
	}
	r.mix(uint64(kind)<<1 | okBit)
	r.mix(key)
	r.mix(uint64(lat))
	if kind == kindSet {
		r.setLat = append(r.setLat, lat)
	} else {
		r.getLat = append(r.getLat, lat)
	}
}

// issue generates and submits the next op. done runs once, inside the
// op's completion callback, with whether the op succeeded. Latency is
// the benchmark's own: virtual now at completion minus virtual now at
// issue (which, on the open loop, is exactly the op's due time).
func (r *runner) issue(done func(ok bool)) {
	r.tr.begin(spanGen, 0)
	kind, idx := r.gen.next()
	key := r.gen.keys[idx]
	r.attempted++
	id := uint64(r.attempted) // spans of one op share its sequence number
	start := r.svc.now()
	if kind == kindSet {
		r.issued[idx]++
		ver := r.issued[idx]
		encodeValue(r.valBuf, key, ver)
		r.tr.next(spanSubmit, id)
		r.svc.set(key, r.valBuf, func(err error) {
			r.tr.begin(spanCallback, id)
			ok := err == nil
			if !ok {
				r.fail("quorum_error", 1)
			} else if ver > r.acked[idx] {
				r.acked[idx] = ver
			}
			r.record(kindSet, key, ok, r.svc.now()-start)
			done(ok)
			r.tr.end()
		})
		r.tr.end()
		return
	}
	r.gets++
	floor := r.acked[idx]
	r.tr.next(spanSubmit, id)
	r.svc.get(key, func(val []byte, hit bool) {
		r.tr.begin(spanCallback, id)
		why := r.checkHit(idx, val, hit, floor, false)
		if why != "" {
			r.fail(why, 1)
		}
		r.record(kindGet, key, why == "", r.svc.now()-start)
		done(why == "")
		r.tr.end()
	})
	r.tr.end()
}

// checkHit is the read oracle; it returns why a get failed, or "".
// Every key is live, so a miss is a failure; a hit must be, byte for
// byte, a version this run wrote, no older than floor — the newest
// version acknowledged before the get was issued. One exception: with
// W < N a get reads one owner and W + 1 <= N, so the service itself only
// promises that owner catches up; there an older (but real) version is
// counted as a stale read, not a failure. After quiesce the exception
// is over: readBack passes strict.
func (r *runner) checkHit(idx int, val []byte, hit bool, floor uint64, strict bool) string {
	if !hit {
		return "miss_on_live_key"
	}
	ver, good := decodeValue(val, r.gen.keys[idx])
	switch {
	case !good || ver == 0 || ver > r.issued[idx]:
		return "wrong_bytes"
	case ver < floor:
		if strict || r.w.WriteQuorum == 0 || r.w.WriteQuorum >= r.w.Replicas {
			return "stale_read"
		}
		r.staleReads++
	}
	return ""
}

func (r *runner) flush() {
	r.tr.begin(spanFlush, 0)
	r.svc.flush()
	r.tr.end()
}

// drive advances virtual time in slices until done reports true, the
// engine runs dry, or deadline (0: none) passes.
func (r *runner) drive(deadline int64, done func() bool) {
	for !done() && r.svc.pending() > 0 && (deadline == 0 || r.svc.now() < deadline) {
		until := r.svc.now() + engineSlice
		if deadline > 0 {
			until = min(until, deadline)
		}
		r.tr.begin(spanEngineRun, 0)
		r.svc.runUntil(until)
		r.tr.end()
		r.pendingMax = max(r.pendingMax, r.svc.pending())
	}
}

// startUsers launches w.Users closed-loop users: each keeps exactly one
// op outstanding and issues its next from the previous one's
// completion, until stopUsers. The loop runs continuously across
// segments — a segment is an accounting window, not a drain — so no
// segment starts with a thundering herd or ends with an idle fabric.
func (r *runner) startUsers() {
	r.stopping = false
	var user func()
	user = func() {
		if r.stopping {
			return
		}
		r.inflight++
		r.issue(func(bool) {
			r.inflight--
			r.completed++
			user()
			r.flush()
		})
	}
	for i := 0; i < r.w.Users; i++ {
		user()
	}
	r.flush()
}

// stopUsers lets every user finish its outstanding op and issue no more.
func (r *runner) stopUsers() {
	r.stopping = true
	r.drive(0, func() bool { return r.inflight == 0 })
	if r.inflight > 0 {
		r.fail("never_completed", int64(r.inflight))
	}
}

// closedSegment runs the users until n more ops have completed (to the
// end of that engine slice) and returns how many did and the virtual
// time it took.
func (r *runner) closedSegment(n int) (ops, virt int64) {
	r.tr.begin(spanSegment, 0)
	defer r.tr.end()
	c0, t0 := r.completed, r.svc.now()
	r.drive(0, func() bool { return r.completed-c0 >= int64(n) })
	if r.completed-c0 < int64(n) {
		r.fail("never_completed", int64(n)-(r.completed-c0))
	}
	return r.completed - c0, r.svc.now() - t0
}

// startOpen begins the open loop: a burst of w.Burst ops every w.Gap of
// virtual time until end, whatever the completions do, with shard 0
// crashing w.CrashAt in. An op counts as good if it succeeds inside the
// window and within w.LatencyLimit of its due time. The generator is an
// engine event, so it should never run late in virtual time; maxLate
// records the worst it did.
func (r *runner) startOpen(end int64) {
	start := r.svc.now()
	if r.w.CrashAt > 0 {
		r.svc.crashShard0(start + r.w.CrashAt)
	}
	next := start // due time of the next burst
	var tick func()
	tick = func() {
		due := next
		if due >= end {
			return
		}
		if late := r.svc.now() - due; late > r.maxLate {
			r.maxLate = late
		}
		next += r.w.Gap
		for i := 0; i < r.w.Burst; i++ {
			r.issuedOpen++
			r.issue(func(ok bool) {
				r.completed++
				if now := r.svc.now(); ok && now <= end && now-due <= r.w.LatencyLimit {
					r.good++
				}
			})
		}
		r.flush()
		r.svc.after(next-r.svc.now(), tick)
	}
	tick()
}

// openSegment advances the open loop to virtual time until and returns
// the ops that completed meanwhile.
func (r *runner) openSegment(until int64) (ops int64) {
	r.tr.begin(spanSegment, 0)
	defer r.tr.end()
	c0 := r.completed
	r.drive(until, func() bool { return false })
	return r.completed - c0
}

// quiesce lets background replication finish: in-flight ops, hinted
// handoff, the repair queue and anti-entropy, bounded by maxQuiesce of
// virtual time.
func (r *runner) quiesce() {
	const step, maxQuiesce = 10 * msec, 3 * sec
	limit := r.svc.now() + maxQuiesce
	for r.svc.now() < limit {
		r.drive(r.svc.now()+step, func() bool { return false })
		c := r.svc.counters()
		settled := c.HintsPending == 0 && c.RepairsPending == 0 && r.svc.staleOwners(r.gen.keys) == 0
		if settled || r.svc.pending() == 0 {
			return
		}
	}
}

// readBack is the durability oracle: after quiesce every key must read
// back at (at least) its newest acknowledged version, and no replica
// owner may lag the newest version any owner holds.
func (r *runner) readBack() {
	next, completed := 0, 0
	n := len(r.gen.keys)
	var user func()
	user = func() {
		if next >= n {
			return
		}
		idx := next
		next++
		floor := r.acked[idx]
		r.svc.get(r.gen.keys[idx], func(val []byte, hit bool) {
			completed++
			if r.checkHit(idx, val, hit, floor, true) != "" {
				r.fail("acked_write_unreadable", 1)
			}
			user()
			r.svc.flush()
		})
	}
	for i := 0; i < r.w.Users; i++ {
		user()
	}
	r.svc.flush()
	r.drive(0, func() bool { return completed >= n })
	if completed < n {
		r.fail("acked_write_unreadable", int64(n-completed))
	}
	if stale := r.svc.staleOwners(r.gen.keys); stale > 0 {
		r.fail("stale_owner_after_quiesce", int64(stale))
	}
}

// passResult is everything one pass measured over its timed section:
// the closedSegments segments of a closed loop, or the open loop's window.
type passResult struct {
	segOps  []int64
	segWall []float64 // wall seconds per segment
	ops     int64     // closed loop: ops completed; open loop: ops issued
	good    int64     // open loop: ops that succeeded inside the window and their latency limit
	virt    int64     // virtual ns the section took
	wall    float64   // wall seconds the section took
	events  uint64    // engine events the section executed
	host    hostCost

	getLat      []int64 // sorted
	setLat      []int64 // sorted
	fingerprint uint64
	pendingMax  int
	delta       counters // counter growth over the section
	now         counters // absolute counters at its end

	attempted, failed int64
	failures          map[string]int64
	gets, staleReads  int64
	maxLate           int64
}

// build makes w's service and generator from seed and preloads every
// key, returning the wall time it took.
func build(w *workload, seed int64, sinks bool) (*service, *generator, float64, error) {
	t0 := time.Now()
	svc := newService(w, sinks)
	gen := newGenerator(seed, w.Keys, w.ZipfS, w.SetPct)
	err := svc.preload(gen.keys)
	return svc, gen, time.Since(t0).Seconds(), err
}

// passOpts is what varies between the passes of a run.
type passOpts struct {
	// tr, when set, records host spans on every other timed segment (the
	// odd ones), so the traced and untraced halves share one service, one
	// op stream and the machine's mood: their ratio is the span overhead.
	tr *spanTracer
	// timedStart and timedEnd bracket the timed section, for profilers
	// that must not see warm-up or read-back.
	timedStart, timedEnd func()
}

// runPass runs warm-up, the timed section, then quiesce and read-back,
// on a freshly built service.
func runPass(w *workload, svc *service, gen *generator, opts passOpts) *passResult {
	r := newRunner(w, svc, gen)
	res := &passResult{}
	opts.tr.begin(spanRun, 0)

	// Warm-up: closed-loop users on every workload. The closed loops keep
	// them running into the timed section; the open loop stops them first.
	r.startUsers()
	r.closedSegment(w.WarmOps)
	if w.open() {
		r.stopUsers()
	}
	expect := closedSegments * w.SegOps
	if w.open() {
		expect = int(w.Window/w.Gap) * w.Burst
	}
	r.getLat = make([]int64, 0, expect+expect/8)
	r.setLat = make([]int64, 0, expect+expect/8)

	runtime.GC()
	svc.markUtilization()
	base := svc.counters()
	if opts.timedStart != nil {
		opts.timedStart()
	}
	events0 := svc.executed()
	host0 := readHostCost()
	timed0 := time.Now()
	r.recording = true

	segment := func(run func() int64) {
		if len(res.segOps)%2 == 1 {
			r.tr = opts.tr
		}
		t0 := time.Now()
		n := run()
		res.segOps = append(res.segOps, n)
		res.segWall = append(res.segWall, time.Since(t0).Seconds())
		r.tr = nil
	}
	if w.open() {
		start := svc.now()
		r.startOpen(start + w.Window)
		for i := int64(1); i <= openSegments; i++ {
			segment(func() int64 { return r.openSegment(start + w.Window*i/openSegments) })
		}
		res.ops, res.good, res.virt = r.issuedOpen, r.good, w.Window
	} else {
		for i := 0; i < closedSegments; i++ {
			segment(func() int64 {
				ops, virt := r.closedSegment(w.SegOps)
				res.ops += ops
				res.virt += virt
				return ops
			})
		}
	}
	r.recording = false
	res.wall = time.Since(timed0).Seconds()
	res.events = svc.executed() - events0
	res.host = readHostCost().since(host0)
	if opts.timedEnd != nil {
		opts.timedEnd()
	}
	res.pendingMax = r.pendingMax
	res.now = svc.counters()
	res.delta = res.now.since(base)
	for _, c := range []uint64{res.now.Hits, res.now.Misses, res.now.Retries, res.now.CacheHits,
		res.now.SetOps, res.now.QuorumFails} {
		r.mix(c)
	}
	res.fingerprint = r.fingerprint
	if !w.open() {
		r.stopUsers()
	}

	r.quiesce()
	r.readBack()
	opts.tr.end()

	if hit := res.cacheHitRatio(); hit < w.MinCacheHit {
		r.fail(fmt.Sprintf("cache_hit_ratio_%.3f_below_%.2f", hit, w.MinCacheHit), 1)
	}
	slices.Sort(r.getLat)
	slices.Sort(r.setLat)
	res.getLat, res.setLat = r.getLat, r.setLat
	res.attempted, res.failed, res.failures = r.attempted, r.failed, r.failures
	res.gets, res.staleReads, res.maxLate = r.gets, r.staleReads, r.maxLate
	return res
}

// segRates returns each timed segment's ops per wall second.
func (p *passResult) segRates() []float64 {
	rates := make([]float64, len(p.segOps))
	for i := range rates {
		rates[i] = float64(p.segOps[i]) / p.segWall[i]
	}
	return rates
}

// rate is the pass's throughput in ops per wall second: the median over
// its segments, as wall_ops_per_s is.
func (p *passResult) rate() float64 { return median(p.segRates()) }

// halves splits the segment rates into the even (never span-traced) and
// odd (span-traced, when the pass had a tracer) segments, with the ops
// the odd ones completed.
func (p *passResult) halves() (even, odd []float64, oddOps int64) {
	for i, rate := range p.segRates() {
		if i%2 == 1 {
			odd = append(odd, rate)
			oddOps += p.segOps[i]
		} else {
			even = append(even, rate)
		}
	}
	return even, odd, oddOps
}

func (p *passResult) cacheHitRatio() float64 {
	return ratio(float64(p.delta.CacheHits), float64(p.delta.Hits+p.delta.Misses))
}

// ratio is a/b, or 0 when b is 0 (a counter nothing incremented).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
