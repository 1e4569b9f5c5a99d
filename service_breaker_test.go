package redn

import (
	"testing"

	"repro/internal/failure"
	"repro/internal/sim"
)

// The circuit breaker's contract: once defaultSuspectAfter unexecuted
// timeouts open a shard's breaker, user ops stop paying MissTimeout for
// it — gets go to live owners, writes hint — and a dedicated liveness
// probe, at most one in flight per shard and one per lapsed
// defaultSuspectFor window, is the only request that waits on the dead
// NIC until something proves it alive.

const (
	breakerGap  = 100 * sim.Microsecond // one get per gap
	breakerStep = 10 * sim.Microsecond  // breaker sampling interval
)

// breakerService is an r=3 W=2 round-robin service over three shards
// (so every key has the watched shard 0 among its owners), with keys
// preloaded.
func breakerService(t *testing.T, clientsPerShard int) (*Service, []uint64) {
	t.Helper()
	s := NewServiceWith(ServiceConfig{
		Shards: 3, ClientsPerShard: clientsPerShard, Pipeline: 8, Mode: LookupSeq,
		Replicas: 3, WriteQuorum: 2, ReadPolicy: ReadRoundRobin,
	})
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i + 1)
		if err := s.Set(keys[i], Value(keys[i], 64)); err != nil {
			t.Fatal(err)
		}
	}
	return s, keys
}

// breakerGet is one get of the load: when it was issued, whether the
// watched shard's breaker was open then, and how it finished.
type breakerGet struct {
	at          sim.Time
	openAtIssue bool
	lat         Duration
	ok, done    bool
}

// breakerLoad issues one get every breakerGap, round the key set, until
// stopped.
type breakerLoad struct {
	gets []breakerGet
	stop bool
}

func startBreakerLoad(s *Service, keys []uint64, watch *serviceShard) *breakerLoad {
	l := &breakerLoad{}
	eng := s.Testbed().Engine()
	var next func()
	next = func() {
		if l.stop {
			return
		}
		i := len(l.gets)
		l.gets = append(l.gets, breakerGet{at: s.Now(), openAtIssue: watch.down()})
		s.GetAsync(keys[i%len(keys)], 64, func(_ []byte, lat Duration, ok bool) {
			l.gets[i].lat, l.gets[i].ok, l.gets[i].done = lat, ok, true
		})
		s.Flush()
		eng.After(breakerGap, next)
	}
	next()
	return l
}

// inFlight counts the load's issued, unfinished gets.
func (l *breakerLoad) inFlight() int {
	n := 0
	for _, g := range l.gets {
		if !g.done {
			n++
		}
	}
	return n
}

// finish stops the load and drains it; every get must have answered.
func (l *breakerLoad) finish(t *testing.T, s *Service) {
	t.Helper()
	l.stop = true
	s.Run()
	for i, g := range l.gets {
		if !g.done || !g.ok {
			t.Fatalf("get %d (issued %v): done=%v ok=%v — a live replica should have answered", i, g.at, g.done, g.ok)
		}
	}
}

// stepUntil advances the simulation to until in breakerStep slices,
// running each after every slice.
func stepUntil(s *Service, until sim.Time, each func()) {
	eng := s.Testbed().Engine()
	for s.Now() < until {
		eng.RunUntil(s.Now() + breakerStep)
		each()
	}
}

// getsInFlight sums the gets occupying sh's connections.
func getsInFlight(sh *serviceShard) int {
	n := 0
	for _, cli := range sh.clients {
		n += cli.pipelineStats(pipeGet).InFlight
	}
	return n
}

// processCrashRun drives the load through a process crash of shard 0
// and its recovery, sampling the breaker throughout.
type processCrashRun struct {
	s               *Service
	load            *breakerLoad
	tripAt          sim.Time // first sample that saw the breaker open
	inFlightAtTrip  int      // the load's unfinished gets at that sample
	probes          int      // probes sent (rising edges of probing)
	maxOpenInFlight int      // most gets on the shard's connections while open, after the trip's stragglers
}

func runProcessCrash(t *testing.T) processCrashRun {
	t.Helper()
	s, keys := breakerService(t, 2)
	sh := s.order[0]
	crashAt := s.Now() + sim.Millisecond
	s.CrashShard(0, failure.ProcessCrash, crashAt)
	r := processCrashRun{s: s, load: startBreakerLoad(s, keys, sh)}
	probing := false
	stepUntil(s, crashAt+failure.BootstrapTime+failure.RebuildTime+10*sim.Millisecond, func() {
		if sh.down() && r.tripAt == 0 {
			r.tripAt, r.inFlightAtTrip = s.Now(), r.load.inFlight()
		}
		if sh.probing && !probing {
			r.probes++
		}
		probing = sh.probing
		if sh.down() && s.Now() > r.tripAt+DefaultMissTimeout {
			r.maxOpenInFlight = max(r.maxOpenInFlight, getsInFlight(sh))
		}
	})
	r.load.finish(t, s)
	if r.tripAt == 0 {
		t.Fatal("the crashed shard's breaker never opened")
	}
	if sh.down() {
		t.Fatal("the breaker is still open after the shard reconnected")
	}
	return r
}

// Under an r=3 round-robin process crash, the gets that pay a
// MissTimeout are the ones that found the shard dead before its breaker
// opened: at most defaultSuspectAfter plus those already in flight at
// the trip. No get issued while the breaker is open waits on the dead
// NIC — not when its window lapses either.
func TestServiceBreakerSparesUserGets(t *testing.T) {
	r := runProcessCrash(t)
	to := DefaultMissTimeout
	slow, openIssued := 0, 0
	for i, g := range r.load.gets {
		if g.openAtIssue {
			openIssued++
		}
		if g.lat < to {
			continue
		}
		slow++
		if g.at >= r.tripAt || g.openAtIssue {
			t.Errorf("get %d issued at %v, after the breaker opened at %v, took %v (>= MissTimeout %v)",
				i, g.at, r.tripAt, g.lat, to)
		}
	}
	if slow == 0 {
		t.Fatal("no get paid the detection timeout: the crash was never observed")
	}
	if limit := defaultSuspectAfter + r.inFlightAtTrip; slow > limit {
		t.Fatalf("%d gets took >= MissTimeout, want <= %d (defaultSuspectAfter + %d in flight at the trip)",
			slow, limit, r.inFlightAtTrip)
	}
	if openIssued < len(r.load.gets)/2 {
		t.Fatalf("only %d of %d gets issued under the open breaker: the outage was not exercised",
			openIssued, len(r.load.gets))
	}
}

// The breaker's probing costs one dedicated get per lapsed window —
// about outage / defaultSuspectFor of them — never more than one in
// flight on the shard, and the outage counts once in svc/suspects
// however many windows it spans.
func TestServiceBreakerProbesOncePerWindow(t *testing.T) {
	r := runProcessCrash(t)
	outage := failure.BootstrapTime + failure.RebuildTime
	most := int(outage / defaultSuspectFor)
	// Each window re-arms from its probe's timeout, and the probe waits
	// for the next routing decision: a window lasts up to
	// defaultSuspectFor + MissTimeout + breakerGap.
	least := int(outage / (defaultSuspectFor + DefaultMissTimeout + breakerGap))
	if r.probes < least-1 || r.probes > most {
		t.Fatalf("%d liveness probes over a %v outage, want %d..%d (one per %v window)",
			r.probes, outage, least-1, most, defaultSuspectFor)
	}
	if r.maxOpenInFlight > 1 {
		t.Fatalf("%d gets in flight on the down shard, want at most its one probe", r.maxOpenInFlight)
	}
	if n := r.s.stats.Suspects; n != 1 {
		t.Fatalf("svc/suspects = %d after one outage, want 1", n)
	}
}

// A NIC that freezes and thaws with no process restart (so no reconnect
// announces it) is found alive by the breaker's own probe within one
// window plus a deadline, and then serves gets again. A connection that
// lost a trigger SEND to the freeze stays out of step after the thaw (a
// real RC QP would be in error until the reconnect a restart performs),
// so the shard has more connections than the freeze can spoil and the
// probe rotates onto an untouched one.
func TestServiceBreakerProbeClearsThawedNIC(t *testing.T) {
	s, keys := breakerService(t, 16)
	sh := s.order[0]
	dev := sh.srv.node.Dev
	dev.Freeze()
	load := startBreakerLoad(s, keys, sh)
	stepUntil(s, s.Now()+5*sim.Millisecond, func() {})
	if !sh.down() {
		t.Fatal("frozen NIC did not open the breaker")
	}
	// Thaw in the middle of the third window: two probes have timed out.
	stepUntil(s, s.Now()+2*defaultSuspectFor+defaultSuspectFor/2, func() {})
	if !sh.down() {
		t.Fatal("breaker closed while the NIC was still frozen")
	}
	if next := sh.clients[sh.rr%len(sh.clients)]; next.pipelineStats(pipeGet).Wedged != 0 {
		t.Fatal("setup: the freeze spoiled the connection the next probe takes")
	}
	dev.Unfreeze()
	thawAt := s.Now()
	gets := sh.stats.Gets
	var clearedAt sim.Time
	stepUntil(s, thawAt+2*defaultSuspectFor, func() {
		if clearedAt == 0 && !sh.down() {
			clearedAt = s.Now()
		}
	})
	load.finish(t, s)
	if clearedAt == 0 {
		t.Fatal("the thawed NIC was never found alive")
	}
	if limit := defaultSuspectFor + DefaultMissTimeout; clearedAt-thawAt > limit {
		t.Fatalf("breaker closed %v after the thaw, want within %v", clearedAt-thawAt, limit)
	}
	if sh.stats.Gets == gets {
		t.Fatal("the thawed shard served no gets after its breaker closed")
	}
}

// Writes issued while the breaker is open — including after its window
// lapses, when a breaker that closed on its window alone would let them
// arm a set chain on the dead NIC — hint instead: no set slot wedges,
// the W=2 quorum acks on the live owners, and the window's probe goes
// out in the write's stead.
func TestServiceBreakerWritesHint(t *testing.T) {
	s, keys := breakerService(t, 2)
	sh := s.order[0]
	sh.srv.node.Dev.Freeze()
	load := startBreakerLoad(s, keys, sh)
	stepUntil(s, s.Now()+5*sim.Millisecond, func() {})
	load.stop = true
	s.Testbed().RunFor(defaultSuspectFor)
	if !sh.down() || s.Now() < sh.suspectUntil {
		t.Fatalf("setup: want a lapsed window on an open breaker (down=%v until=%v now=%v)",
			sh.down(), sh.suspectUntil, s.Now())
	}
	wedged := func() (n int) {
		for _, cli := range sh.clients {
			n += cli.pipelineStats(pipeSet).Wedged
		}
		return n
	}
	wedged0, fabric0, hinted0 := wedged(), sh.stats.FabricSets, sh.stats.HintsQueued
	for i, k := range keys[:16] {
		if err := s.Set(k, Value(k+1, 64)); err != nil {
			t.Fatalf("set %d with one of three owners down: %v", k, err)
		}
		if i == 0 && !sh.probing {
			t.Fatal("the write routed around the lapsed breaker sent no probe")
		}
	}
	if n := wedged() - wedged0; n != 0 {
		t.Fatalf("%d set slots wedged on the down shard", n)
	}
	if n := sh.stats.FabricSets - fabric0; n != 0 {
		t.Fatalf("%d set chains armed on the down shard", n)
	}
	if n := sh.stats.HintsQueued - hinted0; n != 16 {
		t.Fatalf("%d hints queued for the down shard, want 16", n)
	}
}
