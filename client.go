package redn

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/fabric"
	"repro/internal/hopscotch"
	"repro/internal/ring"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wqe"
)

// DefaultMissTimeout is how long a get waits for the NIC's response
// WRITE before declaring a miss. A two-probe get has no negative ack (a
// failed key compare leaves its response WQE a NOOP), so absence of data
// is its only miss signal, as in the paper's client; hinted gets, probes
// and write chains answer every time, so their deadline means a dead NIC.
const DefaultMissTimeout = 200 * sim.Microsecond

// defaultMaxValLen bounds the value size one get can return; it sizes
// the client's per-request response buffers.
const defaultMaxValLen = 1 << 17

// defaultEcnBacklog is the completion-stamped PU backlog above which an
// ack counts as a congestion signal: far enough under MissTimeout that
// a window cuts on marks long before requests start dying.
const defaultEcnBacklog = 25 * sim.Microsecond

// defaultWindowBeta is the multiplicative-decrease factor a window
// applies on a lost request or an ECN mark.
const defaultWindowBeta = 0.5

// hintHead is the head of a get slot's answer buffer, where a hinted
// get's bucket [keyCtrl, valAddr] lands ahead of the value.
const hintHead = 16

// pipeOp names one of the client's two offload pipelines.
type pipeOp uint8

// The client's offload pipelines. A delete and a version probe are
// requests on the set pipeline: a pointer CAS freeing the key's bucket,
// and two READs on the client end of the slot's response connection.
const (
	pipeGet pipeOp = iota
	pipeSet
)

// pipelineStats is a point-in-time snapshot of one pipeline's
// occupancy, window and answers. InFlight and Wedged are disjoint: a
// quarantined slot is neither free nor carrying a live request.
type pipelineStats struct {
	InFlight int // slots occupied by live requests
	Queued   int // requests waiting client-side for a slot or window
	Wedged   int // quarantined slots (armed chain never executed)
	Window   int // current congestion window

	Acks, Fails uint64 // requests answered / failed (misses, refusals, timeouts)
}

// Client is a remote node issuing offloaded gets and sets against a
// server's hash table, entirely served by the server's NIC.
//
// A client keeps up to depth requests in flight per pipeline on one
// connection per pipeline: gets, on managed answer queues (unmanaged for
// the service's hinted gets), and sets, deletes (the pointer CAS freeing
// the key's bucket) and version probes, on unmanaged ones. Both are driven by
// the same pipeline machinery (opPipeline): each in-flight request owns
// one offload context of the server-side pool (the request slot) and
// the per-slot buffers its chain reads and writes. Responses
// demultiplex exactly: a context's response QP completes only its own
// WRITEs (and its client end a probe's READs), so a completion identifies
// its slot, and the 48-bit key in its id field (a two-probe get's CAS
// stamps it) guards against timed-out stragglers. Trigger SENDs are
// posted doorbell-less and kicked in batches by Flush.
//
// How many of the depth slots a pipeline may occupy at once is its
// congestion window, an AIMD loop: open at min(depth, ECN mark /
// FetchManaged), grow by 1/w per clean answer, cut multiplicatively on a
// lost request (one whose chain never ran before its deadline) and on the
// ECN-like backlog watermark the NIC stamps into completions, floor 1,
// one cut per window epoch. A miss is an answer, not a loss.
type Client struct {
	tb    *Testbed
	node  *fabric.Node
	mode  LookupMode
	gets  *core.Pool[*core.LookupOffload]
	sets  *core.Pool[*core.SetOffload] // sets and deletes
	table *HashTable
	srv   *Server // its arena supplies staging extents; its retire queue takes superseded ones

	// missTimeout is how long an unanswered request waits before it fails,
	// fixed for the client's life: a deadline queue needs issue order.
	missTimeout Duration

	depth   int
	maxVal  uint64
	getVals []byte // depth × maxVal: a get slot's piece lends its callback the value

	// The two pipelines behind GetAsync and SetAsync (and the set and
	// delete claims and the probe entry point) — one implementation,
	// per-op hooks. pipes indexes them by pipeOp in doorbell order
	// (get, set).
	get, set *opPipeline
	pipes    [2]*opPipeline

	// prevVal tracks, per key, the extent the bucket held after this
	// client's last acknowledged standalone set — freed exactly once
	// when the NEXT same-key ack supersedes it. Closure-captured
	// "old value" snapshots cannot do this: two pipelined same-key
	// overwrites would capture the same extent and free it twice.
	// Only the SetAsync lifecycle path populates it (a delete's ack
	// retires its key's entry); the Service drives setAsyncClaim and owns
	// extent lifecycle itself.
	prevVal map[uint64]uint64

	// nextVer issues versions for the standalone SetAsync lifecycle
	// path (a per-client monotone counter standing in for the
	// coordinator's quorum sequence). Service writes pass explicit
	// versions through the *Claim entry points.
	nextVer map[uint64]uint64

	// Read from a callback, like lastExecuted: the extent the set's ack
	// installed, and where a get's miss showed the key's word (pipeReq).
	staged, moved, movedFn uint64

	// ---- telemetry (nil tracer = disabled, zero cost) ----

	tr      *telemetry.Tracer
	trLabel string
}

// pipeReq is one queued or in-flight request on any pipeline: a pooled
// record, taken from its pipeline's free list by the issuing shim
// (opPipeline.take) and returned, zeroed, once the request has been
// delivered. Its deadline does not pin it: the deadline queue's entry
// holds the issue sequence it was made for, and one whose record has
// moved on is dropped. The per-op payload fields are a union; only the
// issuing shim's are set.
type pipeReq struct {
	p    *opPipeline
	live bool // taken from the free list and not yet returned

	key            uint64
	slot           int
	seq            uint64 // issue sequence (window-epoch guard for AIMD cuts; 0 = never issued)
	start          sim.Time
	op             uint64 // trace op id (0 = untraced)
	fn             int    // get: 1 + the candidate a hinted get probes alone; 0 probes both
	ext            uint64 // get/probe: the extent a hinted get or a probe expects its bucket to name
	moved, movedFn uint64 // get: a miss's find of the key's word: the extent beside it, 1 + its candidate (0: none)

	// Provenance stamps: when the request entered the pipeline and
	// whether it queued for window headroom (vs a free slot). The
	// receipt's window/queue phases are the submit->issue gap,
	// attributed by cause.
	submit  sim.Time
	winFull bool

	valLen uint64                                  // get
	getCB  func(val []byte, lat Duration, ok bool) // get
	val    []byte                                  // set
	sclaim core.SetClaim                           // set (a delete's installs hopscotch.FreedPtr(key))
	bucket uint64                                  // probe: the bucket probed
	ver    uint64                                  // set version
	prbCB  func(ver uint64, lat Duration, ok bool) // probe (set pipeline; non-nil marks a probe)
	ackCB  func(lat Duration, ok bool)             // set

	staging   uint64 // set: server staging extent this chain targets
	lifecycle bool   // set: standalone path, client manages extent retirement
}

// aimdWindow is one pipeline's congestion window, textbook AIMD:
// additive increase 1/w per clean answer, multiplicative decrease by
// beta on a lost request or an ECN mark, floored at one slot, capped at
// depth, and at most one cut per window epoch (requests issued before
// the last cut cannot cut again; their losses are consequences of the
// same congestion event).
type aimdWindow struct {
	w       float64
	start   float64 // the window a pipeline opens (and reopens after a reset) at
	depth   float64
	beta    float64
	ecn     sim.Time // ack backlog above this marks congestion; <0 disables
	lastCut uint64   // issue seq the last cut charged; older reqs can't re-cut

	cuts, ecnCuts uint64  // total cuts / cuts taken on ECN marks
	ecnShed       float64 // window slots the ECN cuts gave up
}

func (a *aimdWindow) size() int { return int(a.w) }

// onAck grows the window additively on a clean (unmarked) answer.
func (a *aimdWindow) onAck() {
	a.w = min(a.depth, a.w+1/a.w)
}

// cut applies one multiplicative decrease if reqSeq postdates the last
// cut, charging the cut to curSeq (the newest issued request) so every
// loss from the same congestion event is absorbed by one decrease.
// ecn attributes the cut to an ECN mark rather than a lost request.
func (a *aimdWindow) cut(reqSeq, curSeq uint64, ecn bool) bool {
	if reqSeq <= a.lastCut {
		return false
	}
	a.lastCut = curSeq
	w := a.w
	a.w = max(1, a.w*a.beta)
	a.cuts++
	if ecn {
		a.ecnCuts++
		a.ecnShed += w - a.w
	}
	return true
}

// marked reports whether an ack's completion-stamped backlog counts as
// an ECN congestion mark.
func (a *aimdWindow) marked(backlog sim.Time) bool {
	return a.ecn > 0 && backlog > a.ecn
}

// opPipeline is the one pipeline implementation behind both async
// paths: slot free list, client-side waiting queue, doorbell batching,
// per-slot armed-vs-executed wedge accounting, and the congestion
// window. Per-op behavior — arming the chain, completion payload,
// post-release lifecycle — lives in the hook closures.
type opPipeline struct {
	c     *Client
	op    pipeOp
	class uint8  // telemetry class of its requests (but pipeReq.class: a delete's or a probe's)
	name  string // trace track prefix: its class's name

	depth   int
	respPer uint64 // signaled response completions per executed instance (a hinted get's: 1)
	qp      *rnic.QP
	reads   []*rnic.QP // per slot, the client end of its response connection (a probe's READs)

	// The op contexts of the server-side offload contexts, one per slot,
	// and per slot the client buffers its chain reads and writes — the
	// trigger payload, the response landing (get value, write ack, probe
	// version) and, on the set path, the value the chain stages.
	ctxs            []*telemetry.OpContext
	trig, resp, val []uint64

	free    []int
	slots   []*pipeReq           // in-flight request per slot (nil = free)
	waiting ring.Queue[*pipeReq] // no free slot (or window headroom) yet
	dirty   bool                 // posted WRs awaiting a doorbell

	reqs recordPool[pipeReq]

	// Deadlines fall due in issue order, so one engine event, armed for
	// the oldest outstanding entry, serves them all: an RC requester
	// keeps one ACK timer per QP, not one per WR.
	deadlines ring.Queue[deadline]
	armed     bool
	fireFn    func() // fire, bound once

	// Chain-execution accounting: every response WQE is signaled, so
	// each executed instance delivers exactly one completion per
	// response it posted on its slot's response QP(s) — answer (WRITE)
	// or miss (NOOP) alike. owed-vs-execSeen is how the client detects
	// a dead server NIC (a frozen device drops trigger SENDs; the armed
	// chain never runs) without any out-of-band signal: a timed-out
	// slot whose instance never executed is quarantined instead of
	// re-armed, since stacking instances on an unresponsive context
	// would overflow its rings.
	owed     []uint64 // completions the slot's armed instances owe in all
	last     []uint64 // completions the slot's last armed instance owes
	execSeen []uint64
	wedged   []bool
	nWedged  int

	// marks holds, per slot, 1 + the server retire queue's issue mark
	// the slot's armed instance holds (hold), 0 for none: no extent
	// retired after it is freed until the mark is let go (letGo).
	marks []uint64

	// inFlight counts slots occupied by live requests — maintained
	// directly at issue/finish so it stays disjoint from both the free
	// list and the quarantine (inFlight + len(free) + nWedged == depth).
	inFlight int

	seq                 uint64 // issue sequence (feeds the window's epoch guard)
	issued, acks, fails uint64
	maxInFlight         int
	// lastRan records, for the most recent failed request, whether the
	// offload chain actually executed (a genuine refusal/miss on a live
	// NIC) or never ran (dead/frozen server). Valid inside the failure
	// callback; the service's crash detector reads it so refusals don't
	// count toward a shard's suspect threshold.
	lastRan bool

	win aimdWindow

	// Latency provenance (nil rcpts = disabled, zero cost): one
	// fixed-size receipt per slot, reset at issue and finalized at
	// finish; posted tracks requests awaiting their doorbell so Flush
	// can stamp the batching delay; lastRcpt is the receipt of the most
	// recently finished request, valid inside its delivery callback.
	rcpts    []telemetry.Receipt
	posted   []*pipeReq
	lastRcpt *telemetry.Receipt

	// Trace track names, built once when a tracer is attached: one per
	// slot, plus the doorbell and window-cut instant tracks.
	trTracks          []string
	trDoorbell, trCut string

	// Per-op hooks: arm arms the slot's offload context to answer into
	// resp, posts any WR that must precede the trigger SEND and returns
	// the trigger payload; verdict reads whether the answer that just
	// landed says applied (nil = every answer does); deliver runs the
	// typed callback with an answer's payload read from client memory;
	// release runs op lifecycle once the slot is decided (executed = chain
	// ran); silent (nil = none) runs when every instance armed on an
	// undecided request's slot has run without answering it — a get's
	// miss, which waits out its deadline but reads nothing more.
	arm     func(req *pipeReq, resp uint64) []byte
	verdict func(req *pipeReq) bool
	deliver func(req *pipeReq, lat Duration, ok bool)
	release func(req *pipeReq, ok, executed bool)
	silent  func(req *pipeReq)
}

// deadline is a deadline queue entry: a request, its issue sequence
// when queued (0 = slotless), its reserved engine place and due time.
type deadline struct {
	req        *pipeReq
	seq, place uint64
	at         sim.Time
}

// newPipeline builds the op-agnostic skeleton; the caller wires the
// connection, the slots and the hooks.
func newPipeline(c *Client, op pipeOp, class uint8, depth int) *opPipeline {
	// Every op costs the server one managed fetch, so the port's fetch
	// unit reaches the ECN mark at ecn/FetchManaged chains in flight:
	// open there and let AIMD cut on the mark.
	start := min(depth, int(defaultEcnBacklog/c.srv.node.Dev.Profile().FetchManaged))
	p := &opPipeline{
		c: c, op: op, class: class, name: telemetry.ClassNames[class], depth: depth, respPer: 1,
		slots:    make([]*pipeReq, depth),
		owed:     make([]uint64, depth),
		last:     make([]uint64, depth),
		execSeen: make([]uint64, depth),
		wedged:   make([]bool, depth),
		marks:    make([]uint64, depth),
		win: aimdWindow{
			w: float64(start), start: float64(start), depth: float64(depth),
			beta: defaultWindowBeta, ecn: defaultEcnBacklog,
		},
	}
	for i := 0; i < depth; i++ {
		p.free = append(p.free, i)
	}
	p.fireFn = p.fire
	return p
}

// recordPool is a LIFO free list of op records and the number ever
// made: after a quiesce every record made is back on the list. The
// pipelines keep one of request records, the Service one per kind of op
// record (DESIGN.md §4, "Op records").
type recordPool[T any] struct {
	free []*T
	made int
}

// take hands out a free record, or a new zero one (fresh) for the
// caller to bind continuations on.
func (p *recordPool[T]) take() (r *T, fresh bool) {
	if n := len(p.free); n > 0 {
		r = p.free[n-1]
		p.free = p.free[:n-1]
		return r, false
	}
	p.made++
	return new(T), true
}

func (p *recordPool[T]) put(r *T) { p.free = append(p.free, r) }

// take hands out a zeroed request record for the issuing shim to fill
// and submit.
func (p *opPipeline) take() *pipeReq {
	req, _ := p.reqs.take()
	req.p, req.live = p, true
	return req
}

// release zeroes the request but for its pipeline — dropping the
// callbacks and value it referenced — and returns the record.
func (req *pipeReq) release() {
	req.mustBeLive()
	*req = pipeReq{p: req.p}
	req.p.reqs.put(req)
}

// mustBeLive panics when a continuation reaches a record that is back
// on the free list: whatever ran would have read the next request's
// fields, or none.
func (req *pipeReq) mustBeLive() {
	if !req.live {
		panic("redn: " + req.p.name + " request record used after its release")
	}
}

// probe reports whether req is a version probe, on the set pipeline.
func (req *pipeReq) probe() bool { return req.prbCB != nil }

// del reports whether req is a delete, which frees its key's pointer.
func (req *pipeReq) del() bool { return req.sclaim.New == hopscotch.FreedPtr(req.key) }

// class is req's telemetry op class: its pipeline's, but a delete's or
// a probe's on the set pipeline.
func (req *pipeReq) class() uint8 {
	switch {
	case req.probe():
		return telemetry.ClassProbe
	case req.del():
		return telemetry.ClassDel
	}
	return req.p.class
}

// started reports whether the instance armed last on slot has begun
// executing: response completions are delivered in order, so the
// completions still owed fell below that instance's own.
func (p *opPipeline) started(slot int) bool {
	return p.owed[slot]-p.execSeen[slot] < p.last[slot]
}

// hold makes slot's armed instance hold the next issue mark of the
// server's retire queue.
func (p *opPipeline) hold(slot int) { p.marks[slot] = p.c.srv.retire.enter() + 1 }

// letGo gives back the mark slot holds, if any.
func (p *opPipeline) letGo(slot int) {
	if m := p.marks[slot]; m != 0 {
		p.marks[slot] = 0
		p.c.srv.retire.exit(m - 1)
	}
}

// submit routes one request into the pipeline: issue if a slot and
// window headroom are available, queue otherwise — unless every slot is
// quarantined, in which case the connection is dead and the request
// fails after the miss deadline (the elapsed time a real client would
// wait on an unresponsive server before giving up).
func (p *opPipeline) submit(req *pipeReq) {
	req.mustBeLive()
	req.submit = p.c.tb.clu.Eng.Now()
	if len(p.free) == 0 || p.inFlight >= p.win.size() {
		req.winFull = p.inFlight >= p.win.size()
		if p.nWedged == p.depth {
			p.issued++
			p.await(req) // no slot will free: its deadline fails it
			return
		}
		*p.waiting.Push() = req
		return
	}
	p.issue(req)
}

// await queues req's deadline one missTimeout out, at the engine place
// After would have given an event of its own, and arms the pipeline's
// event if none is. A request in no queue (submit found every slot
// quarantined, or finish emptied the waiting queue into it) can neither
// issue nor complete meanwhile: its deadline, of sequence 0, fails it.
func (p *opPipeline) await(req *pipeReq) {
	eng := p.c.tb.clu.Eng
	*p.deadlines.Push() = deadline{req, req.seq, eng.Reserve(), eng.Now() + p.c.missTimeout}
	p.rearm()
}

// rearm drops the head entries whose request has moved on and, unless
// the event is armed, arms it at the oldest outstanding entry's place.
func (p *opPipeline) rearm() {
	for !p.armed && p.deadlines.Len() > 0 {
		if d := p.deadlines.Peek(); d.req.seq == d.seq {
			p.armed = true
			p.c.tb.clu.Eng.AtReserved(d.at, d.place, p.fireFn)
			return
		}
		p.deadlines.Pop()
	}
}

// fire is the deadline event: it fails the head entry's request if
// outstanding, at exactly missTimeout (what a real client would have
// waited before giving up), and arms for the next entry.
func (p *opPipeline) fire() {
	p.armed = false
	switch d := p.deadlines.Pop(); {
	case d.req.seq != d.seq: // answered: its record may serve another request by now
	case d.seq == 0: // a request that never got a slot
		p.fails++
		p.lastRan = false // never even reached a slot
		p.lastRcpt = nil  // never issued: no receipt
		p.deliver(d.req, p.c.missTimeout, false)
		d.req.release()
	default:
		p.finish(d.req, p.c.missTimeout, false, true, 0)
	}
	p.rearm()
}

// issue arms one offload instance on a free slot and posts its WRs
// (doorbell-less; Flush kicks them).
func (p *opPipeline) issue(req *pipeReq) {
	req.mustBeLive()
	c := p.c
	slot := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	req.slot = slot
	p.slots[slot] = req
	p.last[slot] = p.respPer
	if req.fn != 0 {
		p.last[slot] = 1 // a hinted get probes one bucket
	}
	p.owed[slot] += p.last[slot]
	p.issued++
	p.inFlight++
	p.seq++
	req.seq = p.seq
	if f := p.depth - len(p.free); f > p.maxInFlight {
		p.maxInFlight = f
	}

	req.start = c.tb.clu.Eng.Now()
	if p.rcpts != nil {
		r := &p.rcpts[slot]
		r.Reset(req.op, req.class(), req.submit)
		if wait := req.start - req.submit; wait > 0 {
			if req.winFull {
				r.AddPhase(telemetry.PhaseWindow, wait)
			} else {
				r.AddPhase(telemetry.PhaseQueue, wait)
			}
		}
	}
	p.post(req)
	p.await(req)
}

// post retags the slot's op context with the op and its class for
// tracing and the profiler, arms it through the op's hook, and posts
// the trigger SEND (doorbell-less), if the op has one.
func (p *opPipeline) post(req *pipeReq) {
	ctx := p.ctxs[req.slot]
	ctx.Op, ctx.Class = req.op, telemetry.ClassNames[req.class()]
	payload := p.arm(req, p.resp[req.slot])
	if payload == nil {
		return // a probe, whose READs rang their own doorbell
	}
	if p.rcpts != nil {
		p.posted = append(p.posted, req)
	}
	p.dirty = true
	trig := p.trig[req.slot]
	p.c.node.Mem.Write(trig, payload)
	p.qp.PostSend(wqe.WQE{Op: wqe.OpSend, Src: trig, Len: uint64(len(payload))})
}

// onAck completes slot's in-flight request at time at. A key mismatch
// means the WRITE belongs to an instance whose request already timed
// out and whose slot was reissued — dropped, whatever it left in the
// slot's buffer: a QP's WRITEs land in order, so the current instance's
// own bytes replace it before its completion gets here. (A same-key
// straggler is indistinguishable and completes the current request.)
// A write chain's answer may be a refusal, which fails the request now.
func (p *opPipeline) onAck(slot int, key uint64, at, backlog sim.Time) {
	req := p.slots[slot]
	if req == nil || req.key != key {
		return
	}
	p.finish(req, at-req.start, p.verdict == nil || p.verdict(req), false, backlog)
}

// finish releases req's slot, feeds the congestion window, runs the
// op's release hook and callback, refills the pipeline from the waiting
// queue (self-flushing: the driver may never call Flush again) and
// returns req's record. A slot timing out (timedOut) with its armed
// instance unexecuted (no response completions, answer or miss) is
// quarantined rather than re-armed: the server NIC dropped the trigger,
// and stacking fresh instances on the dead context would overflow its
// chain rings. A confirmed answer always frees the slot — the WRITE
// proves the chain ran.
func (p *opPipeline) finish(req *pipeReq, lat Duration, ok, timedOut bool, backlog sim.Time) {
	c := p.c
	p.vacate(req)
	executed := p.started(req.slot)
	if ok {
		p.acks++
	} else {
		p.fails++
		p.lastRan = executed
	}
	if !ok && !executed {
		p.wedged[req.slot] = true
		p.nWedged++
		if p.nWedged == p.depth {
			// Nothing will ever free a slot: fail the queue rather
			// than strand it.
			for p.waiting.Len() > 0 {
				p.await(p.waiting.Pop())
			}
		}
	} else {
		p.free = append(p.free, req.slot)
	}
	// Window control: a loss — the deadline ran before the chain did —
	// cuts, and so does an ECN-marked answer, congestion news one RTT
	// earlier; either cuts once per epoch. A clean answer grows it: an
	// ack, a refusal, or a miss, whose chain ran and answered by silence.
	lost := timedOut && !executed
	if lost || p.win.marked(backlog) {
		if p.win.cut(req.seq, p.seq, !lost) && c.tr.Enabled() {
			c.tr.Instant(c.trLabel, p.trCut, req.op)
		}
	} else {
		p.win.onAck()
	}
	p.conclude(req, lat, ok, executed, timedOut)
	p.pump()
	c.Flush()
	req.release()
}

// vacate takes the decided req off its slot.
func (p *opPipeline) vacate(req *pipeReq) {
	req.mustBeLive()
	c := p.c
	if c.tr.Enabled() {
		c.tr.Exec(c.trLabel, p.trTracks[req.slot], "slot", req.start, c.tb.clu.Eng.Now(), req.op)
	}
	p.slots[req.slot] = nil
	p.inFlight--
}

// conclude finalizes the vacated req's receipt (censored: its deadline
// decided it), then runs the op's release hook and its callback.
func (p *opPipeline) conclude(req *pipeReq, lat Duration, ok, executed, censored bool) {
	if p.rcpts != nil {
		// Finalize the receipt: the fabric phase is the post->completion
		// span minus the doorbell-batching delay Flush stamped, so the
		// phases partition submit->finish exactly.
		r := &p.rcpts[req.slot]
		r.Censored = censored
		r.AddPhase(telemetry.PhaseFabric, lat-r.Phases[telemetry.PhaseDoorbell])
		r.Total = r.PhaseSum()
		p.lastRcpt = r
	}
	if p.release != nil {
		p.release(req, ok, executed)
	}
	p.deliver(req, lat, ok)
}

// restart puts the pipeline back to its opening state once its
// connection has been reset: no instance armed or owed on any slot,
// nothing quarantined, nothing awaiting a doorbell, the window at its
// start value (its cut counts stay). Slots still holding requests stay
// theirs until flush fails them.
func (p *opPipeline) restart() {
	p.free = p.free[:0]
	for slot, req := range p.slots {
		p.owed[slot], p.execSeen[slot], p.wedged[slot] = 0, 0, false
		p.letGo(slot)
		if req == nil {
			p.free = append(p.free, slot)
		}
	}
	p.nWedged = 0
	p.posted, p.dirty = p.posted[:0], false
	p.win.w = p.win.start
}

// flush fails the requests issued up to sequence cut, as a reset
// connection's flush-error completions do: none ran, each completes
// once, now, and its slot is free again. A request a callback submits
// meanwhile is after cut, on the reset connection, and stays; so do the
// queued ones, which pump then issues on it.
func (p *opPipeline) flush(cut uint64) {
	now := p.c.tb.clu.Eng.Now()
	for _, req := range p.slots {
		if req == nil || req.seq > cut {
			continue
		}
		p.vacate(req)
		p.fails++
		p.lastRan = false
		p.free = append(p.free, req.slot)
		p.conclude(req, now-req.start, false, false, false)
		req.release()
	}
	p.pump()
}

// reclaim returns a quarantined slot to service once its backlog
// clears: response completions are delivered in order, so pending
// falling below one instance's worth means the last armed chain has
// begun executing on a live NIC.
func (p *opPipeline) reclaim(slot int) {
	if !p.wedged[slot] || !p.started(slot) {
		return
	}
	p.wedged[slot] = false
	p.nWedged--
	p.letGo(slot)
	p.free = append(p.free, slot)
	p.pump()
	p.c.Flush()
}

// pump issues queued requests while free slots and window headroom
// remain.
func (p *opPipeline) pump() {
	for p.waiting.Len() > 0 && len(p.free) > 0 && p.inFlight < p.win.size() {
		p.issue(p.waiting.Pop())
	}
}

// subscribe wires the demultiplexer for one slot's response QP: slot
// i's context WRITEs only on its own response QP(s), so the closure
// knows the slot exactly; the key stamped in the WRITE's id field (the
// CAS operand of Fig 9) rejects stragglers from instances that already
// timed out. The completion-stamped backlog watermark rides along as
// the window's ECN signal.
func (p *opPipeline) subscribe(slot int, respQP *rnic.QP) {
	respQP.SendCQ().SetAutoDrain(true)
	respQP.SendCQ().OnDeliver(func(e rnic.CQE) {
		p.execSeen[slot]++
		switch req := p.slots[slot]; {
		case e.Op == wqe.OpWrite || e.Op == wqe.OpRead:
			p.onAck(slot, e.WRID, e.At, e.Backlog)
		case req != nil && p.silent != nil && p.execSeen[slot] == p.owed[slot]:
			p.silent(req)
		}
		p.reclaim(slot)
	})
}

// setTracer attaches a tracer for slot-occupancy spans, doorbell and
// window-cut instants, labeling this client's tracks (typically the
// node name).
func (c *Client) setTracer(tr *telemetry.Tracer, label string) {
	c.tr = tr
	c.trLabel = label
	if !tr.Enabled() {
		return
	}
	for _, p := range c.pipes {
		p.trTracks = make([]string, c.depth)
		p.trDoorbell, p.trCut = "doorbell:"+p.name, "wcut:"+p.name
		for i := 0; i < c.depth; i++ {
			p.trTracks[i] = fmt.Sprintf("%s/slot%d", p.name, i)
		}
	}
}

// cuts totals the multiplicative decreases across both windows,
// the subset taken on ECN marks rather than lost requests, and the
// window slots those ECN cuts gave up.
func (c *Client) cuts() (cuts, ecnCuts uint64, ecnShed float64) {
	for _, p := range c.pipes {
		cuts, ecnCuts, ecnShed = cuts+p.win.cuts, ecnCuts+p.win.ecnCuts, ecnShed+p.win.ecnShed
	}
	return cuts, ecnCuts, ecnShed
}

// NewClient adds a client node connected back-to-back to srv, keeping
// one get in flight at a time (the paper's blocking client).
func (t *Testbed) NewClient(srv *Server, mode LookupMode) *Client {
	return t.NewPipelinedClient(srv, mode, 1)
}

// NewPipelinedClient adds a client whose connection keeps up to depth
// gets in flight. The server-side rings, offload chain rings and
// client-side buffer pools are sized for the pipeline.
func (t *Testbed) NewPipelinedClient(srv *Server, mode LookupMode, depth int) *Client {
	if depth < 1 {
		depth = 1
	}
	t.n++
	node := t.clu.AddNode(fabric.DefaultNodeConfig(fmt.Sprintf("client%d", t.n)))
	return newClientOnNode(t, node, srv, srv.builders[0], mode, depth, defaultMaxValLen, false)
}

// newClientOnNode wires the two connections, the offload context pools
// and the demultiplexers; the Service uses it to place clients on its
// own nodes. The server's queues of the connection — trigger, response,
// control and chain rings — sit on b's port. The server's arena
// supplies (and reclaims) the value extents this connection's writes
// stage into. A hinted client's gets (the service's) are all hinted gets
// and locates, whose answers are final when posted: unmanaged queues.
func newClientOnNode(t *Testbed, node *fabric.Node, srv *Server, b *core.Builder, mode LookupMode, depth int, maxVal uint64, hinted bool) *Client {
	// Trigger connections: client SQ paces SENDs, server RQ holds one
	// pre-posted RECV per armed instance.
	srvRQ := max(2048, 4*depth)
	cliSQ := max(1024, 4*depth)
	c := &Client{tb: t, node: node, mode: mode,
		missTimeout: DefaultMissTimeout,
		depth:       depth,
		maxVal:      maxVal,
		getVals:     make([]byte, uint64(depth)*maxVal),
		srv:         srv,
		prevVal:     make(map[uint64]uint64),
		nextVer:     make(map[uint64]uint64),
	}
	c.get = newPipeline(c, pipeGet, telemetry.ClassGet, depth)
	c.set = newPipeline(c, pipeSet, telemetry.ClassSet, depth)
	c.pipes = [2]*opPipeline{c.get, c.set}
	if mode != LookupSingle {
		c.get.respPer = 2 // seq probes two buckets
	}

	for _, p := range c.pipes {
		// Each path is a connection of its own, so each trigger RQ's
		// arrival counter sequences its pool alone.
		cliQP, srvQP := t.clu.Connect(node, srv.node,
			rnic.QPConfig{SQDepth: cliSQ, RQDepth: 8},
			rnic.QPConfig{SQDepth: 64, RQDepth: srvRQ, Managed: true, Port: b.Port})
		srvQP.RecvCQ().SetAutoDrain(true)
		srvQP.SendCQ().SetAutoDrain(true)
		p.qp = cliQP
		// Per-slot buffers and per-context response QPs. A get answers
		// with the value, a write with its 8-byte verdict, a probe reads
		// the probed bucket's [keyCtrl, valAddr], then the extent's
		// header. A two-probe get's chain rewrites its answer, so its
		// queue is managed; every other answer is final when posted.
		resp := make([]*rnic.QP, depth)
		p.reads = make([]*rnic.QP, depth)
		for i := range resp {
			p.trig = append(p.trig, node.Mem.Alloc(128, 8))
			switch p.op {
			case pipeGet:
				// A hinted get's value follows its bucket's [keyCtrl, valAddr].
				p.resp = append(p.resp, node.Mem.Alloc(hintHead+maxVal, 64))
			case pipeSet:
				// A staged value's header precedes its bytes.
				p.val = append(p.val, node.Mem.Alloc(extent.HeadBytes+maxVal, 64))
				p.resp = append(p.resp, node.Mem.Alloc(16+extent.HeadBytes, 8))
			}
			p.reads[i], resp[i] = t.clu.Connect(node, srv.node,
				rnic.QPConfig{SQDepth: 8, RQDepth: 8, PU: -1},
				rnic.QPConfig{SQDepth: 16, RQDepth: 8, Managed: p.op == pipeGet && !hinted, Port: b.Port, PU: -1})
		}
		var slotCtx func(slot int) *telemetry.OpContext
		switch p.op {
		case pipeGet:
			c.gets = core.NewLookupPool(b, srvQP, resp, nil, nil, mode)
			slotCtx = c.gets.Context
		case pipeSet:
			c.sets = core.NewSetPool(b, srvQP, resp, maxVal, srv.valueArena())
			slotCtx = c.sets.Context
		}
		// Profiler attribution: post retags a slot's context with its
		// request's op and class (the set pool's serve deletes and probes
		// too), which the slot's response QPs, both ends, carry. The
		// shared server trigger QP and the client-side one (which executes
		// the staging WRITEs and SENDs whose remote grants, on server PCIe,
		// count too) carry the pipeline's class alone: their batched SENDs
		// interleave ops, a delete's under "set"; each RECV's is its slot's.
		for i, q := range resp {
			ctx := slotCtx(i)
			ctx.Class = p.name
			p.ctxs = append(p.ctxs, ctx)
			p.reads[i].SetContext(ctx)
			p.subscribe(i, q)
			p.subscribe(i, p.reads[i])
		}
		trigCtx := &telemetry.OpContext{Class: p.name}
		srvQP.SetContext(trigCtx)
		cliQP.SetContext(trigCtx)
	}
	c.wireHooks()
	return c
}

// wireHooks installs the per-op closures: arming on issue, completion
// payload on delivery, and post-release lifecycle.
func (c *Client) wireHooks() {
	// ---- get ----
	// A get holds an issue mark of the server's retire queue from its
	// arming until its chain can gather no more: its release, or its
	// miss, which runs long before the deadline that decides it. So no
	// extent it may gather from is reused, and a miss does not hold
	// every extent retired behind it for a whole MissTimeout.
	c.get.arm = func(req *pipeReq, resp uint64) []byte {
		c.get.hold(req.slot)
		ctx := c.gets.Ctxs[req.slot]
		if req.fn != 0 {
			ctx.ArmProbe(req.fn-1, req.ext)
			return ctx.TriggerPayload(req.key, req.valLen, resp)
		}
		ctx.Arm()
		return ctx.TriggerPayload(req.key, req.valLen, resp+hintHead)
	}
	// A two-probe get answers only a hit; a hinted one answers its
	// bucket's [keyCtrl, valAddr] before the value: a hit iff they are
	// the key's word and the extent gathered. A miss reports where the
	// key is resident: in that bucket, or a locate's H2 bucket. The
	// key's word beside its freed pointer is its delete's, not the key.
	c.get.verdict = func(req *pipeReq) bool {
		at, kc, freed := c.get.resp[req.slot], core.ClaimCtrl(req.key), hopscotch.FreedPtr(req.key)
		word, _ := c.node.Mem.U64(at)
		va, _ := c.node.Mem.U64(at + 8)
		if req.fn == 0 || word == kc && va == req.ext {
			return true
		}
		req.movedFn, req.moved = uint64(req.fn), va
		if (word != kc || va == freed) && req.ext == c.table.table.HashAddr(req.key, 1) {
			req.movedFn = 2
			word, _ = c.node.Mem.U64(at + hintHead)
			req.moved, _ = c.node.Mem.U64(at + hintHead + 8)
		}
		if word != kc || req.moved == freed {
			req.movedFn, req.moved = 0, 0
		}
		return false
	}
	c.get.deliver = func(req *pipeReq, lat Duration, ok bool) {
		if req.getCB == nil {
			return
		}
		var val []byte // a miss has no value
		if ok {
			val = c.getVals[uint64(req.slot)*c.maxVal:][:req.valLen:req.valLen]
			c.node.Mem.ReadInto(c.get.resp[req.slot]+hintHead, val)
		}
		c.moved, c.movedFn = req.moved, req.movedFn
		req.getCB(val, lat, ok)
	}
	c.get.silent = func(req *pipeReq) { c.get.letGo(req.slot) }
	c.get.release = func(req *pipeReq, _, _ bool) { c.get.letGo(req.slot) }

	// ---- set (and delete, and probe) ----
	// A hinted overwrite or a delete holds a mark too, from its arming
	// until its chain has run — past its deadline if it has not run by
	// then: its CAS expects an extent the key's next write retires, and
	// that extent must not come back, as this key's staging or another's,
	// while the CAS can still find it (ABA). A fresh claim or a re-insert
	// expects a free pointer, no extent. A delete stages nothing. A
	// probe decides nothing and knows both addresses it reads: two READs,
	// in order on one RC connection, land the bucket's words, then the
	// header of the extent it names, with no chain on the server.
	c.set.arm = func(req *pipeReq, ack uint64) []byte {
		ctx, val := c.sets.Ctxs[req.slot], c.set.val[req.slot]
		switch {
		case req.probe():
			ctx.Unstage()
			q := c.set.reads[req.slot]
			q.PostSend(wqe.WQE{Op: wqe.OpRead, Src: req.bucket, Dst: ack, Len: 16})
			q.PostSend(wqe.WQE{Op: wqe.OpRead, ID: req.key, Src: req.ext - extent.HeadBytes, Dst: ack + 16,
				Len: extent.HeadBytes, Flags: wqe.FlagSignaled})
			q.RingSQ()
			return nil
		}
		if e := req.sclaim.Extent; e != 0 && e != hopscotch.FreePtr && e != hopscotch.FreedPtr(req.key) {
			c.set.hold(req.slot)
		}
		if req.del() {
			return ctx.TriggerPayload(req.key, req.sclaim, 0, 0, ack)
		}
		req.staging = ctx.Arm(req.key)
		n := uint64(len(req.val))
		c.node.Mem.PutU64(val, req.ver)
		c.node.Mem.PutU64(val+8, n)
		c.node.Mem.Write(val+extent.HeadBytes, req.val)
		// Same QP, in order: the value and its header land in staging
		// before the trigger SEND fires the claim chain.
		c.set.qp.PostSend(wqe.WQE{Op: wqe.OpWrite, Src: val, Dst: req.staging - extent.HeadBytes,
			Len: extent.HeadBytes + n})
		return ctx.TriggerPayload(req.key, req.sclaim, n, req.ver, ack)
	}
	// A key claim's ack carries the verdict, WRITE|key iff it applied;
	// a pointer CAS's, the pointer it found: the one it expected iff it
	// applied (for a fresh claim, the free pointer iff it published). A
	// probe's answer is the bucket's [keyCtrl, valAddr] and a header: a
	// hit iff the bucket holds the key and names the extent probed.
	c.set.verdict = func(req *pipeReq) bool {
		at := c.set.resp[req.slot]
		v, _ := c.node.Mem.U64(at)
		if req.probe() {
			va, _ := c.node.Mem.U64(at + 8)
			return v == core.ClaimCtrl(req.key) && va == req.ext
		}
		if req.sclaim.Extent == 0 {
			return v == wqe.MakeCtrl(wqe.OpWrite, req.key)
		}
		return v == req.sclaim.Extent
	}
	c.set.deliver = func(req *pipeReq, lat Duration, ok bool) {
		if req.probe() {
			var ver uint64
			if ok {
				ver, _ = c.node.Mem.U64(c.set.resp[req.slot] + 16)
			}
			req.prbCB(ver, lat, ok)
			return
		}
		c.staged = req.staging // a set's: the extent its ack installed
		if req.ackCB != nil {
			req.ackCB(lat, ok)
		}
	}
	c.set.release = func(req *pipeReq, ok, executed bool) {
		// An unexecuted chain keeps its mark and its staging: the
		// quarantined slot is a straggler that could still run.
		if executed {
			c.set.letGo(req.slot)
		}
		if !ok && executed {
			// The chain ran and refused the claim: the staged bytes can
			// never become the bucket's value, so retire the extent (a
			// delete or a probe staged none).
			c.sets.Ctxs[req.slot].ReleaseStaging()
		}
		switch {
		case !ok:
		case req.del():
			// The standalone lifecycle: the extent the key's last acked
			// set installed is the one the delete unlinked — retire it (a
			// get in flight may hold its pointer).
			if prev, tracked := c.prevVal[req.key]; tracked {
				c.srv.retire.push(prev)
				delete(c.prevVal, req.key)
			}
		case req.lifecycle:
			// This ack's staging is the bucket's value now; the extent
			// the previous same-key ack installed is superseded — retire
			// it (a get in flight may hold its pointer).
			if prev, tracked := c.prevVal[req.key]; tracked && prev != req.staging {
				c.srv.retire.push(prev)
			}
			c.prevVal[req.key] = req.staging
		}
	}
}

// reset re-establishes the client's connections in place after the
// server restarted with its NIC state reclaimed (a ProcessCrash without
// a hull parent), the way an RC client moves its QPs through RESET back
// to ready to send: the client's QPs (a probe's READs run on its end of
// a set slot's response connection) and the server's queues (core
// Pool.Reset) are reset, and every pipeline restarts.
// No instance armed before survives it, so the staging extent of every
// set slot whose instance never ran goes back to the arena (one that
// landed its pointer retires the extent it replaced instead), and every
// request in flight fails at once as never executed. Queues, buffers,
// CQ subscriptions and PU placement are kept: a reset allocates nothing.
func (c *Client) reset() {
	var cut [len(c.pipes)]uint64
	for _, p := range c.pipes {
		p.qp.Reset()
		for _, q := range p.reads {
			q.Reset()
		}
	}
	c.gets.Reset()
	c.sets.Reset()
	for slot, ctx := range c.sets.Ctxs {
		if !c.set.started(slot) {
			// A hinted overwrite whose pointer landed before the reset
			// applied: the extent it replaced retires, as its ack would
			// have retired it.
			if old := ctx.ReleaseStaging(); old != 0 {
				c.srv.retire.push(old)
			}
		}
	}
	for i, p := range c.pipes {
		cut[i] = p.seq
		p.restart()
	}
	// Callbacks run only now, on a client that is whole again.
	for i, p := range c.pipes {
		p.flush(cut[i])
	}
	c.Flush()
}

// Bind points the client's gets at a server hash table.
func (c *Client) Bind(h *HashTable) {
	for _, ctx := range c.gets.Ctxs {
		ctx.Table = h.table
	}
	c.table = h
}

// pipe maps a pipeOp to its pipeline.
func (c *Client) pipe(op pipeOp) *opPipeline { return c.pipes[op] }

// pipelineStats snapshots one pipeline's occupancy and window, counting
// in-flight and wedged slots disjointly from explicit counters.
func (c *Client) pipelineStats(op pipeOp) pipelineStats {
	p := c.pipe(op)
	return pipelineStats{
		InFlight: p.inFlight,
		Queued:   p.waiting.Len(),
		Wedged:   p.nWedged,
		Window:   p.win.size(),
		Acks:     p.acks,
		Fails:    p.fails,
	}
}

// lastExecuted reports whether the most recent failed request on op's
// pipeline had its offload chain execute on the server NIC — a genuine
// miss (get: key absent), claim refusal (set: bucket taken; a delete:
// its pointer CAS no longer finds the extent it captured; a probe: the
// bucket does not hold the key at the extent probed) — as opposed to
// never running (dead connection). Meaningful when read from within the
// failure callback.
func (c *Client) lastExecuted(op pipeOp) bool { return c.pipe(op).lastRan }

// enableProvenance allocates the per-slot latency receipts on every
// pipeline, rides each on its slot's op context (so the NIC folds the
// slot's resource grants into it), and starts stamping phase ledgers
// on each issued request.
// Disabled clients pay nothing: the receipt paths are a nil check.
func (c *Client) enableProvenance() {
	for _, p := range c.pipes {
		if p.rcpts == nil {
			p.rcpts = make([]telemetry.Receipt, c.depth)
			for i, ctx := range p.ctxs {
				ctx.Receipt = &p.rcpts[i]
			}
		}
	}
}

// lastReceipt returns the phase ledger of the most recently completed
// request on op's pipeline, or nil when provenance is off or the
// request failed without ever reaching a slot. Like lastExecuted,
// it is meaningful only when read from within the op's callback; the
// receipt is overwritten when its slot reissues.
func (c *Client) lastReceipt(op pipeOp) *telemetry.Receipt { return c.pipe(op).lastRcpt }

// Flush rings the send doorbells once for every request posted since
// the last flush — the client-side batching that lets a burst of
// same-shard operations share one MMIO kick per path.
func (c *Client) Flush() {
	for _, p := range c.pipes {
		if p.dirty {
			p.dirty = false
			if len(p.posted) > 0 {
				now := c.tb.clu.Eng.Now()
				for _, req := range p.posted {
					if p.slots[req.slot] == req {
						p.rcpts[req.slot].AddPhase(telemetry.PhaseDoorbell, now-req.start)
					}
				}
				p.posted = p.posted[:0]
			}
			p.qp.RingSQ()
			if c.tr.Enabled() {
				c.tr.Instant(c.trLabel, p.trDoorbell, 0)
			}
		}
	}
}

// GetAsync issues one offloaded get of up to valLen bytes and returns
// immediately; cb runs (from the simulation, never synchronously) when
// the response lands or MissTimeout expires; a miss delivers a nil val.
// val is valid until cb returns; copy it to keep it. Gets beyond the
// pipeline window queue client-side until a slot frees. Call Flush to
// ring the doorbell after posting a batch.
func (c *Client) GetAsync(key, valLen uint64, cb func(val []byte, lat Duration, ok bool)) {
	c.getAsync(key, valLen, 0, 0, 0, cb)
}

// getAsync is GetAsync with the trace op id the get's WRs attribute to
// (0 = unattributed) and a hint: fn, 1 + the candidate bucket the caller
// knows holds key, and ext, the extent it names, probed alone (fn 0 =
// unknown: both probes).
func (c *Client) getAsync(key, valLen, op uint64, fn int, ext uint64, cb func(val []byte, lat Duration, ok bool)) {
	if c.table == nil {
		panic("redn: Bind a table before Get")
	}
	if valLen > c.maxVal {
		panic(fmt.Sprintf("redn: valLen %d exceeds client max %d", valLen, c.maxVal))
	}
	req := c.get.take()
	req.key, req.valLen, req.getCB, req.op, req.fn, req.ext = key&hopscotch.KeyMask, valLen, cb, op, fn, ext
	c.get.submit(req)
}

// locateAsync issues a get at H1 that gathers H2's bucket words: it
// never hits, and its miss reports where the key's word stands.
func (c *Client) locateAsync(key, op uint64, cb func(val []byte, lat Duration, ok bool)) {
	c.getAsync(key, hintHead, op, 1, c.table.table.HashAddr(key&hopscotch.KeyMask, 1), cb)
}

// Get performs one offloaded get of up to valLen bytes, advancing the
// simulation until the response lands (or MissTimeout for misses). It
// returns a copy of the value, the observed latency, and whether the key
// was found. On an idle client it advances exactly one MissTimeout
// window (the paper's blocking client); with other gets already in
// flight it keeps running until this request itself completes.
func (c *Client) Get(key uint64, valLen uint64) ([]byte, Duration, bool) {
	var (
		out  []byte
		lat  Duration
		ok   bool
		done bool
	)
	c.GetAsync(key, valLen, func(v []byte, l Duration, hit bool) {
		out, lat, ok, done = append([]byte(nil), v...), l, hit, true
	})
	c.Flush()
	eng := c.tb.clu.Eng
	eng.RunUntil(eng.Now() + c.missTimeout)
	// Queued behind a busy pipeline: the request may not even have
	// issued yet. Its own timeout (armed at issue) bounds every pass.
	for !done && eng.Pending() > 0 {
		eng.RunUntil(eng.Now() + c.missTimeout)
	}
	return out, lat, ok
}

// ---- write path ----

// setClaim computes the CAS claim for key against the client's view of
// the bound table (shared logic with the service router): overwrite in
// place when the key sits at a reachable candidate bucket, claim the
// first empty reachable candidate otherwise. Keys needing relocation,
// and spilled residents only a CPU scan can reach, cannot be claimed
// from here — that is the host's path.
func (c *Client) setClaim(key uint64) (core.SetClaim, bool) {
	return claimForTable(c.table.table, c.mode, key&hopscotch.KeyMask)
}

// reservedKey reports keys in the reserved id space, which the tables
// reject, and key 0, whose control word IS the empty-bucket marker.
func reservedKey(key uint64) bool {
	return key&hopscotch.PendingBit != 0 || key&hopscotch.KeyMask == 0
}

// SetAsync issues one offloaded set of value under key, computing the
// bucket claim from the bound table, and returns immediately; cb runs
// when the NIC's ack lands (ok is its verdict: false for a refused
// claim) or, on a dead connection, MissTimeout expires. Sets beyond the
// pipeline window queue client-side; call Flush after posting a batch.
// A key whose candidate buckets are both taken by other keys fails
// immediately (ok=false after a zero-cost hop): relocation is host
// work, not a NIC claim.
func (c *Client) SetAsync(key uint64, value []byte, cb func(lat Duration, ok bool)) {
	if c.table == nil {
		panic("redn: Bind a table before Set")
	}
	claim, ok := c.setClaim(key)
	if !ok || reservedKey(key) {
		// Callbacks never run synchronously.
		c.tb.clu.Eng.After(0, func() {
			if cb != nil {
				cb(0, false)
			}
		})
		return
	}
	// An acknowledged overwrite repoints the bucket at the new staging
	// extent; the superseded extent is retired from the release hook via
	// the per-key prevVal chain (exactly once, in ack order — see
	// prevVal). Seed the chain with the table's current extent so the
	// first overwrite retires the preloaded value. (Service writes pass
	// setAsyncClaim directly — their coordinator owns the lifecycle.)
	k := key & hopscotch.KeyMask
	if _, tracked := c.prevVal[k]; !tracked {
		if va, _, ok := c.table.table.Lookup(k); ok {
			c.prevVal[k] = va
		}
	}
	c.nextVer[k]++
	c.setAsyncReq(k, value, claim, c.nextVer[k], 0, cb, true)
}

// setAsyncClaim is SetAsync with an explicit, caller-computed bucket
// claim and version and the trace op id its WRs attribute to — the
// service layer's entry point (its router owns placement and the
// quorum sequence the version publishes). A claim whose New is
// hopscotch.FreedPtr(key) is a delete of key's extent at its resident
// bucket: it stages nothing (value and ver are unused) and its ack says
// whether it unlinked that extent.
func (c *Client) setAsyncClaim(key uint64, value []byte, claim core.SetClaim, ver, op uint64, cb func(lat Duration, ok bool)) {
	c.setAsyncReq(key&hopscotch.KeyMask, value, claim, ver, op, cb, false)
}

// setAsyncReq routes one set request into the pipeline. lifecycle marks
// the standalone path, where the client retires superseded extents.
func (c *Client) setAsyncReq(key uint64, value []byte, claim core.SetClaim, ver, op uint64, cb func(lat Duration, ok bool), lifecycle bool) {
	if uint64(len(value)) > c.maxVal {
		panic(fmt.Sprintf("redn: value %d exceeds client max %d", len(value), c.maxVal))
	}
	req := c.set.take()
	req.key, req.val, req.sclaim, req.ver, req.ackCB = key, value, claim, ver, cb
	req.lifecycle, req.op = lifecycle, op
	c.set.submit(req)
}

// Set performs one offloaded set, advancing the simulation until the
// ack lands (or MissTimeout on a dead connection). It returns the
// observed latency and whether the NIC applied the write.
func (c *Client) Set(key uint64, value []byte) (lat Duration, ok bool) {
	done := false
	c.SetAsync(key, value, func(l Duration, acked bool) { lat, ok, done = l, acked, true })
	c.Flush()
	c.tb.stepUntil(&done)
	return lat, ok
}

// probeAsyncTarget issues one offloaded version probe of key at a
// caller-computed bucket, expected to name the value extent ext, as a
// request on the set pipeline, and returns immediately — the service
// layer's entry point. cb, which must not be nil, runs with the version
// ext's header carries when the NIC's answer shows the bucket holding
// key at ext, or ok=false: at once when the bucket holds another word
// or extent (the key moved or was rewritten), or after MissTimeout on a
// dead connection — lastExecuted(pipeSet) tells them apart. op is the
// trace op id its WRs attribute to.
func (c *Client) probeAsyncTarget(key, bucket, ext, op uint64, cb func(ver uint64, lat Duration, ok bool)) {
	req := c.set.take()
	req.key, req.bucket, req.ext, req.prbCB, req.op = key&hopscotch.KeyMask, bucket, ext, cb, op
	c.set.submit(req)
}
