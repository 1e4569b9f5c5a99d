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
// WRITE before declaring a miss. The offload has no negative
// acknowledgement — a failed key compare leaves the response WQE a
// NOOP — so absence of data is the only miss signal, exactly as in the
// paper's client.
const DefaultMissTimeout = 200 * sim.Microsecond

// defaultMaxValLen bounds the value size one get can return; it sizes
// the client's per-request response buffers.
const defaultMaxValLen = 1 << 17

// defaultEcnBacklog is the completion-stamped PU backlog above which an
// ack counts as a congestion signal: far enough under MissTimeout that
// an adaptive window cuts on marks long before requests start dying.
const defaultEcnBacklog = 25 * sim.Microsecond

// defaultWindowBeta is the multiplicative-decrease factor an adaptive
// window applies on timeout or ECN mark.
const defaultWindowBeta = 0.5

// pipeOp names one of the client's four offload pipelines.
type pipeOp uint8

// The client's offload pipelines.
const (
	pipeGet pipeOp = iota
	pipeSet
	pipeDelete
	pipeProbe
)

func (o pipeOp) String() string {
	switch o {
	case pipeGet:
		return "get"
	case pipeSet:
		return "set"
	case pipeDelete:
		return "del"
	case pipeProbe:
		return "probe"
	default:
		return fmt.Sprintf("pipeOp(%d)", uint8(o))
	}
}

// pipelineStats is a point-in-time snapshot of one pipeline's
// occupancy. InFlight and Wedged are disjoint: a quarantined slot is
// neither free nor carrying a live request.
type pipelineStats struct {
	InFlight int // slots occupied by live requests
	Queued   int // requests waiting client-side for a slot or window
	Wedged   int // quarantined slots (armed chain never executed)
	Window   int // current congestion window (== Depth when pinned)
}

// Client is a remote node issuing offloaded gets and sets against a
// server's hash table, entirely served by the server's NIC.
//
// A client keeps up to depth requests in flight per op on one
// connection per op (get/set/delete/probe), all four driven by the
// same pipeline machinery (opPipeline): each in-flight request owns
// one offload context of the server-side pool (the request slot) and
// the per-slot buffers its chain reads and writes. Responses
// demultiplex exactly: a context's response QP completes only its own
// WRITEs, so a completion identifies its slot, and the 48-bit key the
// conditional CAS stamps into the WRITE's id field guards against
// stragglers from timed-out instances. Trigger SENDs are posted
// doorbell-less and kicked in batches by Flush.
//
// How many of the depth slots a pipeline may occupy at once is its
// congestion window. Pinned (the default) it equals depth — the fixed-K
// pipeline. Under ServiceConfig.AdaptiveWindow it is AIMD: grow by 1/w
// per clean ack, cut multiplicatively on timeout and on the ECN-like
// backlog watermark the NIC stamps into completions, floor 1, one cut
// per window epoch.
type Client struct {
	tb    *Testbed
	node  *fabric.Node
	mode  LookupMode
	gets  *core.Pool[*core.LookupOffload]
	sets  *core.Pool[*core.SetOffload]
	dels  *core.Pool[*core.DeleteOffload]
	prbs  *core.Pool[*core.ProbeOffload]
	table *HashTable
	arena *extent.Arena // server arena freed extents return to

	// MissTimeout is the per-request deadline after which an unanswered
	// request completes as a miss/failure. Mutable between requests.
	MissTimeout Duration

	depth  int
	maxVal uint64
	zero   []byte // reusable zero source for clearing response slots

	// The four pipelines behind GetAsync/SetAsync/DeleteAsync/probeAsync
	// — one implementation, per-op hooks. pipes indexes them by pipeOp in
	// doorbell order (get, set, del, probe).
	get, set, del, prb *opPipeline
	pipes              [4]*opPipeline

	// prevVal tracks, per key, the extent the bucket held after this
	// client's last acknowledged standalone set — freed exactly once
	// when the NEXT same-key ack supersedes it. Closure-captured
	// "old value" snapshots cannot do this: two pipelined same-key
	// overwrites would capture the same extent and free it twice.
	// Only the SetAsync/DeleteAsync lifecycle path populates it; the
	// Service drives setAsyncClaim and owns extent lifecycle itself.
	prevVal map[uint64]uint64

	// nextVer issues versions for the standalone SetAsync/DeleteAsync
	// lifecycle path (a per-client monotone counter standing in for the
	// coordinator's quorum sequence). Service writes pass explicit
	// versions through the *Claim entry points.
	nextVer map[uint64]uint64

	gcFreed, gcStale uint64 // to-free ring drains: extents returned / already gone

	// ---- telemetry (nil tracer = disabled, zero cost) ----

	tr      *telemetry.Tracer
	trLabel string
}

// pipeReq is one queued or in-flight request on any pipeline: a pooled
// record, taken from its pipeline's free list by the issuing shim
// (opPipeline.take) and returned once the request has been delivered
// AND its deadline event has run. The deadline pins the record because
// the engine cannot cancel an event: a get acked after 5 us still has
// its MissTimeout event queued 195 us out, and a record handed to the
// next request before then would have that request failed by this
// one's deadline. The two deadline continuations are method values
// bound once, when the record is made, so arming one allocates nothing.
type pipeReq struct {
	reqState

	p         *opPipeline
	timeoutFn func() // an issued request's deadline
	expireFn  func() // failLater's deadline: the request never got a slot
}

// reqState is what one request's life writes; take zeroes it. The
// per-op payload fields are a union; only the issuing shim's are set.
type reqState struct {
	live  bool // taken from the free list and not yet returned
	timed bool // the deadline event has run

	key   uint64
	slot  int
	seq   uint64 // issue sequence (window-epoch guard for AIMD cuts)
	start sim.Time
	done  bool
	op    uint64 // trace op id (0 = untraced)

	// Provenance stamps: when the request entered the pipeline and
	// whether it queued for window headroom (vs a free slot). The
	// receipt's window/queue phases are the submit->issue gap,
	// attributed by cause.
	submit  sim.Time
	winFull bool

	valLen uint64                                  // get
	getCB  func(val []byte, lat Duration, ok bool) // get
	val    []byte                                  // set
	sclaim core.SetClaim                           // set
	bucket uint64                                  // delete/probe: the bucket claimed or probed
	ver    uint64                                  // set/delete version
	prbCB  func(ver uint64, lat Duration, ok bool) // probe
	ackCB  func(lat Duration, ok bool)             // set/delete

	staging   uint64 // set: server staging extent this chain targets
	lifecycle bool   // set: standalone path, client manages extent retirement
}

// aimdWindow is one pipeline's congestion window. Pinned (adaptive
// false) it is the fixed-depth pipeline: size() == depth always, and
// ack/cut signals are ignored. Adaptive, it is textbook AIMD —
// additive increase 1/w per clean ack, multiplicative decrease by beta
// on timeout or ECN mark, floored at one slot, capped at depth, and at
// most one cut per window epoch (requests issued before the last cut
// cannot cut again; their losses are consequences of the same
// congestion event).
type aimdWindow struct {
	adaptive bool
	w        float64
	depth    float64
	beta     float64
	ecn      sim.Time // ack backlog above this marks congestion; <0 disables
	lastCut  uint64   // issue seq the last cut charged; older reqs can't re-cut

	cuts, ecnCuts uint64 // total cuts / cuts taken on ECN marks
}

func (a *aimdWindow) size() int {
	if !a.adaptive {
		return int(a.depth)
	}
	return int(a.w)
}

// onAck grows the window additively on a clean (unmarked) ack.
func (a *aimdWindow) onAck() {
	if !a.adaptive {
		return
	}
	a.w += 1 / a.w
	if a.w > a.depth {
		a.w = a.depth
	}
}

// cut applies one multiplicative decrease if reqSeq postdates the last
// cut, charging the cut to curSeq (the newest issued request) so every
// loss from the same congestion event is absorbed by one decrease.
// ecn attributes the cut to an ECN mark rather than a timeout.
func (a *aimdWindow) cut(reqSeq, curSeq uint64, ecn bool) bool {
	if !a.adaptive || reqSeq <= a.lastCut {
		return false
	}
	a.lastCut = curSeq
	a.w *= a.beta
	if a.w < 1 {
		a.w = 1
	}
	a.cuts++
	if ecn {
		a.ecnCuts++
	}
	return true
}

// marked reports whether an ack's completion-stamped backlog counts as
// an ECN congestion mark.
func (a *aimdWindow) marked(backlog sim.Time) bool {
	return a.adaptive && a.ecn > 0 && backlog > a.ecn
}

// opPipeline is the one pipeline implementation behind all four async
// paths: slot free list, client-side waiting queue, doorbell batching,
// per-slot armed-vs-executed wedge accounting, and the congestion
// window. Per-op behavior — arming the chain, completion payload,
// post-release lifecycle — lives in the hook closures.
type opPipeline struct {
	c    *Client
	op   pipeOp
	name string // trace and profiler class names: "get", "set", "del", "probe"

	depth   int
	respPer uint64 // signaled response completions per executed instance
	qp      *rnic.QP

	// The server-side offload contexts, one per slot, and per slot the
	// client buffers its chain reads and writes — the trigger payload,
	// the response landing (get value, write ack, probe version) and, on
	// the set path, the value the chain stages.
	pool            slotPool
	trig, resp, val []uint64

	free    []int
	slots   []*pipeReq           // in-flight request per slot (nil = free)
	waiting ring.Queue[*pipeReq] // no free slot (or window headroom) yet
	dirty   bool                 // posted WRs awaiting a doorbell

	reqs recordPool[pipeReq]

	// Chain-execution accounting: every response WQE is signaled, so
	// each executed instance delivers exactly respPer completions on
	// its slot's response QP(s) — answer (WRITE) or miss (NOOP) alike.
	// armCount-vs-execSeen is how the client detects a dead server NIC
	// (a frozen device drops trigger SENDs; the armed chain never runs)
	// without any out-of-band signal: a timed-out slot whose instance
	// never executed is quarantined instead of re-armed, since stacking
	// instances on an unresponsive context would overflow its rings.
	armCount []uint64
	execSeen []uint64
	wedged   []bool
	nWedged  int

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
	// typed callback, reading any completion payload from client memory
	// (slotValid false = the request never reached a slot); release runs
	// op lifecycle after the slot decision (executed = the chain ran).
	arm     func(req *pipeReq, resp uint64) []byte
	verdict func(req *pipeReq) bool
	deliver func(req *pipeReq, lat Duration, ok, slotValid bool)
	release func(req *pipeReq, ok, executed bool)
}

// slotPool is what a pipeline asks of its server-side core.Pool beyond
// arming a slot's context: trace, receipt and profiler tagging.
type slotPool interface {
	Tag(slot int, op uint64, r *telemetry.Receipt)
	SetProfClass(class string)
}

// newPipeline builds the op-agnostic skeleton; the caller wires the
// connection, the slots and the hooks.
func newPipeline(c *Client, op pipeOp, name string, depth int) *opPipeline {
	p := &opPipeline{
		c: c, op: op, name: name, depth: depth, respPer: 1,
		slots:    make([]*pipeReq, depth),
		armCount: make([]uint64, depth),
		execSeen: make([]uint64, depth),
		wedged:   make([]bool, depth),
		win: aimdWindow{
			w: float64(depth), depth: float64(depth),
			beta: defaultWindowBeta, ecn: defaultEcnBacklog,
		},
	}
	for i := 0; i < depth; i++ {
		p.free = append(p.free, i)
	}
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
	req, fresh := p.reqs.take()
	if fresh {
		req.p = p
		req.timeoutFn, req.expireFn = req.timeout, req.expire
	}
	req.live = true
	return req
}

// release zeroes the request's state — dropping the callbacks and value
// it referenced — and returns the record to its pipeline.
func (req *pipeReq) release() {
	req.mustBeLive()
	req.reqState = reqState{}
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

// pending returns how many signaled response completions the slot's
// armed instances still owe.
func (p *opPipeline) pending(slot int) uint64 {
	return p.armCount[slot]*p.respPer - p.execSeen[slot]
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
			p.failLater(req)
			return
		}
		*p.waiting.Push() = req
		return
	}
	p.issue(req)
}

// failLater completes req as failed one MissTimeout from now. Only a
// request that is in no queue gets here (submit found every slot
// quarantined, or finish emptied the waiting queue into it), so it can
// neither issue nor complete in the meantime and this deadline is the
// only event it will ever have.
func (p *opPipeline) failLater(req *pipeReq) {
	p.c.tb.clu.Eng.After(p.c.MissTimeout, req.expireFn)
}

// expire is failLater's deadline.
func (req *pipeReq) expire() {
	req.mustBeLive()
	p := req.p
	req.done = true
	p.fails++
	p.lastRan = false // never even reached a slot
	p.lastRcpt = nil  // never issued: no receipt
	p.deliver(req, p.c.MissTimeout, false, false)
	req.release()
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
	p.armCount[slot]++
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
		r.Reset(req.op, uint8(p.op), req.submit)
		if wait := req.start - req.submit; wait > 0 {
			if req.winFull {
				r.AddPhase(telemetry.PhaseWindow, wait)
			} else {
				r.AddPhase(telemetry.PhaseQueue, wait)
			}
		}
		p.posted = append(p.posted, req)
	}
	p.post(req)
	p.dirty = true
	c.tb.clu.Eng.After(c.MissTimeout, req.timeoutFn)
}

// post tags the slot's context for tracing and provenance, arms it
// through the op's hook, and posts the trigger SEND (doorbell-less).
func (p *opPipeline) post(req *pipeReq) {
	if p.rcpts != nil {
		p.pool.Tag(req.slot, req.op, &p.rcpts[req.slot])
	} else if p.c.tr.Enabled() {
		p.pool.Tag(req.slot, req.op, nil)
	}
	payload := p.arm(req, p.resp[req.slot])
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
	p.finish(req, at-req.start, p.verdict == nil || p.verdict(req), backlog)
}

// timeout is an issued request's deadline: it completes the request as
// failed if it is still outstanding — the reported latency is exactly
// the configured timeout, the elapsed time a real client would have
// waited before giving up — and otherwise only unpins the record.
func (req *pipeReq) timeout() {
	req.mustBeLive()
	req.timed = true
	if req.done {
		req.release()
		return
	}
	req.p.finish(req, req.p.c.MissTimeout, false, 0)
}

// finish releases req's slot, feeds the congestion window, runs the
// op's release hook and callback, and refills the pipeline from the
// waiting queue (self-flushing: the driver may never call Flush
// again). A slot timing out with its armed instance still unexecuted
// (no response completions delivered, answer or miss) is quarantined
// rather than re-armed: the server NIC dropped the trigger, and
// stacking fresh instances on the dead context would overflow its
// chain rings. A confirmed answer always frees the slot — the WRITE
// proves the chain ran.
func (p *opPipeline) finish(req *pipeReq, lat Duration, ok bool, backlog sim.Time) {
	req.mustBeLive()
	req.done = true
	c := p.c
	if c.tr.Enabled() {
		c.tr.Exec(c.trLabel, p.trTracks[req.slot], "slot", req.start, c.tb.clu.Eng.Now(), req.op)
	}
	p.slots[req.slot] = nil
	p.inFlight--
	executed := p.pending(req.slot) < p.respPer
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
				p.failLater(p.waiting.Pop())
			}
		}
	} else {
		p.free = append(p.free, req.slot)
	}
	// Window control: a timeout (req.timed: only the deadline's call sets
	// it) is a loss, an ECN-marked answer congestion news one RTT earlier;
	// either cuts once per epoch. A clean answer, ack or refusal, grows it.
	if req.timed || p.win.marked(backlog) {
		if p.win.cut(req.seq, p.seq, !req.timed) && c.tr.Enabled() {
			c.tr.Instant(c.trLabel, p.trCut, req.op)
		}
	} else {
		p.win.onAck()
	}
	if p.rcpts != nil {
		// Finalize the receipt: the fabric phase is the post->completion
		// span minus the doorbell-batching delay Flush stamped, so the
		// phases partition submit->finish exactly.
		r := &p.rcpts[req.slot]
		r.Censored = req.timed
		r.AddPhase(telemetry.PhaseFabric, lat-r.Phases[telemetry.PhaseDoorbell])
		r.Total = r.PhaseSum()
		p.lastRcpt = r
	}
	if p.release != nil {
		p.release(req, ok, executed)
	}
	p.deliver(req, lat, ok, true)
	p.pump()
	c.Flush()
	if req.timed {
		req.release()
	}
}

// reclaim returns a quarantined slot to service once its backlog
// clears: response completions are delivered in order, so pending
// falling below one instance's worth means the last armed chain has
// begun executing on a live NIC.
func (p *opPipeline) reclaim(slot int) {
	if !p.wedged[slot] || p.pending(slot) >= p.respPer {
		return
	}
	p.wedged[slot] = false
	p.nWedged--
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
		if e.Op == wqe.OpWrite {
			p.onAck(slot, e.WRID, e.At, e.Backlog)
		}
		p.reclaim(slot)
	})
}

// windowConfig tunes the pipelines' AIMD congestion windows.
type windowConfig struct {
	// Adaptive enables AIMD; false pins every window to the pipeline
	// depth (the fixed-K behavior).
	Adaptive bool
	// Start is the initial window in slots (0 or out of range = depth).
	Start int
	// Beta is the multiplicative-decrease factor (0 = defaultWindowBeta).
	Beta float64
	// EcnBacklog marks acks whose completion-stamped backlog exceeds it
	// as congestion (0 = defaultEcnBacklog; negative disables ECN cuts,
	// leaving timeouts as the only loss signal).
	EcnBacklog Duration
}

// configureWindow applies cfg to all four pipelines. The default is
// pinned: a window fixed at the pipeline depth.
func (c *Client) configureWindow(cfg windowConfig) {
	beta := cfg.Beta
	if beta == 0 {
		beta = defaultWindowBeta
	}
	ecn := cfg.EcnBacklog
	if ecn == 0 {
		ecn = defaultEcnBacklog
	}
	start := cfg.Start
	if start <= 0 || start > c.depth {
		start = c.depth
	}
	for _, p := range c.pipes {
		p.win.adaptive = cfg.Adaptive
		p.win.w = float64(start)
		p.win.beta = beta
		p.win.ecn = ecn
	}
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

// ClientStats is a point-in-time snapshot of the client's counters
// across all four paths — the single surface Service.Stats and tests
// read instead of poking one-off accessors.
type ClientStats struct {
	Gets, Hits, Misses uint64
	MaxInFlight        int // pipeline high-water, get path

	Sets, SetAcks, SetFails uint64
	MaxSetsInFlight         int

	Dels, DelAcks, DelFails uint64
	MaxDelsInFlight         int

	Probes, ProbeAcks, ProbeFails uint64

	// GCFreed/GCStale count to-free ring drains: extents returned to
	// the arena vs entries whose extent was already gone.
	GCFreed, GCStale uint64

	// Quarantined slots per path (armed chain never executed).
	Wedged, SetsWedged, DelsWedged, ProbesWedged int

	// WindowCuts/EcnCuts total the multiplicative decreases across all
	// four windows (EcnCuts the subset taken on ECN marks rather than
	// timeouts). Zero while windows are pinned.
	WindowCuts, EcnCuts uint64
}

// Stats snapshots every per-client counter.
func (c *Client) Stats() ClientStats {
	var cuts, ecnCuts uint64
	for _, p := range c.pipes {
		cuts += p.win.cuts
		ecnCuts += p.win.ecnCuts
	}
	return ClientStats{
		Gets: c.get.issued, Hits: c.get.acks, Misses: c.get.fails,
		MaxInFlight: c.get.maxInFlight,
		Sets:        c.set.issued, SetAcks: c.set.acks, SetFails: c.set.fails,
		MaxSetsInFlight: c.set.maxInFlight,
		Dels:            c.del.issued, DelAcks: c.del.acks, DelFails: c.del.fails,
		MaxDelsInFlight: c.del.maxInFlight,
		Probes:          c.prb.issued, ProbeAcks: c.prb.acks, ProbeFails: c.prb.fails,
		GCFreed: c.gcFreed, GCStale: c.gcStale,
		Wedged: c.get.nWedged, SetsWedged: c.set.nWedged,
		DelsWedged: c.del.nWedged, ProbesWedged: c.prb.nWedged,
		WindowCuts: cuts, EcnCuts: ecnCuts,
	}
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
	return newClientOnNode(t, node, srv, mode, depth, defaultMaxValLen, srv.valueArena())
}

// newClientOnNode wires the four connections, the offload context pools
// and the demultiplexers; the Service uses it to place clients on its
// own nodes. arena supplies (and reclaims) the server-side value
// extents this connection's writes stage into; nil reproduces the
// leak-forever bump allocator.
func newClientOnNode(t *Testbed, node *fabric.Node, srv *Server, mode LookupMode, depth int, maxVal uint64, arena *extent.Arena) *Client {
	// Trigger connections: client SQ paces SENDs, server RQ holds one
	// pre-posted RECV per armed instance.
	srvRQ := max(2048, 4*depth)
	cliSQ := max(1024, 4*depth)
	c := &Client{tb: t, node: node, mode: mode,
		MissTimeout: DefaultMissTimeout,
		depth:       depth,
		maxVal:      maxVal,
		zero:        make([]byte, maxVal),
		arena:       arena,
		prevVal:     make(map[uint64]uint64),
		nextVer:     make(map[uint64]uint64),
	}
	c.get = newPipeline(c, pipeGet, "get", depth)
	c.set = newPipeline(c, pipeSet, "set", depth)
	c.del = newPipeline(c, pipeDelete, "del", depth)
	c.prb = newPipeline(c, pipeProbe, "probe", depth)
	c.pipes = [4]*opPipeline{c.get, c.set, c.del, c.prb}
	if mode != LookupSingle {
		c.get.respPer = 2 // seq probes two buckets
	}

	for _, p := range c.pipes {
		// Each path is a connection of its own, so each trigger RQ's
		// arrival counter sequences its pool alone.
		cliQP, srvQP := t.clu.Connect(node, srv.node,
			rnic.QPConfig{SQDepth: cliSQ, RQDepth: 8},
			rnic.QPConfig{SQDepth: 64, RQDepth: srvRQ, Managed: true})
		srvQP.RecvCQ().SetAutoDrain(true)
		srvQP.SendCQ().SetAutoDrain(true)
		p.qp = cliQP
		// Per-slot buffers and per-context response QPs. A get answers
		// with the value; the others with 8 bytes: the write verdict or
		// the probed version.
		resp := make([]*rnic.QP, depth)
		for i := range resp {
			p.trig = append(p.trig, node.Mem.Alloc(128, 8))
			switch p.op {
			case pipeGet:
				p.resp = append(p.resp, node.Mem.Alloc(maxVal, 64))
			case pipeSet:
				p.val = append(p.val, node.Mem.Alloc(maxVal, 64))
				fallthrough
			default:
				p.resp = append(p.resp, node.Mem.Alloc(8, 8))
			}
			_, resp[i] = t.clu.Connect(node, srv.node,
				rnic.QPConfig{SQDepth: 8, RQDepth: 8},
				rnic.QPConfig{SQDepth: 16, RQDepth: 8, Managed: true, PU: -1})
		}
		switch p.op {
		case pipeGet:
			c.gets = core.NewLookupPool(srv.builder, srvQP, resp, nil, nil, mode)
			p.pool = c.gets
		case pipeSet:
			c.sets = core.NewSetPool(srv.builder, srvQP, resp, maxVal, arena)
			p.pool = c.sets
		case pipeDelete:
			c.dels = core.NewDeletePool(srv.builder, srvQP, resp)
			p.pool = c.dels
		case pipeProbe:
			c.prbs = core.NewProbePool(srv.builder, srvQP, resp)
			p.pool = c.prbs
		}
		for i, q := range resp {
			p.subscribe(i, q)
		}
		// Profiler attribution: each pool's contexts (and their shared
		// trigger QP) serve exactly one op class, so the tagging is
		// static. The client-side trigger QP executes the staging WRITEs
		// and SENDs whose remote grants (server PCIe) should attribute to
		// the class too. Costs nothing until a Device has a profiler
		// attached.
		p.pool.SetProfClass(p.name)
		cliQP.SetProfClass(p.name)
	}
	c.wireHooks()
	return c
}

// wireHooks installs the per-op closures: arming on issue, completion
// payload on delivery, and post-release lifecycle.
func (c *Client) wireHooks() {
	// ---- get ----
	c.get.arm = func(req *pipeReq, resp uint64) []byte {
		c.node.Mem.Write(resp, c.zero[:req.valLen]) // so misses are observable
		c.gets.Ctxs[req.slot].Arm()
		return c.gets.Ctxs[req.slot].TriggerPayload(req.key, req.valLen, resp)
	}
	c.get.deliver = func(req *pipeReq, lat Duration, ok, slotValid bool) {
		if req.getCB == nil {
			return
		}
		var val []byte
		if slotValid {
			val, _ = c.node.Mem.Read(c.get.resp[req.slot], req.valLen)
		}
		req.getCB(val, lat, ok)
	}

	// ---- set ----
	c.set.arm = func(req *pipeReq, ack uint64) []byte {
		ctx, val := c.sets.Ctxs[req.slot], c.set.val[req.slot]
		req.staging = ctx.Arm(req.key)
		c.node.Mem.Write(val, req.val)
		// Same QP, in order: the value lands in staging before the
		// trigger SEND fires the claim chain.
		c.set.qp.PostSend(wqe.WQE{Op: wqe.OpWrite, Src: val, Dst: req.staging,
			Len: uint64(len(req.val))})
		return ctx.TriggerPayload(req.key, req.sclaim, uint64(len(req.val)), req.ver, ack)
	}
	// A write chain's ack carries the verdict: WRITE|key iff it applied.
	applied := func(req *pipeReq) bool {
		v, _ := c.node.Mem.U64(req.p.resp[req.slot])
		return v == wqe.MakeCtrl(wqe.OpWrite, req.key)
	}
	acked := func(req *pipeReq, lat Duration, ok, slotValid bool) {
		if req.ackCB != nil {
			req.ackCB(lat, ok)
		}
	}
	c.set.verdict, c.set.deliver = applied, acked
	c.set.release = func(req *pipeReq, ok, executed bool) {
		if !ok && executed {
			// The chain ran and refused the claim: the staged bytes can
			// never become the bucket's value, so retire the extent.
			// (An unexecuted chain keeps its staging — a straggler could
			// still repoint the bucket at it.)
			c.sets.Ctxs[req.slot].ReleaseStaging()
		}
		if ok && req.lifecycle && c.arena != nil {
			// This ack's staging is the bucket's value now; the extent
			// the previous same-key ack installed is superseded — retire
			// it after the read grace (an in-flight get may hold its
			// pointer).
			if prev, tracked := c.prevVal[req.key]; tracked && prev != req.staging {
				c.tb.clu.Eng.After(extentGraceLat, func() { c.arena.Free(prev) })
			}
			c.prevVal[req.key] = req.staging
		}
	}

	// ---- delete ----
	c.del.arm = func(req *pipeReq, ack uint64) []byte {
		c.dels.Ctxs[req.slot].Arm()
		return c.dels.Ctxs[req.slot].TriggerPayload(req.key, req.bucket, req.ver, ack)
	}
	c.del.verdict, c.del.deliver = applied, acked
	c.del.release = func(req *pipeReq, ok, executed bool) {
		if ok {
			// The unlink just retired the bucket's extent through the
			// ring; the standalone lifecycle chain must not free it
			// again on the next same-key set ack.
			delete(c.prevVal, req.key)
		}
		// Drain on every completion, not just acks: a straggler chain
		// from a timed-out delete deposits into a ring slot that a later
		// re-arm of the same context would otherwise overwrite, losing
		// the extent.
		c.drainFreed()
	}

	// ---- probe ----
	c.prb.arm = func(req *pipeReq, resp uint64) []byte {
		c.node.Mem.PutU64(resp, 0)
		c.prbs.Ctxs[req.slot].Arm()
		return c.prbs.Ctxs[req.slot].TriggerPayload(req.key, req.bucket, resp)
	}
	c.prb.deliver = func(req *pipeReq, lat Duration, ok, slotValid bool) {
		if req.prbCB == nil {
			return
		}
		var ver uint64
		if ok && slotValid {
			ver, _ = c.node.Mem.U64(c.prb.resp[req.slot])
		}
		req.prbCB(ver, lat, ok)
	}
}

// Bind points the client's gets at a server hash table.
func (c *Client) Bind(h *HashTable) {
	for _, ctx := range c.gets.Ctxs {
		ctx.Table = h.table
	}
	c.table = h
}

// pipe maps a pipeOp to its pipeline (pipeGet for unknown values).
func (c *Client) pipe(op pipeOp) *opPipeline {
	if int(op) < len(c.pipes) {
		return c.pipes[op]
	}
	return c.get
}

// pipelineStats snapshots one pipeline's occupancy and window, counting
// in-flight and wedged slots disjointly from explicit counters.
func (c *Client) pipelineStats(op pipeOp) pipelineStats {
	p := c.pipe(op)
	return pipelineStats{
		InFlight: p.inFlight,
		Queued:   p.waiting.Len(),
		Wedged:   p.nWedged,
		Window:   p.win.size(),
	}
}

// lastExecuted reports whether the most recent failed request on op's
// pipeline had its offload chain execute on the server NIC — a genuine
// miss (get: key absent), claim refusal (set: bucket taken; delete: key
// absent or already tombstoned) or conditional miss (probe: the bucket
// does not hold the key) — as opposed to never running (dead
// connection). Meaningful when read from within the failure callback.
func (c *Client) lastExecuted(op pipeOp) bool { return c.pipe(op).lastRan }

// enableProvenance allocates the per-slot latency receipts on every
// pipeline and starts stamping phase ledgers on each issued request.
// Disabled clients pay nothing: the receipt paths are a nil check.
func (c *Client) enableProvenance() {
	for _, p := range c.pipes {
		if p.rcpts == nil {
			p.rcpts = make([]telemetry.Receipt, c.depth)
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
					if !req.done {
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
// the response lands or MissTimeout expires. Gets beyond the pipeline
// window queue client-side until a slot frees. Call Flush to ring the
// doorbell after posting a batch.
func (c *Client) GetAsync(key, valLen uint64, cb func(val []byte, lat Duration, ok bool)) {
	if c.table == nil {
		panic("redn: Bind a table before Get")
	}
	if valLen > c.maxVal {
		panic(fmt.Sprintf("redn: valLen %d exceeds client max %d", valLen, c.maxVal))
	}
	req := c.get.take()
	req.key, req.valLen, req.getCB, req.op = key&hopscotch.KeyMask, valLen, cb, c.tr.Op()
	c.get.submit(req)
}

// Get performs one offloaded get of up to valLen bytes, advancing the
// simulation until the response lands (or MissTimeout for misses). It
// returns the value bytes, the observed latency, and whether the key
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
		out, lat, ok, done = v, l, hit, true
	})
	c.Flush()
	eng := c.tb.clu.Eng
	eng.RunUntil(eng.Now() + c.MissTimeout)
	// Queued behind a busy pipeline: the request may not even have
	// issued yet. Its own timeout (armed at issue) bounds every pass.
	for !done && eng.Pending() > 0 {
		eng.RunUntil(eng.Now() + c.MissTimeout)
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

// reservedKey reports keys in the reserved id space: pending and
// tombstone words must never be resident keys, and key 0's control word
// IS the empty-bucket marker.
func reservedKey(key uint64) bool {
	return key&hopscotch.PendingBit != 0 || key&hopscotch.KeyMask == 0
}

// refuse fails a write the client cannot claim from here after a
// zero-cost hop: callbacks never run synchronously.
func (c *Client) refuse(cb func(lat Duration, ok bool)) {
	c.tb.clu.Eng.After(0, func() {
		if cb != nil {
			cb(0, false)
		}
	})
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
		c.refuse(cb)
		return
	}
	// An acknowledged overwrite repoints the bucket at the new staging
	// extent; the superseded extent is retired from the release hook via
	// the per-key prevVal chain (exactly once, in ack order — see
	// prevVal). Seed the chain with the table's current extent so the
	// first overwrite retires the preloaded value. (Service writes pass
	// setAsyncClaim directly — their coordinator owns the lifecycle.)
	k := key & hopscotch.KeyMask
	if c.arena != nil {
		if _, tracked := c.prevVal[k]; !tracked {
			if va, _, ok := c.table.table.Lookup(k); ok {
				c.prevVal[k] = va
			}
		}
	}
	c.nextVer[k]++
	c.setAsyncReq(k, value, claim, c.nextVer[k], cb, true)
}

// setAsyncClaim is SetAsync with an explicit, caller-computed bucket
// claim and version — the service layer's entry point (its router owns
// placement and the quorum sequence the version publishes).
func (c *Client) setAsyncClaim(key uint64, value []byte, claim core.SetClaim, ver uint64, cb func(lat Duration, ok bool)) {
	c.setAsyncReq(key&hopscotch.KeyMask, value, claim, ver, cb, false)
}

// setAsyncReq routes one set request into the pipeline. lifecycle marks
// the standalone path, where the client retires superseded extents.
func (c *Client) setAsyncReq(key uint64, value []byte, claim core.SetClaim, ver uint64, cb func(lat Duration, ok bool), lifecycle bool) {
	if uint64(len(value)) > c.maxVal {
		panic(fmt.Sprintf("redn: value %d exceeds client max %d", len(value), c.maxVal))
	}
	req := c.set.take()
	req.key, req.val, req.sclaim, req.ver, req.ackCB = key, value, claim, ver, cb
	req.lifecycle, req.op = lifecycle, c.tr.Op()
	c.set.submit(req)
}

// Set performs one offloaded set, advancing the simulation until the
// ack lands (or MissTimeout on a dead connection). It returns the
// observed latency and whether the NIC applied the write.
func (c *Client) Set(key uint64, value []byte) (Duration, bool) {
	return c.awaitAck(func(cb func(Duration, bool)) { c.SetAsync(key, value, cb) })
}

// awaitAck issues one write through issue and advances the simulation
// until its callback runs.
func (c *Client) awaitAck(issue func(cb func(lat Duration, ok bool))) (lat Duration, ok bool) {
	done := false
	issue(func(l Duration, acked bool) { lat, ok, done = l, acked, true })
	c.Flush()
	c.tb.stepUntil(&done)
	return lat, ok
}

// ---- delete path ----

// residentBucket returns the candidate bucket holding key in the
// client's view of the bound table — the bucket a delete claims and a
// probe interrogates. Spilled residents only a CPU scan can reach, and
// keys absent outright, have none.
func (c *Client) residentBucket(key uint64) (uint64, bool) {
	return residentBucket(c.table.table, c.mode, key&hopscotch.KeyMask)
}

// DeleteAsync issues one offloaded delete of key, computing the bucket
// claim from the bound table, and returns immediately; cb runs when
// the NIC's ack lands (ok is its verdict: false for a refused claim)
// or, on a dead connection, MissTimeout expires. Deletes beyond the
// pipeline window queue client-side; call Flush after posting a batch.
// A key that is not at a NIC-reachable candidate bucket fails after a
// zero-cost hop: retiring spilled residents is host work.
func (c *Client) DeleteAsync(key uint64, cb func(lat Duration, ok bool)) {
	if c.table == nil {
		panic("redn: Bind a table before Delete")
	}
	bucket, ok := c.residentBucket(key)
	if !ok || reservedKey(key) {
		c.refuse(cb)
		return
	}
	c.nextVer[key&hopscotch.KeyMask]++
	c.deleteAsyncClaim(key, bucket, c.nextVer[key&hopscotch.KeyMask], cb)
}

// deleteAsyncClaim is DeleteAsync with an explicit, caller-computed
// bucket and tombstone version — the service layer's entry point.
func (c *Client) deleteAsyncClaim(key, bucket, ver uint64, cb func(lat Duration, ok bool)) {
	req := c.del.take()
	req.key, req.bucket, req.ver, req.ackCB, req.op = key&hopscotch.KeyMask, bucket, ver, cb, c.tr.Op()
	c.del.submit(req)
}

// drainFreed drains this connection's to-free ring into the server's
// arena: each entry a delete chain unlinked is returned exactly once,
// after the read grace (a get that probed the bucket just before the
// tombstone may still hold the pointer); entries whose extent is
// already gone (a straggling chain double-unlinked during its claim
// window) are counted and skipped.
func (c *Client) drainFreed() int {
	return c.dels.Ctxs[0].Ring.Drain(func(tag, addr, size uint64) {
		// The tag is the pending word the delete chain claimed; the
		// extent is freed only while the arena still attributes the
		// address to that key — a straggler's double-deposit of an
		// address recycled to another key is stale, not a free.
		key := tag & hopscotch.KeyMask &^ hopscotch.PendingBit
		if c.arena != nil {
			if cookie, live := c.arena.Cookie(addr); live && cookie == key {
				c.gcFreed++
				c.tb.clu.Eng.After(extentGraceLat, func() { c.arena.Free(addr) })
				return
			}
		}
		c.gcStale++
	})
}

// Delete performs one offloaded delete, advancing the simulation until
// the ack lands (or MissTimeout on a dead connection). It returns the
// observed latency and whether the NIC applied the retirement.
func (c *Client) Delete(key uint64) (Duration, bool) {
	return c.awaitAck(func(cb func(Duration, bool)) { c.DeleteAsync(key, cb) })
}

// ---- probe path ----

// probeAsync issues one offloaded version probe of key, computing the
// target bucket from the bound table, and returns immediately; cb runs
// with the replica's version word when the NIC's response lands, or
// ok=false after MissTimeout (key absent at the probed bucket, or dead
// connection — lastExecuted(pipeProbe) tells them apart). Probes beyond the
// pipeline window queue client-side; call Flush after posting a batch.
func (c *Client) probeAsync(key uint64, cb func(ver uint64, lat Duration, ok bool)) {
	if c.table == nil {
		panic("redn: Bind a table before Probe")
	}
	// Keys not at a NIC-reachable candidate (spilled, tombstoned,
	// absent) cannot be probed from here — the repair layer's host-side
	// comparison covers those.
	bucket, ok := c.residentBucket(key)
	if !ok {
		c.tb.clu.Eng.After(0, func() {
			if cb != nil {
				cb(0, 0, false)
			}
		})
		return
	}
	c.probeAsyncTarget(key, bucket, cb)
}

// probeAsyncTarget is probeAsync with an explicit, caller-computed
// bucket — the service layer's entry point.
func (c *Client) probeAsyncTarget(key, bucket uint64, cb func(ver uint64, lat Duration, ok bool)) {
	req := c.prb.take()
	req.key, req.bucket, req.prbCB, req.op = key&hopscotch.KeyMask, bucket, cb, c.tr.Op()
	c.prb.submit(req)
}

// probe performs one offloaded version probe, advancing the simulation
// until the response lands (or MissTimeout for conditional misses). It
// returns the replica's version word, the observed latency, and whether
// the NIC answered.
func (c *Client) probe(key uint64) (uint64, Duration, bool) {
	var (
		ver  uint64
		lat  Duration
		ok   bool
		done bool
	)
	c.probeAsync(key, func(v uint64, l Duration, answered bool) {
		ver, lat, ok, done = v, l, answered, true
	})
	c.Flush()
	c.tb.stepUntil(&done)
	return ver, lat, ok
}
