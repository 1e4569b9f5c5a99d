package core

import (
	"repro/internal/rnic"
	"repro/internal/telemetry"
	"repro/internal/wqe"
)

// chain is what every trigger-driven offload context shares: the
// builder it sequences through, the connection whose SENDs trigger it,
// the queue it answers on, and the context's tagged ring set. Each
// offload embeds one and keeps only its program — the verbs it posts
// (from Arm; a set's from TriggerPayload), its scatter list, its payload.
type chain struct {
	B *Builder
	// Trig is the server side of the client connection: its RQ receives
	// the trigger SENDs (shared by every context of a pool).
	Trig *rnic.QP
	// Resp is the context's dedicated managed QP back to the client,
	// holding its response WQEs. Pool contexts need their own: an ENABLE
	// grants every earlier WQE on its ring, so two contexts sharing a
	// response ring could release each other's responses. A standalone
	// lookup leaves it nil and answers on Trig's SQ.
	Resp *rnic.QP

	// b2 sequences a second control queue firing off the same arrival
	// (LookupParallel's second probe); nil otherwise.
	b2 *Builder

	armed uint64
	trig  triggerBuf

	// rings is the tagged ring set: every QP whose WRs belong to this
	// context alone — control queues, chain rings, response QPs. The
	// shared trigger QP is not in it: its batched SENDs interleave ops.
	rings  [6]*rnic.QP
	nrings int
}

func newChain(b *Builder, trig, resp *rnic.QP) chain {
	c := chain{B: b, Trig: trig, Resp: resp}
	c.tag(b.Ctrl)
	if resp != nil {
		c.tag(resp)
	}
	return c
}

// tag adds q to the context's ring set.
func (c *chain) tag(q *rnic.QP) {
	c.rings[c.nrings] = q
	c.nrings++
}

// ring allocates a managed chain ring (pu -1 round-robins over the
// port's PUs) and tags it. Its verbs are posted signaled to gate the
// WAITs, and nothing polls their completions, so it drains at delivery.
func (c *chain) ring(depth, pu int) *rnic.QP {
	q := c.B.NewManagedQPOnPU(depth, pu)
	q.SendCQ().SetAutoDrain(true)
	c.tag(q)
	return q
}

// SetTraceOp tags the context's ring set so the WRs of the instance
// armed next attribute to op in traces.
func (c *chain) SetTraceOp(op uint64) {
	for _, q := range c.rings[:c.nrings] {
		q.SetTraceOp(op)
	}
}

// SetReceipt rides a latency receipt on the context's ring set so the
// next armed instance's resource grants fold into it. nil clears.
func (c *chain) SetReceipt(r *telemetry.Receipt) {
	for _, q := range c.rings[:c.nrings] {
		q.SetReceipt(r)
	}
}

// SetProfClass tags every QP the context executes WRs through —
// including the shared trigger QP, which serves only this op class —
// for profiler attribution. Static; call once at wiring.
func (c *chain) SetProfClass(class string) {
	for _, q := range c.rings[:c.nrings] {
		q.SetProfClass(class)
	}
	if c.Trig != nil {
		c.Trig.SetProfClass(class)
	}
}

// fire triggers one armed instance. It posts the RECV that scatters the
// trigger's payload into the instance's WQEs, then runs each lane on its
// own control queue (B's, then b2's): a WAIT on the trigger's arrival,
// and an ENABLE+WAIT for every step except a response — a WQE on a queue
// facing the client, which nothing on the NIC waits for — which gets an
// ENABLE only. Last it rings the control doorbells: newly posted verbs
// need one if the queue has gone idle since the last request (kicking an
// active queue is a no-op).
func (c *chain) fire(scatter []wqe.ScatterEntry, lanes ...[]StepRef) {
	c.armed++
	recv := c.B.ExpectRecv(c.Trig, c.armed, scatter)
	ctrls := [2]*Builder{c.B, c.b2}
	for i, steps := range lanes {
		b := ctrls[i]
		b.WaitRecv(c.Trig, recv)
		for _, s := range steps {
			b.Enable(s)
			if s.QP.Remote().Device() == b.Dev {
				b.WaitStep(s)
			}
		}
	}
	for i := range lanes {
		ctrls[i].Ctrl.RingSQ()
	}
}

// Pool is K independent offload contexts sharing one client connection
// — the server-side substrate of a pipelined client path.
//
// A single context serializes every armed instance through one control
// queue: instance i+1's WAITs sit behind instance i's entire chain, so
// overlapping requests gain almost nothing. The pool instead gives each
// in-flight request slot its own context — a private control queue,
// chain rings and response QP, spread round-robin across the port's
// processing units — while all contexts share the connection's trigger
// RQ and its arrival counter. A WAIT in context j targets the absolute
// arrival count of the shared trigger CQ, so the j-th armed chain fires
// on the j-th SEND no matter which context owns it, and K chains then
// execute concurrently on the NIC exactly as K pre-armed RedN programs
// would on real hardware (§5.2.2's extra-QP parallelism trade-off, paid
// K times). The caller must therefore send triggers in the order it
// armed them across the whole pool.
type Pool[C any] struct {
	// Trig is the shared server-side connection QP: its RQ receives
	// every trigger SEND, in global arm order.
	Trig *rnic.QP
	// Ctxs are the K contexts; Ctxs[i] serves the client's request slot i.
	Ctxs []C
}

// poolCtrlDepth sizes a pool context's control queue: one instance's
// sync verbs, with room for ring wrap.
const poolCtrlDepth = 64

// newPool builds K = len(resp) contexts over the trig connection, one
// per server-side managed response QP (each connected back to the
// client), each on a sub-builder with its own control queue. All
// contexts share b's completion bookkeeping and device.
func newPool[C any](b *Builder, trig *rnic.QP, resp []*rnic.QP, ctx func(i int, b *Builder, resp *rnic.QP) C) *Pool[C] {
	if len(resp) == 0 {
		panic("core: a pool needs at least one response QP")
	}
	p := &Pool[C]{Trig: trig, Ctxs: make([]C, len(resp))}
	for i, r := range resp {
		p.Ctxs[i] = ctx(i, b.SubBuilder(poolCtrlDepth, -1), r)
	}
	return p
}
