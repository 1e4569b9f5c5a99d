package core

import (
	"encoding/binary"

	"repro/internal/hopscotch"
	"repro/internal/rnic"
	"repro/internal/telemetry"
	"repro/internal/wqe"
)

// A Program is one of the two trigger-driven offloads — lookup and set
// (a delete is the set's key claim installing the tombstone) — each a
// RedN program run by the chain it embeds (the list walk embeds one
// too). A program states its trigger
// layout once, as an ordered list of slots, and posts each instance's
// steps in sequencing order; the chain derives the RECV's scatter list,
// the control lanes and the SEND's payload from the two.
type Program interface{ base() *chain }

// chain is the generic arm/trigger path every Program shares: the
// builder it sequences through, the connection whose SENDs trigger it,
// the queue it answers on, and the op context its queues share.
type chain struct {
	B *Builder
	// Trig is the server side of the client connection: its RQ receives
	// the trigger SENDs (shared by every context of a pool).
	Trig *rnic.QP
	// Resp is the context's own QP back to the client, holding its
	// response WQEs (unmanaged if they are final when posted). Pool
	// contexts need their own: an ENABLE grants every earlier WQE on its
	// ring, so two contexts sharing one could release each other's
	// responses. A standalone lookup leaves it nil and answers on Trig's SQ.
	Resp *rnic.QP

	// b2 sequences a second control queue firing off the same arrival
	// (LookupParallel's second probe); nil otherwise.
	b2 *Builder

	armed uint64
	trig  []byte // the trigger payload, rebuilt by every TriggerPayload

	// op is the op context of every QP whose WRs belong to this
	// context alone — control queues, chain rings, response QPs — and
	// of each RECV it posts. The shared trigger QP is not among them: its
	// batched SENDs interleave ops. Allocated once by newChain, so its address survives the
	// chain's copy into the program that embeds it. qps lists those
	// queues, for a reset.
	op  *telemetry.OpContext
	qps []*rnic.QP

	// posted has bit i set when the instance armed last posted step i:
	// which of the layout's slots its trigger fills.
	posted uint8
}

// An instance is one armed instance as its program posts it: the steps
// in sequencing order, a step its shape leaves out being the zero
// StepRef (the longest program, the two-probe get, has six), and its
// args buffer.
type instance struct {
	steps [6]StepRef
	args  uint64
}

// A slot is one 8-byte word of a trigger: the armed RECV scatters it
// onto field off of the instance's step-th step — or onto word off of
// its args buffer, when step is argsWord — and the SEND carries operand
// op there. A slot whose step the instance left out is in neither.
type slot struct{ step, off, op uint8 }

// argsWord is the step of a slot aimed at the instance's args buffer.
const argsWord = 0xff

// The operands a trigger carries, named once for all the programs.
// payload fills the key's two words; each TriggerPayload the rest its
// layout names.
const (
	opNoop    = iota // NOOP|key: the resident word a conditional expects
	opWrite          // WRITE|key: the verb it arms
	opBucket         // the bucket's address (a lookup's first candidate; a list's head)
	opBucket2        // a lookup's second candidate bucket
	opExtent         // the value extent a hinted lookup gathers
	opLen            // the value's length
	opResp           // the client-side answer buffer
	numOps
)

type operands [numOps]uint64

func newChain(b *Builder, trig, resp *rnic.QP) chain {
	// A context has four queues but for a parallel lookup's six, and a
	// trigger at most one word per scatter entry of its RECV.
	c := chain{B: b, Trig: trig, Resp: resp, op: &telemetry.OpContext{}, qps: make([]*rnic.QP, 0, 4),
		trig: make([]byte, 0, 8*wqe.MaxScatter)}
	c.tag(b.Ctrl)
	if resp != nil {
		c.tag(resp)
	}
	return c
}

func (c *chain) base() *chain { return c }

// tag points q at the context's op context and counts it among the
// context's queues.
func (c *chain) tag(q *rnic.QP) {
	q.SetContext(c.op)
	c.qps = append(c.qps, q)
}

// ring allocates a chain ring on PU pu, managed or not, and tags it. A
// pool context passes -1, round-robining its rings over the port's PUs
// (the Table 3/4 throughput-scaling idiom). Its verbs are posted
// signaled to gate the WAITs, and nothing polls their completions, so it
// drains at delivery.
func (c *chain) ring(depth int, managed bool, pu int) *rnic.QP {
	q := c.B.Dev.NewLoopbackQP(rnic.QPConfig{SQDepth: depth, RQDepth: 1, Managed: managed, Port: c.B.Port, PU: pu})
	q.SendCQ().SetAutoDrain(true)
	c.tag(q)
	return q
}

// argsRing is the depth of a context's args-buffer rotation: one
// instance is in flight per context, so anything past a couple covers
// stragglers from timed-out instances.
const argsRing = 8

// newArgs carves a context's ring of argsRing n-byte args buffers, one
// per in-flight-or-straggling instance, when the context is built:
// arming never grows server memory.
func (c *chain) newArgs(n uint64) uint64 { return c.B.Dev.Mem().Alloc(argsRing*n, 8) }

// argsBuf returns the n-byte args buffer of the instance about to be
// armed, from the ring newArgs carved at base.
func (c *chain) argsBuf(base, n uint64) uint64 { return base + c.armed%argsRing*n }

// inject posts the lookup idiom (Fig 9) as in's steps at, at+1, at+2 —
// read, cas, resp: the response NOOP on resp (respLen bytes unless the
// trigger sets the length), a READ on q injecting n bytes of the
// bucket, its key word first, onto the response's control word, and
// the conditional that flips the response into a WRITE iff that word is
// the key's.
func (c *chain) inject(in *instance, at int, q, resp *rnic.QP, n, respLen uint64) {
	r := c.B.Post(resp, wqe.WQE{Op: wqe.OpNoop, Len: respLen, Flags: wqe.FlagSignaled})
	ctrl := r.FieldAddr(wqe.OffCtrl)
	in.steps[at] = c.B.Post(q, wqe.WQE{Op: wqe.OpRead, Dst: ctrl, Len: n, Flags: wqe.FlagSignaled})
	in.steps[at+1] = c.B.cond(q, ctrl, 0, 0, 0)
	in.steps[at+2] = r
}

// ack posts in's last step, at: the ack on Resp, WRITEing the verdict
// word at verdict to ackAddr under id key, after the step before.
func (c *chain) ack(in *instance, at int, key, verdict, ackAddr uint64) {
	prev := at - 1
	for in.steps[prev].QP == nil {
		prev--
	}
	in.steps[at] = c.B.after(in.steps[prev], c.Resp, wqe.WQE{Op: wqe.OpWrite, ID: key & hopscotch.KeyMask,
		Src: verdict, Dst: ackAddr, Len: 8, Flags: wqe.FlagSignaled})
}

// waitArrival posts a WAIT on unmanaged queue q for the arrival of the
// trigger whose RECV is posted next, gating the steps posted after it.
func (c *chain) waitArrival(q *rnic.QP) {
	arrival := c.Trig.RecvCQ()
	c.B.Post(q, wqe.WQE{Op: wqe.OpWait, Peer: arrival.CQN(), Count: c.B.Expected(arrival) + 1})
}

// recv posts the RECV that scatters the next trigger's payload onto in,
// per layout, and returns the WAIT target of its arrival.
func (c *chain) recv(layout []slot, in *instance) uint64 {
	c.posted = 0
	for i, st := range in.steps {
		if st.QP != nil {
			c.posted |= 1 << i
		}
	}
	var scatter [wqe.MaxScatter]wqe.ScatterEntry
	n := 0
	for _, s := range layout {
		switch {
		case s.step == argsWord:
			scatter[n] = wqe.ScatterEntry{Addr: in.args + uint64(s.off), Len: 8}
		case c.fills(s):
			scatter[n] = wqe.ScatterEntry{Addr: in.steps[s.step].FieldAddr(int(s.off)), Len: 8}
		default:
			continue
		}
		n++
	}
	c.armed++
	return c.B.ExpectRecv(c.Trig, c.armed, scatter[:n], c.op)
}

// fills reports whether the trigger of the instance armed last fills s.
func (c *chain) fills(s slot) bool {
	return s.step == argsWord || c.posted&(1<<s.step) != 0
}

// fire triggers in, just posted: it posts in's RECV, then runs each lane
// on its own control queue (B's, then b2's): a WAIT on the trigger's
// arrival, then per posted step an ENABLE if it is managed (an unmanaged
// one waits on its own queue), and a WAIT for it unless it is a response,
// which nothing on the NIC waits for. Last it rings the doorbells (an
// unmanaged step's queue's first): newly posted verbs need one if the
// queue has gone idle (kicking an active queue is a no-op).
func (c *chain) fire(layout []slot, in *instance, lanes ...[]StepRef) {
	recv := c.recv(layout, in)
	ctrls := [2]*Builder{c.B, c.b2}
	for i, steps := range lanes {
		b := ctrls[i]
		b.WaitRecv(c.Trig, recv)
		for _, s := range steps {
			switch {
			case s.QP == nil:
				continue
			case s.QP.SQ().Managed():
				b.Enable(s)
			default:
				s.QP.RingSQ()
			}
			if s.QP.Remote().Device() == b.Dev {
				b.WaitStep(s)
			}
		}
	}
	for i := range lanes {
		ctrls[i].Ctrl.RingSQ()
	}
}

// payload builds the SEND that drives the instance armed last: v's
// operands in layout order, with key's NOOP and WRITE words filled in.
// The result is the context's own buffer — a context serves one request
// at a time and its client copies the payload into registered memory
// before asking for the next — so it is overwritten by the next call.
func (c *chain) payload(layout []slot, key uint64, v operands) []byte {
	k := key & hopscotch.KeyMask
	v[opNoop], v[opWrite] = wqe.MakeCtrl(wqe.OpNoop, k), wqe.MakeCtrl(wqe.OpWrite, k)
	buf := c.trig[:0]
	for _, s := range layout {
		if c.fills(s) {
			buf = binary.BigEndian.AppendUint64(buf, v[s.op])
		}
	}
	c.trig = buf
	return buf
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
type Pool[C Program] struct {
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
// per server-side response QP (each connected back to the client),
// each on a sub-builder with its own control queue. All contexts share
// b's completion bookkeeping and device.
func newPool[C Program](b *Builder, trig *rnic.QP, resp []*rnic.QP, ctx func(i int, b *Builder, resp *rnic.QP) C) *Pool[C] {
	if len(resp) == 0 {
		panic("core: a pool needs at least one response QP")
	}
	p := &Pool[C]{Trig: trig, Ctxs: make([]C, len(resp))}
	for i, r := range resp {
		p.Ctxs[i] = ctx(i, b.subBuilder(poolCtrlDepth, -1), r)
	}
	return p
}

// Reset realigns the pool with its connection after the server
// restarted: the shared trigger QP and every queue of every context are
// reset (rnic QP.Reset), dropping whatever instances they held, and the
// builder's expected counts restart from what their CQs will settle at,
// so the next instance armed on any context fires on the next trigger
// SEND again. Ring memory, queues and PU placement are kept: a reset
// allocates nothing.
func (p *Pool[C]) Reset() {
	b := p.Ctxs[0].base().B
	b.reset(p.Trig)
	for _, ctx := range p.Ctxs {
		for _, q := range ctx.base().qps {
			b.reset(q)
		}
	}
}

// Context returns slot's op context: what the instance armed next on
// it attributes its WR spans, resource grants and receipt to.
func (p *Pool[C]) Context(slot int) *telemetry.OpContext { return p.Ctxs[slot].base().op }
