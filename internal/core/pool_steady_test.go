//go:build !race

package core

import (
	"testing"

	"repro/internal/extent"
	"repro/internal/hopscotch"
	"repro/internal/mem"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/wqe"
)

// The steady-state pins: re-arming and triggering pooled chains must
// cost the host neither Go allocations nor simulated memory. They run
// hundreds of thousands of chains, so they are left out of -race runs.

const (
	rigDepth  = 16
	rigValLen = 64
)

// poolRig is one server with a populated table and a client driving a
// lookup Pool and a set Pool over it, rigDepth chains at a time, the way
// redn.Client wires them.
type poolRig struct {
	eng      *sim.Engine
	cli, srv *rnic.Device
	arena    *extent.Arena
	keys     []uint64 // keys resident in one of their candidate buckets
	buckets  []uint64 // bucket address holding keys[i]
	fns      []int    // the candidate holding keys[i]
	exts     []uint64 // the extent bucket i names: a set's ack moves it

	gets, hints   *Pool[*LookupOffload] // two-probe gets; hinted ones, on unmanaged answer queues
	getQP, hintQP *rnic.QP
	getCQEs       int // response completions, two per two-probe get
	getHits       int

	sets    *Pool[*SetOffload]
	setQP   *rnic.QP
	setDone int
	setAcks int
	staged  [rigDepth]uint64
	keyOf   [rigDepth]int

	trig, buf, val, ack [rigDepth]uint64 // client-side buffers per slot
	next                int
}

func newPoolRig(t testing.TB) *poolRig {
	t.Helper()
	eng := sim.NewEngine()
	prof := rnic.ConnectX5()
	g := &poolRig{eng: eng,
		cli: rnic.New(eng, mem.New(1<<22), prof, 1),
		srv: rnic.New(eng, mem.New(1<<23), prof, 1)}
	b := NewBuilder(g.srv, 1<<10)
	g.arena = extent.NewArena(g.srv.Mem(), 0)
	table := hopscotch.New(g.srv.Mem(), 1<<10, 0)
	for k := uint64(1); k <= 256; k++ {
		addr := g.arena.Alloc(rigValLen, k)
		if err := table.Insert(k, addr, rigValLen); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= 256; k++ {
		if table.Hash(k, 0) == table.Hash(k, 1) {
			continue // both probes would hit
		}
		for fn := 0; fn < 2; fn++ {
			bk := table.Hash(k, fn)
			if got, va, _, ok := table.EntryAt(bk); ok && got == k {
				g.keys = append(g.keys, k)
				g.exts = append(g.exts, va)
				g.buckets = append(g.buckets, table.BucketAddr(bk))
				g.fns = append(g.fns, fn)
				break
			}
		}
	}

	connect := func(cliCfg, srvCfg rnic.QPConfig) (c, s *rnic.QP) {
		c, s = g.cli.NewQP(cliCfg), g.srv.NewQP(srvCfg)
		c.Connect(s, prof.OneWay)
		for _, cq := range []*rnic.CQ{c.SendCQ(), c.RecvCQ(), s.SendCQ(), s.RecvCQ()} {
			cq.SetAutoDrain(true)
		}
		return c, s
	}
	// A two-probe get's response QPs are managed, a hinted get's and a
	// set's not: their answers are final when posted.
	pool := func(managedResp bool) (cliQP, srvQP *rnic.QP, resp []*rnic.QP) {
		cliQP, srvQP = connect(rnic.QPConfig{SQDepth: 64, RQDepth: 8},
			rnic.QPConfig{SQDepth: 64, RQDepth: 64, Managed: true})
		for i := 0; i < rigDepth; i++ {
			_, r := connect(rnic.QPConfig{SQDepth: 8, RQDepth: 8},
				rnic.QPConfig{SQDepth: 16, RQDepth: 8, Managed: managedResp, PU: -1})
			resp = append(resp, r)
		}
		return
	}

	var resp []*rnic.QP
	var srvQP *rnic.QP
	for _, hinted := range []bool{false, true} {
		cliQP, srvQP, resp := pool(!hinted)
		p := NewLookupPool(b, srvQP, resp, nil, table, LookupSeq)
		if hinted {
			g.hintQP, g.hints = cliQP, p
		} else {
			g.getQP, g.gets = cliQP, p
		}
		for i := range resp {
			// A LookupSeq instance completes two response WQEs, one per
			// probed bucket; the one that found the key runs as a WRITE.
			// A hinted one completes its one WRITE.
			resp[i].SendCQ().OnDeliver(func(e rnic.CQE) {
				if e.Op == wqe.OpWrite {
					g.getHits++
				}
				g.getCQEs++
			})
		}
	}
	g.setQP, srvQP, resp = pool(false)
	g.sets = NewSetPool(b, srvQP, resp, rigValLen, g.arena)
	for i := range resp {
		slot := i
		resp[i].SendCQ().OnDeliver(func(e rnic.CQE) {
			ki := g.keyOf[slot]
			if v, _ := g.cli.Mem().U64(g.ack[slot]); v == wqe.MakeCtrl(wqe.OpWrite, g.keys[ki]) {
				g.setAcks++
				// The bucket points at this set's staging extent now;
				// retire the one it named before.
				if err := g.arena.Free(g.exts[ki]); err != nil {
					t.Fatal(err)
				}
				g.exts[ki] = g.staged[slot]
			}
			g.setDone++
		})
	}
	for i := 0; i < rigDepth; i++ {
		m := g.cli.Mem()
		g.trig[i], g.buf[i] = m.Alloc(128, 8), m.Alloc(16+rigValLen, 64)
		g.val[i], g.ack[i] = m.Alloc(rigValLen, 64), m.Alloc(8, 8)
	}
	return g
}

func (g *poolRig) send(qp *rnic.QP, slot int, payload []byte) {
	if err := g.cli.Mem().Write(g.trig[slot], payload); err != nil {
		panic(err)
	}
	qp.PostSend(wqe.WQE{Op: wqe.OpSend, Src: g.trig[slot], Len: uint64(len(payload))})
}

// getRound arms n get chains, two-probe or hinted at the candidate
// holding their key and the extent it names, triggers them in arm order
// and runs them to completion.
func (g *poolRig) getRound(t testing.TB, n int, hinted bool) {
	cqes, hits, per, pool, qp := g.getCQEs, g.getHits, 2, g.gets, g.getQP
	if hinted {
		per, pool, qp = 1, g.hints, g.hintQP
	}
	var keys, exts [rigDepth]uint64
	for slot := 0; slot < n; slot++ {
		ctx := pool.Ctxs[slot]
		g.next++
		ki := g.next % len(g.keys)
		if hinted {
			ctx.ArmProbe(g.fns[ki], g.exts[ki])
		} else {
			ctx.Arm()
		}
		keys[slot], exts[slot] = g.keys[ki], g.exts[ki]
		g.send(qp, slot, ctx.TriggerPayload(keys[slot], rigValLen, g.buf[slot]))
	}
	qp.RingSQ()
	g.eng.Run()
	if g.getCQEs-cqes != per*n || g.getHits-hits != n {
		t.Fatalf("get round: %d of %d completions, %d hits of %d", g.getCQEs-cqes, per*n, g.getHits-hits, n)
	}
	for slot := 0; hinted && slot < n; slot++ {
		w, _ := g.cli.Mem().U64(g.buf[slot])
		va, _ := g.cli.Mem().U64(g.buf[slot] + 8)
		if w != ClaimCtrl(keys[slot]) || va != exts[slot] {
			t.Fatalf("hinted get of %d answered [%#x, %#x], want [%#x, %#x]", keys[slot], w, va, ClaimCtrl(keys[slot]), exts[slot])
		}
	}
}

// setRound does the same for n overwriting sets of distinct keys.
func (g *poolRig) setRound(t testing.TB, n int) {
	done, acks := g.setDone, g.setAcks
	for slot := 0; slot < n; slot++ {
		g.next++
		ki := g.next % len(g.keys)
		key, kc := g.keys[ki], ClaimCtrl(g.keys[ki])
		ctx := g.sets.Ctxs[slot]
		g.keyOf[slot], g.staged[slot] = ki, ctx.Arm(key)
		g.setQP.PostSend(wqe.WQE{Op: wqe.OpWrite, Src: g.val[slot], Dst: g.staged[slot], Len: rigValLen})
		g.send(g.setQP, slot, ctx.TriggerPayload(key,
			SetClaim{BucketAddr: g.buckets[ki], Expect: kc, New: kc}, rigValLen, uint64(g.next), g.ack[slot]))
	}
	g.setQP.RingSQ()
	g.eng.Run()
	if g.setDone-done != n || g.setAcks-acks != n {
		t.Fatalf("set round: %d of %d chains completed, %d acked", g.setDone-done, n, g.setAcks-acks)
	}
}

// TestPooledChainsStopGrowingServerMemory is the regression test for
// ExpectRecv bump-allocating a scatter list per Arm: 200 K armed gets
// and sets later the server's allocation cursor must be where it was
// after the first laps of the rings.
func TestPooledChainsStopGrowingServerMemory(t *testing.T) {
	g := newPoolRig(t)
	cursor := func() uint64 { return g.srv.Mem().Alloc(0, 1) }
	round := func() {
		g.getRound(t, rigDepth, false)
		g.getRound(t, rigDepth, true)
		g.setRound(t, rigDepth)
	}
	// Laps the trigger RQs (64 deep) and the args rings many times over
	// and lets the arena reach the segments it then recycles.
	for i := 0; i < 300; i++ {
		round()
	}
	settled := cursor()
	for ops := 0; ops < 200000; ops += 3 * rigDepth {
		round()
	}
	if got := cursor(); got != settled {
		t.Fatalf("server allocation cursor moved %d bytes over 200K armed ops", got-settled)
	}
}

// TestArmedGetChainAllocs pins the whole NIC-side cost of a get — 18
// work requests from trigger SEND to response WRITE — plus its Arm.
func TestArmedGetChainAllocs(t *testing.T) {
	g := newPoolRig(t)
	for i := 0; i < 50; i++ {
		g.getRound(t, rigDepth, false)
	}
	perGet := testing.AllocsPerRun(100, func() { g.getRound(t, rigDepth, false) }) / rigDepth
	if perGet > 32 {
		t.Fatalf("%.1f allocations per armed get chain, want <= 32", perGet)
	}
	t.Logf("%.2f allocations per armed get chain", perGet)
}

// TestHintedGetArmAllocatesNothing pins a hinted get's arming and its
// whole chain, trigger SEND to answer WRITE, at no Go allocation: its
// answer lists are carved once per context, like the write programs'
// args buffers, and its gather reuses the run record's buffers.
func TestHintedGetArmAllocatesNothing(t *testing.T) {
	g := newPoolRig(t)
	for i := 0; i < 50; i++ {
		g.getRound(t, rigDepth, true)
	}
	if got := testing.AllocsPerRun(100, func() { g.getRound(t, rigDepth, true) }); got != 0 {
		t.Fatalf("%.2f allocations per round of %d hinted gets, want 0", got, rigDepth)
	}
}
