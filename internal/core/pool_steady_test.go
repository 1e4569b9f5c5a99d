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

	gets    *Pool[*LookupOffload]
	getQP   *rnic.QP
	getDone int
	getHits int

	sets      *Pool[*SetOffload]
	setQP     *rnic.QP
	setDone   int
	setAcks   int
	staged    [rigDepth]uint64
	keyOf     [rigDepth]int
	installed map[int]uint64 // key index -> extent an earlier set installed

	trig, buf, val, ack [rigDepth]uint64 // client-side buffers per slot
	next                int
}

func newPoolRig(t testing.TB) *poolRig {
	t.Helper()
	eng := sim.NewEngine()
	prof := rnic.ConnectX5()
	g := &poolRig{eng: eng, installed: make(map[int]uint64),
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
			if got, _, _, ok := table.EntryAt(bk); ok && got == k {
				g.keys = append(g.keys, k)
				g.buckets = append(g.buckets, table.BucketAddr(bk))
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
	pool := func() (cliQP, srvQP *rnic.QP, resp []*rnic.QP) {
		cliQP, srvQP = connect(rnic.QPConfig{SQDepth: 64, RQDepth: 8},
			rnic.QPConfig{SQDepth: 64, RQDepth: 64, Managed: true})
		for i := 0; i < rigDepth; i++ {
			_, r := connect(rnic.QPConfig{SQDepth: 8, RQDepth: 8},
				rnic.QPConfig{SQDepth: 16, RQDepth: 8, Managed: true, PU: -1})
			resp = append(resp, r)
		}
		return
	}

	var resp []*rnic.QP
	var srvQP *rnic.QP
	g.getQP, srvQP, resp = pool()
	g.gets = NewLookupPool(b, srvQP, resp, nil, table, LookupSeq)
	for i := range resp {
		seen := 0
		// A LookupSeq instance completes two response WQEs, one per
		// probed bucket; the one that found the key runs as a WRITE.
		resp[i].SendCQ().OnDeliver(func(e rnic.CQE) {
			if e.Op == wqe.OpWrite {
				g.getHits++
			}
			if seen++; seen%2 == 0 {
				g.getDone++
			}
		})
	}
	g.setQP, srvQP, resp = pool()
	g.sets = NewSetPool(b, srvQP, resp, rigValLen, g.arena)
	for i := range resp {
		slot := i
		resp[i].SendCQ().OnDeliver(func(e rnic.CQE) {
			ki := g.keyOf[slot]
			if v, _ := g.cli.Mem().U64(g.ack[slot]); v == wqe.MakeCtrl(wqe.OpWrite, g.keys[ki]) {
				g.setAcks++
				// The bucket points at this set's staging extent now;
				// retire the one an earlier set left there.
				if old, ok := g.installed[ki]; ok {
					if err := g.arena.Free(old); err != nil {
						t.Fatal(err)
					}
				}
				g.installed[ki] = g.staged[slot]
			}
			g.setDone++
		})
	}
	for i := 0; i < rigDepth; i++ {
		m := g.cli.Mem()
		g.trig[i], g.buf[i] = m.Alloc(128, 8), m.Alloc(rigValLen, 64)
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

// getRound arms n get chains, triggers them in arm order and runs them
// to completion.
func (g *poolRig) getRound(t testing.TB, n int) {
	done, hits := g.getDone, g.getHits
	for slot := 0; slot < n; slot++ {
		ctx := g.gets.Ctxs[slot]
		ctx.Arm()
		g.next++
		g.send(g.getQP, slot, ctx.TriggerPayload(g.keys[g.next%len(g.keys)], rigValLen, g.buf[slot]))
	}
	g.getQP.RingSQ()
	g.eng.Run()
	if g.getDone-done != n || g.getHits-hits != n {
		t.Fatalf("get round: %d of %d chains completed, %d hits", g.getDone-done, n, g.getHits-hits)
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
		g.getRound(t, rigDepth)
		g.setRound(t, rigDepth)
	}
	// Laps the trigger RQs (64 deep) and the args rings many times over
	// and lets the arena reach the segments it then recycles.
	for i := 0; i < 300; i++ {
		round()
	}
	settled := cursor()
	for ops := 0; ops < 200000; ops += 2 * rigDepth {
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
		g.getRound(t, rigDepth)
	}
	perGet := testing.AllocsPerRun(100, func() { g.getRound(t, rigDepth) }) / rigDepth
	if perGet > 32 {
		t.Fatalf("%.1f allocations per armed get chain, want <= 32", perGet)
	}
	t.Logf("%.2f allocations per armed get chain", perGet)
}
