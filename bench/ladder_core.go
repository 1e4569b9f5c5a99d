package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/fabric"
	"repro/internal/hopscotch"
	"repro/internal/rnic"
	"repro/internal/wqe"
)

// coreRig is one server node with a populated table, one client node,
// and the keys the NIC can reach at a candidate bucket (a key the
// table displaced into its neighborhood is the host's business, not the
// chain's).
type coreRig struct {
	clu      *fabric.Cluster
	srv, cli *fabric.Node
	builder  *core.Builder
	arena    *extent.Arena
	table    *hopscotch.Table
	keys     []uint64
	buckets  []uint64 // bucket address holding keys[i]
}

func newCoreRig() *coreRig {
	const nKeys = 1000
	g := &coreRig{clu: fabric.NewCluster()}
	g.srv, g.cli = g.clu.AddNode(ladderNode("server")), g.clu.AddNode(ladderNode("client"))
	g.builder = core.NewBuilder(g.srv.Dev, 1<<16)
	g.arena = extent.NewArena(g.srv.Mem, 0)
	g.table = hopscotch.New(g.srv.Mem, 1<<12, 0)
	val := make([]byte, valLen)
	for k := uint64(1); k <= nKeys; k++ {
		addr := g.arena.Alloc(valLen, k)
		encodeValue(val, k, 1)
		if err := g.srv.Mem.Write(addr, val); err != nil {
			panic(err)
		}
		if err := g.table.Insert(k, addr, valLen); err != nil {
			panic(err)
		}
	}
	for k := uint64(1); k <= nKeys; k++ {
		if addr, ok := candidateBucket(g.table, k); ok {
			g.keys = append(g.keys, k)
			g.buckets = append(g.buckets, addr)
		}
	}
	return g
}

// candidateBucket returns the address of the candidate bucket (H1 or
// H2) holding key — the only places a LookupSeq chain probes.
func candidateBucket(t *hopscotch.Table, key uint64) (addr uint64, ok bool) {
	for fn := 0; fn < 2; fn++ {
		b := t.Hash(key, fn)
		if got, _, _, ok := t.EntryAt(b); ok && got == key {
			return t.BucketAddr(b), true
		}
	}
	return 0, false
}

// connect makes one trigger connection plus a managed response QP per
// slot, the shape core's pools expect (as redn.Client wires them).
func (g *coreRig) connect() (cliQP, srvQP *rnic.QP, resp []*rnic.QP) {
	cliQP, srvQP = g.clu.Connect(g.cli, g.srv,
		rnic.QPConfig{SQDepth: 1024, RQDepth: 8},
		rnic.QPConfig{SQDepth: 64, RQDepth: 2048, Managed: true})
	srvQP.RecvCQ().SetAutoDrain(true)
	srvQP.SendCQ().SetAutoDrain(true)
	resp = make([]*rnic.QP, ladderDepth)
	for i := range resp {
		_, resp[i] = g.clu.Connect(g.cli, g.srv,
			rnic.QPConfig{SQDepth: 8, RQDepth: 8},
			rnic.QPConfig{SQDepth: 16, RQDepth: 8, Managed: true, PU: -1})
		resp[i].SendCQ().SetAutoDrain(true)
	}
	return cliQP, srvQP, resp
}

// putCore emits one op's core-rung metrics.
func putCore(m *metricSet, op string, c rungCost, wrs float64) {
	m.put("core.ladder_"+op+"_ns", c.ns)
	m.put("core.ladder_"+op+"_events", c.events)
	m.put("core.ladder_"+op+"_allocs", c.allocs)
	m.put("core.ladder_"+op+"_wrs", wrs)
}

// ladderCore is the chain-program rung: armed LookupPool and SetPool
// contexts triggered straight on their trigger QP and re-armed from
// each completion, with no client pipeline above them. It returns the
// deepest event queue it saw, for the sim rung.
func ladderCore(m *metricSet, s ladderScale) (pendingMax int) {
	gets, sets := s.ops(10000), s.ops(5000)
	g := newCoreRig()
	eng := g.clu.Eng
	drain := func() {
		for eng.Pending() > 0 {
			eng.RunUntil(eng.Now() + 10*1000)
			if p := eng.Pending(); p > pendingMax {
				pendingMax = p
			}
		}
	}
	var armNs time.Duration
	next := 0
	pick := func() int { next++; return next % len(g.keys) }

	// ---- get: 7 data + 11 sync WRs per LookupSeq instance ----
	cliQP, srvQP, resp := g.connect()
	pool := core.NewLookupPool(g.builder, srvQP, resp, nil, g.table, core.LookupSeq)
	trig := make([]uint64, ladderDepth)
	buf := make([]uint64, ladderDepth)
	free := make([]int, 0, ladderDepth)
	for i := 0; i < ladderDepth; i++ {
		trig[i], buf[i] = g.cli.Mem.Alloc(128, 8), g.cli.Mem.Alloc(valLen, 64)
		free = append(free, i)
	}
	hits := 0
	loop := &closedLoop{n: gets}
	loop.start = func() {
		slot := free[len(free)-1]
		free = free[:len(free)-1]
		ctx := pool.Ctxs[slot]
		t0 := time.Now()
		ctx.Arm()
		armNs += time.Since(t0)
		payload := ctx.TriggerPayload(g.keys[pick()], valLen, buf[slot])
		if err := g.cli.Mem.Write(trig[slot], payload); err != nil {
			panic(err)
		}
		cliQP.PostSend(wqe.WQE{Op: wqe.OpSend, Src: trig[slot], Len: uint64(len(payload))})
		cliQP.RingSQ()
	}
	for i := range resp {
		slot, seen := i, 0
		// A LookupSeq instance completes two response WQEs, one per probed
		// bucket; the one that found the key executes as a WRITE.
		resp[i].SendCQ().OnDeliver(func(e rnic.CQE) {
			if e.Op == wqe.OpWrite {
				hits++
			}
			if seen++; seen%2 == 0 {
				free = append(free, slot)
				loop.done()
			}
		})
	}
	wr0 := puGrants(g.srv, g.cli)
	c := measureRung(gets, eng.Executed, func() { loop.run(ladderDepth, drain) })
	if hits != gets {
		panic("bench: core rung: a get missed a resident key")
	}
	putCore(m, "get", c, float64(puGrants(g.srv, g.cli)-wr0)/float64(gets))
	getArm := armNs

	// ---- set: overwrite claims (NOOP|key -> NOOP|key), 8 data + 14 sync WRs ----
	cliQP, srvQP, resp = g.connect()
	spool := core.NewSetPool(g.builder, srvQP, resp, valLen, g.arena)
	val := make([]uint64, ladderDepth)
	ack := make([]uint64, ladderDepth)
	keyOf := make([]int, ladderDepth)
	staged := make([]uint64, ladderDepth)
	for i := 0; i < ladderDepth; i++ {
		val[i], ack[i] = g.cli.Mem.Alloc(valLen, 64), g.cli.Mem.Alloc(8, 8)
	}
	free = free[:ladderDepth]
	installed := make(map[int]uint64) // key index -> extent a set of this rung installed
	busy := make(map[int]bool)        // one set per key at a time, as the service serializes them
	acks := 0
	payloadBuf := make([]byte, valLen)
	loop = &closedLoop{n: sets}
	loop.start = func() {
		slot := free[len(free)-1]
		free = free[:len(free)-1]
		ki := pick()
		for busy[ki] {
			ki = pick()
		}
		busy[ki], keyOf[slot] = true, ki
		key := g.keys[ki]
		ctx := spool.Ctxs[slot]
		t0 := time.Now()
		staged[slot] = ctx.Arm(key)
		armNs += time.Since(t0)
		encodeValue(payloadBuf, key, uint64(loop.issued)+1)
		kc := core.ClaimCtrl(key)
		payload := ctx.TriggerPayload(key, core.SetClaim{BucketAddr: g.buckets[ki], Expect: kc, New: kc},
			valLen, uint64(loop.issued)+1, ack[slot])
		if err := g.cli.Mem.Write(val[slot], payloadBuf); err != nil {
			panic(err)
		}
		if err := g.cli.Mem.Write(trig[slot], payload); err != nil {
			panic(err)
		}
		cliQP.PostSend(wqe.WQE{Op: wqe.OpWrite, Src: val[slot], Dst: staged[slot], Len: valLen})
		cliQP.PostSend(wqe.WQE{Op: wqe.OpSend, Src: trig[slot], Len: uint64(len(payload))})
		cliQP.RingSQ()
	}
	for i := range resp {
		slot := i
		resp[i].SendCQ().OnDeliver(func(e rnic.CQE) {
			ki := keyOf[slot]
			if e.Op == wqe.OpWrite {
				acks++
				// The bucket points at this set's staging extent now; retire
				// the one an earlier set of this rung left there.
				if old, ok := installed[ki]; ok {
					if err := g.arena.Free(old); err != nil {
						panic(err)
					}
				}
				installed[ki] = staged[slot]
			}
			busy[ki] = false
			free = append(free, slot)
			loop.done()
		})
	}
	armNs = 0
	wr0 = puGrants(g.srv, g.cli)
	c = measureRung(sets, eng.Executed, func() { loop.run(ladderDepth, drain) })
	if acks != sets {
		panic("bench: core rung: a set's claim was refused")
	}
	putCore(m, "set", c, float64(puGrants(g.srv, g.cli)-wr0)/float64(sets))
	m.put("core.ladder_arm_ns", float64((getArm+armNs).Nanoseconds())/float64(gets+sets))
	return pendingMax
}
