package rnic

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/wqe"
)

func TestScatterReadSplitsResponse(t *testing.T) {
	// Multi-SGE READ responses (Fig 12's R2): one fetch feeds two
	// destinations.
	eng := sim.NewEngine()
	dev := New(eng, mem.New(1<<20), ConnectX5(), 1)
	qp := dev.NewLoopbackQP(QPConfig{})
	m := dev.Mem()
	src := m.Alloc(24, 8)
	m.PutU64(src, 0x11)
	m.PutU64(src+8, 0x22)
	m.PutU64(src+16, 0x33)
	d1 := m.Alloc(16, 8)
	d2 := m.Alloc(8, 8)
	slist := m.Alloc(2*wqe.ScatterEntrySize, 8)
	raw := make([]byte, 2*wqe.ScatterEntrySize)
	wqe.EncodeScatter(raw, []wqe.ScatterEntry{{Addr: d1, Len: 16}, {Addr: d2, Len: 8}})
	m.Write(slist, raw)

	qp.PostSend(wqe.WQE{Op: wqe.OpRead, Src: src, Dst: slist, Len: 24, Count: 2,
		Flags: wqe.FlagSignaled | wqe.FlagScatterDst})
	qp.RingSQ()
	eng.Run()
	if v, _ := m.U64(d1); v != 0x11 {
		t.Fatalf("scatter part 1: %#x", v)
	}
	if v, _ := m.U64(d1 + 8); v != 0x22 {
		t.Fatalf("scatter part 1b: %#x", v)
	}
	if v, _ := m.U64(d2); v != 0x33 {
		t.Fatalf("scatter part 2: %#x", v)
	}
}

// A gather WRITE (FlagGatherSrc, the mirror of the scatter READ above)
// sends its list's entries in list order, one payload as long as their
// sum, and the requester's PCIe moves exactly those bytes. A nil or
// out-of-memory entry fails the WR and errors the QP.
func TestGatherWriteSendsEntriesInOrder(t *testing.T) {
	eng, cli, srv, qp, _ := testPair(t)
	m := cli.Mem()
	a, b := m.Alloc(24, 8), m.Alloc(8, 8)
	m.Write(a, []byte("abcdefghijklmnopqrstuvwx"))
	m.Write(b, []byte("ABCDEFGH"))
	list := putScatter(m, wqe.ScatterEntry{Addr: b, Len: 8}, wqe.ScatterEntry{Addr: a, Len: 24})
	dst := srv.Mem().Alloc(32, 8)
	busy := cli.PCIe().Busy()
	qp.PostSend(wqe.WQE{Op: wqe.OpWrite, Src: list, Count: 2, Dst: dst, Flags: wqe.FlagSignaled | wqe.FlagGatherSrc})
	qp.RingSQ()
	if e := runAndLastCQE(t, eng, qp.SendCQ()); e.Status != StatusOK {
		t.Fatalf("gather WRITE completed %v", e.Status)
	}
	if got, _ := srv.Mem().Read(dst, 32); string(got) != "ABCDEFGHabcdefghijklmnopqrstuvwx" {
		t.Fatalf("gather WRITE landed %q", got)
	}
	if got, want := cli.PCIe().Busy()-busy, cli.PCIe().Duration(32); got != want {
		t.Fatalf("gather moved %v over the requester's PCIe, want %v (32 B)", got, want)
	}

	for _, bad := range []wqe.ScatterEntry{{Addr: 0, Len: 8}, {Addr: m.Size() - 4, Len: 8}} {
		q := cli.NewQP(QPConfig{})
		q.Connect(srv.NewQP(QPConfig{}), cli.Profile().OneWay)
		bl := putScatter(m, wqe.ScatterEntry{Addr: a, Len: 8}, bad)
		q.PostSend(wqe.WQE{Op: wqe.OpWrite, Src: bl, Count: 2, Dst: dst, Flags: wqe.FlagSignaled | wqe.FlagGatherSrc})
		q.RingSQ()
		eng.Run()
		if es := q.SendCQ().Poll(10); len(es) != 1 || es[0].Status != StatusLocalProtErr || !q.SQ().Errored() {
			t.Fatalf("entry %+v: completions %+v, errored %v; want one local protection error and an errored QP",
				bad, es, q.SQ().Errored())
		}
	}
	runsHome(t, cli)
}

func TestDualPortIndependentResources(t *testing.T) {
	// Two ports double the PU pool: floods on separate ports finish in
	// about the time of one port's flood.
	rate := func(ports int) float64 {
		eng := sim.NewEngine()
		dev := New(eng, mem.New(1<<22), ConnectX5(), ports)
		src := dev.Mem().Alloc(64, 8)
		dst := dev.Mem().Alloc(64, 8)
		per := 1000
		n := 8 * ports
		for i := 0; i < n; i++ {
			qp := dev.NewLoopbackQP(QPConfig{SQDepth: per + 1, Port: i % ports, PU: (i / ports) % 8})
			for j := 0; j < per; j++ {
				qp.PostSend(wqe.WQE{Op: wqe.OpWrite, Src: src, Dst: dst, Len: 64})
			}
			qp.RingSQ()
		}
		eng.Run()
		return float64(n*per) / eng.Now().Seconds()
	}
	r1, r2 := rate(1), rate(2)
	if r2 < 1.5*r1 {
		t.Fatalf("dual port %.1fM vs single %.1fM: ports not independent", r2/1e6, r1/1e6)
	}
}

func TestWaitOnCrossQueueCompletion(t *testing.T) {
	// WAIT gates on another QP's CQ — the cross-channel semantics.
	eng := sim.NewEngine()
	dev := New(eng, mem.New(1<<20), ConnectX5(), 1)
	producer := dev.NewLoopbackQP(QPConfig{})
	consumer := dev.NewLoopbackQP(QPConfig{})
	flag := dev.Mem().Alloc(8, 8)

	consumer.PostSend(wqe.WQE{Op: wqe.OpWait, Peer: producer.SendCQ().CQN(), Count: 3})
	consumer.PostSend(wqe.WQE{Op: wqe.OpWrite, Dst: flag, Len: 8, Cmp: 0xFF,
		Flags: wqe.FlagSignaled | wqe.FlagInline})
	consumer.RingSQ()
	eng.Run()
	if v, _ := dev.Mem().U64(flag); v != 0 {
		t.Fatal("WAIT fired before its target count")
	}
	for i := 0; i < 3; i++ {
		producer.PostSend(wqe.WQE{Op: wqe.OpNoop, Flags: wqe.FlagSignaled})
	}
	producer.RingSQ()
	eng.Run()
	if v, _ := dev.Mem().U64(flag); v != 0xFF {
		t.Fatal("WAIT did not release after 3 completions")
	}
}

func TestRingOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic")
		}
	}()
	eng := sim.NewEngine()
	dev := New(eng, mem.New(1<<20), ConnectX5(), 1)
	qp := dev.NewLoopbackQP(QPConfig{SQDepth: 4, Managed: true})
	for i := 0; i < 5; i++ {
		qp.PostSend(wqe.WQE{Op: wqe.OpNoop})
	}
}

func TestAuditMisbehavingOffloadViaCQE(t *testing.T) {
	// §3.5 isolation: completion events make offloads auditable. A
	// runaway recycled loop posts signaled WQEs; the host observes the
	// event rate and can tear the QP down (here: freeze it).
	eng := sim.NewEngine()
	dev := New(eng, mem.New(1<<20), ConnectX5(), 1)
	loop := dev.NewLoopbackQP(QPConfig{SQDepth: 1, Managed: true})
	counter := dev.Mem().Alloc(8, 8)
	loop.PostSend(wqe.WQE{Op: wqe.OpAdd, Dst: counter, Cmp: 1, Flags: wqe.FlagSignaled})
	loop.EnableSQFromHost(1 << 40) // effectively unbounded

	seen := 0
	loop.SendCQ().OnDeliver(func(CQE) {
		seen++
		if seen == 100 { // audit threshold
			dev.Freeze()
		}
	})
	eng.RunUntil(1 * sim.Second)
	v, _ := dev.Mem().U64(counter)
	if v < 100 || v > 200 {
		t.Fatalf("loop terminated after %d iterations, want ~100 (audited)", v)
	}
}

func TestRateLimitedRunawayLoopIsBounded(t *testing.T) {
	// §3.5: WQ rate limiters bound even non-terminating offload code.
	eng := sim.NewEngine()
	dev := New(eng, mem.New(1<<20), ConnectX5(), 1)
	loop := dev.NewLoopbackQP(QPConfig{SQDepth: 1, Managed: true})
	loop.SetRateLimiter(100_000, 1) // 100K ops/s
	counter := dev.Mem().Alloc(8, 8)
	loop.PostSend(wqe.WQE{Op: wqe.OpAdd, Dst: counter, Cmp: 1, Flags: wqe.FlagSignaled})
	loop.EnableSQFromHost(1 << 40)
	eng.RunUntil(10 * sim.Millisecond)
	v, _ := dev.Mem().U64(counter)
	// 10ms at 100K/s = ~1000 iterations.
	if v < 800 || v > 1200 {
		t.Fatalf("rate-limited loop ran %d iterations in 10ms, want ~1000", v)
	}
}

func TestDeterminism(t *testing.T) {
	// The whole point of the simulator: identical runs.
	run := func() (sim.Time, uint64) {
		eng := sim.NewEngine()
		dev := New(eng, mem.New(1<<20), ConnectX5(), 1)
		qp := dev.NewLoopbackQP(QPConfig{SQDepth: 128})
		dst := dev.Mem().Alloc(8, 8)
		for i := 0; i < 100; i++ {
			qp.PostSend(wqe.WQE{Op: wqe.OpAdd, Dst: dst, Cmp: uint64(i), Flags: wqe.FlagSignaled})
		}
		qp.RingSQ()
		eng.Run()
		v, _ := dev.Mem().U64(dst)
		return eng.Now(), v
	}
	t1, v1 := run()
	t2, v2 := run()
	if t1 != t2 || v1 != v2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", t1, v1, t2, v2)
	}
}

// Property: a chain of ADDs with arbitrary operands sums correctly —
// verb execution preserves arithmetic regardless of timing.
func TestAddChainSumProperty(t *testing.T) {
	f := func(deltas []uint16) bool {
		eng := sim.NewEngine()
		dev := New(eng, mem.New(1<<22), ConnectX5(), 1)
		qp := dev.NewLoopbackQP(QPConfig{SQDepth: len(deltas) + 2})
		dst := dev.Mem().Alloc(8, 8)
		var want uint64
		for _, d := range deltas {
			qp.PostSend(wqe.WQE{Op: wqe.OpAdd, Dst: dst, Cmp: uint64(d)})
			want += uint64(d)
		}
		qp.RingSQ()
		eng.Run()
		got, _ := dev.Mem().U64(dst)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
