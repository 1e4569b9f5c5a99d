package rnic

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/wqe"
)

// testPair creates two nodes connected back-to-back as in the paper's
// testbed, returning client and server devices and a connected QP pair.
func testPair(t testing.TB) (eng *sim.Engine, cli, srv *Device, cq, sq *QP) {
	t.Helper()
	eng = sim.NewEngine()
	cliMem := mem.New(1 << 22)
	srvMem := mem.New(1 << 22)
	prof := ConnectX5()
	cli = New(eng, cliMem, prof, 1)
	srv = New(eng, srvMem, prof, 1)
	cq = cli.NewQP(QPConfig{SQDepth: 256, RQDepth: 256})
	sq = srv.NewQP(QPConfig{SQDepth: 256, RQDepth: 256})
	cq.Connect(sq, prof.OneWay)
	return
}

func runAndLastCQE(t testing.TB, eng *sim.Engine, c *CQ) CQE {
	t.Helper()
	eng.Run()
	es := c.Poll(1 << 20)
	if len(es) == 0 {
		t.Fatal("no completion delivered")
	}
	return es[len(es)-1]
}

func TestNoopLatency(t *testing.T) {
	// Fig 8: a single posted NOOP completes in ~1.21us (doorbell +
	// fetch + execution + CQE delivery).
	eng, _, _, qp, _ := testPair(t)
	qp.PostSend(wqe.WQE{Op: wqe.OpNoop, Flags: wqe.FlagSignaled})
	qp.RingSQ()
	e := runAndLastCQE(t, eng, qp.SendCQ())
	if e.At < 1050 || e.At > 1400 {
		t.Fatalf("NOOP latency %v, want ~1.21us", e.At)
	}
}

func TestNetworkDeltaRemoteVsLocalWrite(t *testing.T) {
	// Fig 7: the remote-vs-local-loopback delta estimates the network
	// cost at ~0.25us for back-to-back nodes (one-way wire + ack).
	eng, cli, srv, qp, _ := testPair(t)
	src := cli.Mem().Alloc(64, 8)
	dst := srv.Mem().Alloc(64, 8)
	qp.PostSend(wqe.WQE{Op: wqe.OpWrite, Src: src, Dst: dst, Len: 64, Flags: wqe.FlagSignaled})
	qp.RingSQ()
	remote := runAndLastCQE(t, eng, qp.SendCQ()).At

	eng2 := sim.NewEngine()
	dev := New(eng2, mem.New(1<<20), ConnectX5(), 1)
	lb := dev.NewLoopbackQP(QPConfig{})
	lsrc := dev.Mem().Alloc(64, 8)
	ldst := dev.Mem().Alloc(64, 8)
	lb.PostSend(wqe.WQE{Op: wqe.OpWrite, Src: lsrc, Dst: ldst, Len: 64, Flags: wqe.FlagSignaled})
	lb.RingSQ()
	local := runAndLastCQE(t, eng2, lb.SendCQ()).At

	delta := remote - local
	if delta < 180 || delta > 350 {
		t.Fatalf("network delta %v, want ~0.25us (remote %v local %v)", delta, remote, local)
	}
}

func TestWriteLatency(t *testing.T) {
	// Fig 7: 64B remote WRITE ~1.6us.
	eng, cli, srv, qp, _ := testPair(t)
	src := cli.Mem().Alloc(64, 8)
	dst := srv.Mem().Alloc(64, 8)
	cli.Mem().Write(src, []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"))
	qp.PostSend(wqe.WQE{Op: wqe.OpWrite, Src: src, Dst: dst, Len: 64, Flags: wqe.FlagSignaled})
	qp.RingSQ()
	e := runAndLastCQE(t, eng, qp.SendCQ())
	if e.At < 1350 || e.At > 1900 {
		t.Fatalf("WRITE latency %v, want ~1.6us", e.At)
	}
	got, _ := srv.Mem().Read(dst, 16)
	if string(got) != "0123456789abcdef" {
		t.Fatalf("payload not written: %q", got)
	}
}

func TestReadLatencyAndData(t *testing.T) {
	// Fig 7: 64B remote READ ~1.8us.
	eng, cli, srv, qp, _ := testPair(t)
	src := srv.Mem().Alloc(64, 8)
	dst := cli.Mem().Alloc(64, 8)
	srv.Mem().PutU64(src, 0xfeedface)
	qp.PostSend(wqe.WQE{Op: wqe.OpRead, Src: src, Dst: dst, Len: 8, Flags: wqe.FlagSignaled})
	qp.RingSQ()
	e := runAndLastCQE(t, eng, qp.SendCQ())
	if e.At < 1550 || e.At > 2150 {
		t.Fatalf("READ latency %v, want ~1.8us", e.At)
	}
	if v, _ := cli.Mem().U64(dst); v != 0xfeedface {
		t.Fatalf("read data %#x", v)
	}
}

func TestCASLatencyAndSemantics(t *testing.T) {
	// Fig 7: remote CAS ~1.8us; old value lands in the result buffer.
	eng, cli, srv, qp, _ := testPair(t)
	target := srv.Mem().Alloc(8, 8)
	result := cli.Mem().Alloc(8, 8)
	srv.Mem().PutU64(target, 5)
	qp.PostSend(wqe.WQE{Op: wqe.OpCAS, Src: result, Dst: target, Cmp: 5, Swap: 11, Flags: wqe.FlagSignaled})
	qp.RingSQ()
	e := runAndLastCQE(t, eng, qp.SendCQ())
	if e.At < 1550 || e.At > 2400 {
		t.Fatalf("CAS latency %v, want ~1.8us", e.At)
	}
	if v, _ := srv.Mem().U64(target); v != 11 {
		t.Fatalf("CAS did not swap: %d", v)
	}
	if v, _ := cli.Mem().U64(result); v != 5 {
		t.Fatalf("old value %d, want 5", v)
	}
}

func TestAddMaxMinVerbs(t *testing.T) {
	eng, _, srv, qp, _ := testPair(t)
	target := srv.Mem().Alloc(8, 8)
	srv.Mem().PutU64(target, 10)
	qp.PostSend(wqe.WQE{Op: wqe.OpAdd, Dst: target, Cmp: 7, Flags: wqe.FlagSignaled})
	qp.PostSend(wqe.WQE{Op: wqe.OpMax, Dst: target, Cmp: 100, Flags: wqe.FlagSignaled})
	qp.PostSend(wqe.WQE{Op: wqe.OpMin, Dst: target, Cmp: 42, Flags: wqe.FlagSignaled})
	qp.RingSQ()
	eng.Run()
	if got := len(qp.SendCQ().Poll(10)); got != 3 {
		t.Fatalf("completions %d, want 3", got)
	}
	if v, _ := srv.Mem().U64(target); v != 42 {
		t.Fatalf("final value %d, want min(max(10+7,100),42)=42", v)
	}
}

func TestInlineWrite(t *testing.T) {
	eng, _, srv, qp, _ := testPair(t)
	dst := srv.Mem().Alloc(8, 8)
	qp.PostSend(wqe.WQE{Op: wqe.OpWrite, Dst: dst, Len: 8, Cmp: 0xabcdef,
		Flags: wqe.FlagSignaled | wqe.FlagInline})
	qp.RingSQ()
	runAndLastCQE(t, eng, qp.SendCQ())
	if v, _ := srv.Mem().U64(dst); v != 0xabcdef {
		t.Fatalf("inline write value %#x", v)
	}
}

func TestChainLatencySlopeWQOrder(t *testing.T) {
	// Fig 8 WQ order: ~0.17us per additional verb after ~1.21us.
	lat := func(n int) sim.Time {
		eng, _, _, qp, _ := testPair(t)
		for i := 0; i < n; i++ {
			fl := wqe.Flags(0)
			if i == n-1 {
				fl = wqe.FlagSignaled
			}
			qp.PostSend(wqe.WQE{Op: wqe.OpNoop, Flags: fl})
		}
		qp.RingSQ()
		return runAndLastCQE(t, eng, qp.SendCQ()).At
	}
	l1, l10 := lat(1), lat(10)
	slope := float64(l10-l1) / 9
	if slope < 140 || slope > 210 {
		t.Fatalf("WQ-order slope %.0f ns/WR, want ~170 (l1=%v l10=%v)", slope, l1, l10)
	}
}

func TestSendRecvScatter(t *testing.T) {
	eng, cli, srv, qp, sqp := testPair(t)
	// Server posts a RECV scattering across two destinations.
	d1 := srv.Mem().Alloc(8, 8)
	d2 := srv.Mem().Alloc(8, 8)
	slist := srv.Mem().Alloc(wqe.ScatterEntrySize*2, 8)
	raw := make([]byte, wqe.ScatterEntrySize*2)
	wqe.EncodeScatter(raw, []wqe.ScatterEntry{{Addr: d1, Len: 8}, {Addr: d2, Len: 8}})
	srv.Mem().Write(slist, raw)
	sqp.PostRecv(7, slist, 2, true, nil)

	// Client sends 16 bytes.
	src := cli.Mem().Alloc(16, 8)
	cli.Mem().PutU64(src, 0x1111)
	cli.Mem().PutU64(src+8, 0x2222)
	qp.PostSend(wqe.WQE{Op: wqe.OpSend, Src: src, Len: 16, Flags: wqe.FlagSignaled})
	qp.RingSQ()
	eng.Run()

	if v, _ := srv.Mem().U64(d1); v != 0x1111 {
		t.Fatalf("scatter 1: %#x", v)
	}
	if v, _ := srv.Mem().U64(d2); v != 0x2222 {
		t.Fatalf("scatter 2: %#x", v)
	}
	recvEs := sqp.RecvCQ().Poll(10)
	if len(recvEs) != 1 || recvEs[0].WRID != 7 || recvEs[0].Len != 16 {
		t.Fatalf("recv CQE %+v", recvEs)
	}
	if len(qp.SendCQ().Poll(10)) != 1 {
		t.Fatal("send completion missing")
	}
}

func TestSendBeforeRecvQueues(t *testing.T) {
	eng, cli, srv, qp, sqp := testPair(t)
	src := cli.Mem().Alloc(8, 8)
	cli.Mem().PutU64(src, 0x42)
	qp.PostSend(wqe.WQE{Op: wqe.OpSend, Src: src, Len: 8, Flags: wqe.FlagSignaled})
	qp.RingSQ()
	eng.Run() // message waits: no RECV posted

	dst := srv.Mem().Alloc(8, 8)
	slist := srv.Mem().Alloc(wqe.ScatterEntrySize, 8)
	raw := make([]byte, wqe.ScatterEntrySize)
	wqe.EncodeScatter(raw, []wqe.ScatterEntry{{Addr: dst, Len: 8}})
	srv.Mem().Write(slist, raw)
	sqp.PostRecv(1, slist, 1, true, nil)
	eng.Run()
	if v, _ := srv.Mem().U64(dst); v != 0x42 {
		t.Fatalf("queued send not delivered: %#x", v)
	}
}

func TestWaitEnableChain(t *testing.T) {
	// A WAIT gates execution on a CQ count; an ENABLE raises a managed
	// queue's fetch limit. Together: the doorbell-ordering primitive.
	eng := sim.NewEngine()
	dev := New(eng, mem.New(1<<20), ConnectX5(), 1)
	worker := dev.NewLoopbackQP(QPConfig{Managed: true})
	ctrl := dev.NewLoopbackQP(QPConfig{})
	flag := dev.Mem().Alloc(8, 8)

	// Managed worker holds an inline WRITE; it must not run until enabled.
	worker.PostSend(wqe.WQE{Op: wqe.OpWrite, Dst: flag, Len: 8, Cmp: 77,
		Flags: wqe.FlagSignaled | wqe.FlagInline})

	// Control queue: NOOP (signaled), then the chain WAIT(ctrl.scq>=1)
	// -> ENABLE(worker, 1).
	ctrl.PostSend(wqe.WQE{Op: wqe.OpNoop, Flags: wqe.FlagSignaled})
	ctrl.PostSend(wqe.WQE{Op: wqe.OpWait, Peer: ctrl.SendCQ().CQN(), Count: 1})
	ctrl.PostSend(wqe.WQE{Op: wqe.OpEnable, Peer: worker.QPN(), Count: 1})
	ctrl.RingSQ()
	eng.Run()

	if v, _ := dev.Mem().U64(flag); v != 77 {
		t.Fatalf("enabled WRITE did not run: %d", v)
	}
	if worker.SQ().Executed() != 1 {
		t.Fatalf("worker executed %d WQEs", worker.SQ().Executed())
	}
}

func TestManagedQueueDoesNotRunWithoutEnable(t *testing.T) {
	eng := sim.NewEngine()
	dev := New(eng, mem.New(1<<20), ConnectX5(), 1)
	worker := dev.NewLoopbackQP(QPConfig{Managed: true})
	flag := dev.Mem().Alloc(8, 8)
	worker.PostSend(wqe.WQE{Op: wqe.OpWrite, Dst: flag, Len: 8, Cmp: 1,
		Flags: wqe.FlagSignaled | wqe.FlagInline})
	worker.RingSQ() // doorbell alone must not start a managed queue
	eng.Run()
	if v, _ := dev.Mem().U64(flag); v != 0 {
		t.Fatal("managed WQE ran without ENABLE")
	}
	worker.EnableSQFromHost(1)
	eng.Run()
	if v, _ := dev.Mem().U64(flag); v != 1 {
		t.Fatal("host enable did not run the WQE")
	}
}

func TestPrefetchIncoherence(t *testing.T) {
	// §3.1: unmanaged queues snapshot WQEs at prefetch time; an RDMA
	// write racing with prefetch is NOT observed. This is the hazard
	// that forces RedN onto managed queues.
	eng := sim.NewEngine()
	dev := New(eng, mem.New(1<<20), ConnectX5(), 1)
	victim := dev.NewLoopbackQP(QPConfig{}) // unmanaged: prefetches
	flag := dev.Mem().Alloc(8, 8)

	// Two WQEs: a NOOP then an inline WRITE of 1. Both prefetched at
	// doorbell in one window.
	victim.PostSend(wqe.WQE{Op: wqe.OpNoop})
	idx := victim.PostSend(wqe.WQE{Op: wqe.OpWrite, Dst: flag, Len: 8, Cmp: 1,
		Flags: wqe.FlagSignaled | wqe.FlagInline})
	victim.RingSQ()

	// Just after the doorbell (prefetch already snapshotted), the host
	// rewrites the second WQE's payload to 2.
	eng.At(dev.Profile().Doorbell+1, func() {
		addr := victim.SQSlotAddr(idx) + wqe.OffCmp
		dev.Mem().PutU64(addr, 2)
	})
	eng.Run()
	if v, _ := dev.Mem().U64(flag); v != 1 {
		t.Fatalf("flag=%d: prefetched snapshot should have executed stale value 1", v)
	}

	// Same race on a managed queue: the fetch happens at ENABLE time,
	// so the modification IS observed.
	managed := dev.NewLoopbackQP(QPConfig{Managed: true})
	flag2 := dev.Mem().Alloc(8, 8)
	midx := managed.PostSend(wqe.WQE{Op: wqe.OpWrite, Dst: flag2, Len: 8, Cmp: 1,
		Flags: wqe.FlagSignaled | wqe.FlagInline})
	dev.Mem().PutU64(managed.SQSlotAddr(midx)+wqe.OffCmp, 2)
	managed.EnableSQFromHost(1)
	eng.Run()
	if v, _ := dev.Mem().U64(flag2); v != 2 {
		t.Fatalf("flag2=%d: managed fetch should observe the modification", v)
	}
}

func TestSelfModifyingCASConditional(t *testing.T) {
	// Fig 4 end to end on one device: CAS flips a NOOP to a WRITE iff
	// the 48-bit operands match.
	run := func(x, y uint64) uint64 {
		eng := sim.NewEngine()
		dev := New(eng, mem.New(1<<20), ConnectX5(), 1)
		atomics := dev.NewLoopbackQP(QPConfig{})             // executes the CAS
		target := dev.NewLoopbackQP(QPConfig{Managed: true}) // holds R2
		ctrl := dev.NewLoopbackQP(QPConfig{})
		out := dev.Mem().Alloc(8, 8)

		// R2: NOOP with id=x; if flipped to WRITE it writes 1 to out.
		r2 := target.PostSend(wqe.WQE{Op: wqe.OpNoop, ID: x, Dst: out, Len: 8, Cmp: 1,
			Flags: wqe.FlagSignaled | wqe.FlagInline})
		r2ctrl := target.SQSlotAddr(r2) + wqe.OffCtrl

		// R1: CAS(old = NOOP|y, new = WRITE|y) on R2's ctrl word.
		atomics.PostSend(wqe.WQE{Op: wqe.OpCAS, Dst: r2ctrl,
			Cmp:   wqe.MakeCtrl(wqe.OpNoop, y),
			Swap:  wqe.MakeCtrl(wqe.OpWrite, y),
			Flags: wqe.FlagSignaled})
		atomics.RingSQ()

		// Doorbell ordering: enable R2 only after the CAS completes.
		ctrl.PostSend(wqe.WQE{Op: wqe.OpWait, Peer: atomics.SendCQ().CQN(), Count: 1})
		ctrl.PostSend(wqe.WQE{Op: wqe.OpEnable, Peer: target.QPN(), Count: 1})
		ctrl.RingSQ()
		eng.Run()
		v, _ := dev.Mem().U64(out)
		return v
	}
	if got := run(5, 5); got != 1 {
		t.Fatalf("x==y: out=%d, want 1", got)
	}
	if got := run(5, 6); got != 0 {
		t.Fatalf("x!=y: out=%d, want 0 (NOOP untouched)", got)
	}
}

func TestWQRecycling(t *testing.T) {
	// §3.4: ENABLE with a count beyond the producer index re-executes
	// ring contents without any host involvement.
	eng := sim.NewEngine()
	dev := New(eng, mem.New(1<<20), ConnectX5(), 1)
	loop := dev.NewLoopbackQP(QPConfig{Managed: true, SQDepth: 1})
	counter := dev.Mem().Alloc(8, 8)
	loop.PostSend(wqe.WQE{Op: wqe.OpAdd, Dst: counter, Cmp: 1, Flags: wqe.FlagSignaled})
	// Enable 10 executions of a 1-WQE ring: the same ADD runs 10 times.
	loop.EnableSQFromHost(10)
	eng.Run()
	if v, _ := dev.Mem().U64(counter); v != 10 {
		t.Fatalf("counter=%d, want 10 recycled executions", v)
	}
}

func TestRateLimiter(t *testing.T) {
	// §3.5 isolation: a WQ rate limiter bounds even runaway offloads.
	eng := sim.NewEngine()
	dev := New(eng, mem.New(1<<20), ConnectX5(), 1)
	qp := dev.NewLoopbackQP(QPConfig{SQDepth: 2048})
	qp.SetRateLimiter(1e6, 1) // 1M ops/s
	n := 1000
	for i := 0; i < n; i++ {
		fl := wqe.Flags(0)
		if i == n-1 {
			fl = wqe.FlagSignaled
		}
		qp.PostSend(wqe.WQE{Op: wqe.OpNoop, Flags: fl})
	}
	qp.RingSQ()
	e := runAndLastCQE(t, eng, qp.SendCQ())
	// 1000 ops at 1M/s should take ~1ms, far above the unlimited ~170us.
	if e.At < 900*sim.Microsecond {
		t.Fatalf("finished at %v: limiter not applied", e.At)
	}
}

func TestErrorCompletionFreezesQueue(t *testing.T) {
	eng, _, _, qp, _ := testPair(t)
	// WRITE to address 0 on the remote: remote access error.
	qp.PostSend(wqe.WQE{Op: wqe.OpWrite, Dst: 0, Src: 0x1000, Len: 8, Flags: wqe.FlagSignaled})
	qp.PostSend(wqe.WQE{Op: wqe.OpNoop, Flags: wqe.FlagSignaled})
	qp.RingSQ()
	eng.Run()
	es := qp.SendCQ().Poll(10)
	var sawErr bool
	for _, e := range es {
		if e.Status != StatusOK {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatalf("no error CQE among %d completions", len(es))
	}
	if !qp.SQ().Errored() {
		t.Fatal("queue should freeze after error")
	}
}

func TestFreezeStopsExecution(t *testing.T) {
	eng := sim.NewEngine()
	dev := New(eng, mem.New(1<<20), ConnectX5(), 1)
	qp := dev.NewLoopbackQP(QPConfig{})
	flag := dev.Mem().Alloc(8, 8)
	dev.Freeze()
	qp.PostSend(wqe.WQE{Op: wqe.OpWrite, Dst: flag, Len: 8, Cmp: 9,
		Flags: wqe.FlagSignaled | wqe.FlagInline})
	qp.RingSQ()
	eng.Run()
	if v, _ := dev.Mem().U64(flag); v != 0 {
		t.Fatal("frozen device executed work")
	}
}

func TestThroughputWriteFlood(t *testing.T) {
	// Table 3: ~63M 64B WRITEs/s on one ConnectX-5 port (8 PUs).
	eng := sim.NewEngine()
	dev := New(eng, mem.New(1<<22), ConnectX5(), 1)
	per := 2000
	nqp := 8
	var qps []*QP
	src := dev.Mem().Alloc(64, 8)
	dst := dev.Mem().Alloc(64, 8)
	for i := 0; i < nqp; i++ {
		qp := dev.NewLoopbackQP(QPConfig{SQDepth: per + 1, PU: i})
		for j := 0; j < per; j++ {
			fl := wqe.Flags(0)
			if j == per-1 {
				fl = wqe.FlagSignaled
			}
			qp.PostSend(wqe.WQE{Op: wqe.OpWrite, Src: src, Dst: dst, Len: 64, Flags: fl})
		}
		qp.RingSQ()
		qps = append(qps, qp)
	}
	eng.Run()
	total := float64(nqp*per) / eng.Now().Seconds()
	if total < 40e6 || total > 80e6 {
		t.Fatalf("WRITE throughput %.1fM/s, want ~63M/s", total/1e6)
	}
	_ = qps
}

func TestThroughputCAS(t *testing.T) {
	// Table 3: ~8.4M CAS/s per port.
	eng := sim.NewEngine()
	dev := New(eng, mem.New(1<<22), ConnectX5(), 1)
	per := 1000
	target := dev.Mem().Alloc(8, 8)
	for i := 0; i < 8; i++ {
		qp := dev.NewLoopbackQP(QPConfig{SQDepth: per + 1, PU: i})
		for j := 0; j < per; j++ {
			fl := wqe.Flags(0)
			if j == per-1 {
				fl = wqe.FlagSignaled
			}
			qp.PostSend(wqe.WQE{Op: wqe.OpCAS, Dst: target, Cmp: 0, Swap: 0, Flags: fl})
		}
		qp.RingSQ()
	}
	eng.Run()
	total := float64(8*per) / eng.Now().Seconds()
	if total < 5e6 || total > 12e6 {
		t.Fatalf("CAS throughput %.1fM/s, want ~8.4M/s", total/1e6)
	}
}

func TestGenerationScaling(t *testing.T) {
	// Table 1: verb rate roughly doubles per generation.
	rate := func(p Profile) float64 {
		eng := sim.NewEngine()
		dev := New(eng, mem.New(1<<22), p, 1)
		per := 1000
		src := dev.Mem().Alloc(64, 8)
		dst := dev.Mem().Alloc(64, 8)
		for i := 0; i < p.PUsPerPort; i++ {
			qp := dev.NewLoopbackQP(QPConfig{SQDepth: per + 1, PU: i})
			for j := 0; j < per; j++ {
				qp.PostSend(wqe.WQE{Op: wqe.OpWrite, Src: src, Dst: dst, Len: 64})
			}
			qp.RingSQ()
		}
		eng.Run()
		return float64(p.PUsPerPort*per) / eng.Now().Seconds()
	}
	r3, r5, r6 := rate(ConnectX3()), rate(ConnectX5()), rate(ConnectX6())
	if !(r3 < r5 && r5 < r6) {
		t.Fatalf("scaling broken: %f %f %f", r3, r5, r6)
	}
	if ratio := r5 / r3; ratio < 3 || ratio > 6 {
		t.Fatalf("CX3->CX5 ratio %.1f, want ~4.2x", ratio)
	}
}

func TestUtilizationReport(t *testing.T) {
	eng := sim.NewEngine()
	dev := New(eng, mem.New(1<<20), ConnectX5(), 2)
	qp := dev.NewLoopbackQP(QPConfig{})
	qp.PostSend(wqe.WQE{Op: wqe.OpNoop, Flags: wqe.FlagSignaled})
	qp.RingSQ()
	eng.Run()
	u := dev.Utilization(eng.Now())
	if _, ok := u["pu"]; !ok {
		t.Fatal("missing pu utilization")
	}
	if _, ok := u["port1/fetch"]; !ok {
		t.Fatal("missing second port")
	}
}
