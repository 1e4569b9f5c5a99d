package rnic

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/wqe"
)

// runsHome fails unless every run record a device ever made is back on
// its free list — the state a healthy device must reach at quiesce.
func runsHome(t *testing.T, devs ...*Device) {
	t.Helper()
	for _, d := range devs {
		if d.runsMade == 0 {
			t.Fatalf("%s made no run records: the test exercised nothing", d.label)
		}
		if len(d.freeRuns) != d.runsMade {
			t.Fatalf("%s: %d of %d run records back on the free list", d.label, len(d.freeRuns), d.runsMade)
		}
		for _, r := range d.freeRuns {
			if r.next != stageFree {
				t.Fatalf("%s: free list holds a record at stage %v", d.label, r.next)
			}
		}
	}
}

// putScatter allocates a scatter list in m holding entries and returns
// its address.
func putScatter(m *mem.Memory, entries ...wqe.ScatterEntry) uint64 {
	list := make([]byte, len(entries)*wqe.ScatterEntrySize)
	wqe.EncodeScatter(list, entries)
	addr := m.Alloc(uint64(len(list)), 8)
	if err := m.Write(addr, list); err != nil {
		panic(err)
	}
	return addr
}

// postRecvList posts a one-entry RECV on q scattering into dst.
func postRecvList(q *QP, id, dst uint64) {
	q.PostRecv(id, putScatter(q.dev.mem, wqe.ScatterEntry{Addr: dst, Len: 8}), 1, true, nil)
}

func TestRunRecordsReturnAtQuiesce(t *testing.T) {
	eng, cli, srv, qp, sqp := testPair(t)
	cli.SetLabel("cli")
	srv.SetLabel("srv")
	src, dst := cli.Mem().Alloc(64, 8), srv.Mem().Alloc(64, 8)
	slist := putScatter(cli.Mem(), wqe.ScatterEntry{Addr: src, Len: 8}, wqe.ScatterEntry{Addr: src + 8, Len: 8})

	// Every verb, signaled and not, twice over so records are reused.
	for round := 0; round < 2; round++ {
		for _, fl := range []wqe.Flags{0, wqe.FlagSignaled} {
			postRecvList(sqp, 1, dst)
			postRecvList(sqp, 2, dst)
			qp.PostSend(wqe.WQE{Op: wqe.OpNoop, Flags: fl})
			qp.PostSend(wqe.WQE{Op: wqe.OpWrite, Src: src, Dst: dst, Len: 64, Flags: fl})
			qp.PostSend(wqe.WQE{Op: wqe.OpWrite, Dst: dst, Len: 8, Cmp: 7, Flags: fl | wqe.FlagInline})
			qp.PostSend(wqe.WQE{Op: wqe.OpRead, Src: dst, Dst: src, Len: 64, Flags: fl})
			qp.PostSend(wqe.WQE{Op: wqe.OpRead, Src: dst, Dst: slist, Len: 16, Count: 2, Flags: fl | wqe.FlagScatterDst})
			qp.PostSend(wqe.WQE{Op: wqe.OpCAS, Dst: dst, Src: src, Cmp: 7, Swap: 8, Flags: fl})
			qp.PostSend(wqe.WQE{Op: wqe.OpMax, Dst: dst, Cmp: 9, Flags: fl})
			qp.PostSend(wqe.WQE{Op: wqe.OpSend, Src: src, Len: 8, Flags: fl})
			qp.PostSend(wqe.WQE{Op: wqe.OpSend, Len: 8, Cmp: 3, Flags: fl | wqe.FlagInline})
			qp.RingSQ()
			eng.Run()
		}
	}
	// A SEND that waits for its RECV holds its record until acked.
	qp.PostSend(wqe.WQE{Op: wqe.OpSend, Src: src, Len: 8, Flags: wqe.FlagSignaled})
	qp.RingSQ()
	eng.Run()
	if len(cli.freeRuns) != cli.runsMade-1 {
		t.Fatalf("parked SEND: %d of %d records free, want all but one", len(cli.freeRuns), cli.runsMade)
	}
	postRecvList(sqp, 3, dst)
	eng.Run()
	runsHome(t, cli, srv)

	// A WAIT/ENABLE chain over managed and unmanaged loopback queues.
	worker := srv.NewLoopbackQP(QPConfig{Managed: true})
	ctrl := srv.NewLoopbackQP(QPConfig{})
	worker.PostSend(wqe.WQE{Op: wqe.OpWrite, Dst: dst, Len: 8, Cmp: 77, Flags: wqe.FlagSignaled | wqe.FlagInline})
	ctrl.PostSend(wqe.WQE{Op: wqe.OpNoop, Flags: wqe.FlagSignaled})
	ctrl.PostSend(wqe.WQE{Op: wqe.OpWait, Peer: ctrl.SendCQ().CQN(), Count: 1})
	ctrl.PostSend(wqe.WQE{Op: wqe.OpEnable, Peer: worker.QPN(), Count: 1})
	ctrl.RingSQ()
	eng.Run()
	if v, _ := srv.Mem().U64(dst); v != 77 {
		t.Fatalf("enabled WRITE did not run: %d", v)
	}
	runsHome(t, cli, srv)
}

// An errored queue is still a healthy device: the failing WR's record
// comes home through its forced CQE, and nothing behind it takes one.
func TestRunRecordsReturnFromErroredQueues(t *testing.T) {
	eng, cli, srv, _, _ := testPair(t)
	src := cli.Mem().Alloc(8, 8)
	oob := srv.Mem().Size() // past the end of the responder's memory
	for _, bad := range []wqe.WQE{
		{Op: wqe.OpWrite, Src: src, Dst: oob, Len: 8},                 // remote access error at apply
		{Op: wqe.OpRead, Src: oob, Dst: src, Len: 8},                  // remote access error at the responder
		{Op: wqe.OpCAS, Dst: oob},                                     // atomic on bad memory
		{Op: wqe.OpWrite, Src: cli.Mem().Size(), Dst: src, Len: 8},    // local gather error
		{Op: wqe.OpRead, Src: src, Dst: cli.Mem().Size(), Len: 8},     // local scatter error
		{Op: wqe.OpWait, Peer: 1 << 20},                               // no such CQ
		{Op: wqe.OpRecv},                                              // not a send-queue verb
		{Op: wqe.OpRead, Src: src, Flags: wqe.FlagScatterDst, Len: 8}, // nil scatter list
	} {
		q := cli.NewQP(QPConfig{})
		q.Connect(srv.NewQP(QPConfig{}), cli.Profile().OneWay)
		q.PostSend(bad)
		q.PostSend(wqe.WQE{Op: wqe.OpNoop, Flags: wqe.FlagSignaled})
		q.RingSQ()
		eng.Run()
		// Verbs pipeline, so the NOOP may complete beside the error.
		es := q.SendCQ().Poll(10)
		failed := 0
		for _, e := range es {
			if e.Status != StatusOK {
				failed++
			}
		}
		if failed != 1 || !q.SQ().Errored() {
			t.Fatalf("%v: completions %+v, errored=%v; want one error CQE and a frozen queue",
				bad.Op, es, q.SQ().Errored())
		}
	}
	runsHome(t, cli)

	// A managed queue that errors with the next fetch already granted
	// returns the fetched record unexecuted.
	m := cli.NewLoopbackQP(QPConfig{Managed: true})
	m.PostSend(wqe.WQE{Op: wqe.OpWrite, Dst: cli.Mem().Size(), Len: 8, Flags: wqe.FlagInline})
	m.PostSend(wqe.WQE{Op: wqe.OpNoop})
	m.EnableSQFromHost(2)
	eng.Run()
	if !m.SQ().Errored() || m.SQ().Executed() != 1 {
		t.Fatalf("managed queue: errored=%v executed=%d", m.SQ().Errored(), m.SQ().Executed())
	}
	runsHome(t, cli)
}

// Freezing a device mid-chain strands whatever it was running; nothing
// may fire on a released record while it is down or after it is back.
func TestFreezeMidChainStrandsRecordsSafely(t *testing.T) {
	eng, cli, srv, qp, sqp := testPair(t)
	src, dst := cli.Mem().Alloc(8, 8), srv.Mem().Alloc(8, 8)
	cli.Mem().PutU64(src, 0x42)

	// Server chain: RECV -> WAIT -> ENABLE -> managed inline WRITE back.
	worker := srv.NewQP(QPConfig{Managed: true})
	back := cli.NewQP(QPConfig{})
	worker.Connect(back, srv.Profile().OneWay)
	ctrl := srv.NewLoopbackQP(QPConfig{})
	arm := func(n uint64) {
		postRecvList(sqp, n, dst)
		worker.PostSend(wqe.WQE{Op: wqe.OpWrite, Dst: src, Len: 8, Cmp: n, Flags: wqe.FlagSignaled | wqe.FlagInline})
		ctrl.PostSend(wqe.WQE{Op: wqe.OpWait, Peer: sqp.RecvCQ().CQN(), Count: n})
		ctrl.PostSend(wqe.WQE{Op: wqe.OpEnable, Peer: worker.QPN(), Count: n})
		ctrl.RingSQ()
	}
	send := func() {
		qp.PostSend(wqe.WQE{Op: wqe.OpSend, Src: src, Len: 8, Flags: wqe.FlagSignaled})
		qp.RingSQ()
	}

	// Freeze at every instant of the first chain's life in turn.
	arm(1)
	send()
	eng.Run()
	healthy := eng.Now()
	n := uint64(1)
	for at := sim.Time(0); at < healthy; at += 50 * sim.Nanosecond {
		n++
		start := eng.Now()
		arm(n)
		send()
		eng.RunUntil(start + at)
		srv.Freeze()
		eng.RunUntil(start + 2*healthy)
		send() // dropped, or queued behind the frozen chain
		eng.RunUntil(start + 4*healthy)
		srv.Unfreeze()
		eng.Run()
		// Drain whatever the outage left armed or queued, so the next
		// round starts from an idle pair.
		for sqp.pendingArrivals.Len() > 0 {
			n++
			arm(n)
			eng.Run()
		}
		for sqp.rq.consumer < sqp.rq.producer {
			send()
			eng.Run()
		}
	}
	if got := worker.SQ().Executed(); got < n/2 {
		t.Fatalf("only %d of %d chains ran across the freezes", got, n)
	}
}

// A READ at a frozen responder hangs, as a SEND does: the frozen NIC
// drops the request, so the requester sees no completion and its
// destination stays untouched, and the run record goes home. After the
// thaw the same QP reads again.
func TestReadAtFrozenResponderHangs(t *testing.T) {
	eng, cli, srv, qp, _ := testPair(t)
	src, dst := srv.Mem().Alloc(8, 8), cli.Mem().Alloc(8, 8)
	srv.Mem().PutU64(src, 0xfeed)
	read := func() {
		qp.PostSend(wqe.WQE{Op: wqe.OpRead, Src: src, Dst: dst, Len: 8, Flags: wqe.FlagSignaled})
		qp.RingSQ()
		eng.Run()
	}
	srv.Freeze()
	read()
	if v, _ := cli.Mem().U64(dst); v != 0 || qp.SendCQ().Count() != 0 {
		t.Fatalf("a READ of a frozen NIC landed %#x with %d completions, want nothing", v, qp.SendCQ().Count())
	}
	runsHome(t, cli)
	srv.Unfreeze()
	read()
	if v, _ := cli.Mem().U64(dst); v != 0xfeed || qp.SendCQ().Count() != 1 {
		t.Fatalf("after the thaw the READ landed %#x with %d completions, want 0xfeed and 1", v, qp.SendCQ().Count())
	}
	runsHome(t, cli)
}

func TestStageOnReleasedRecordPanics(t *testing.T) {
	mustPanic := func(want string, fn func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q, want one mentioning %q", msg, want)
			}
		}()
		fn()
	}
	dev := New(sim.NewEngine(), mem.New(1<<20), ConnectX5(), 1)
	qp := dev.NewLoopbackQP(QPConfig{})

	r := dev.takeRun(qp, 0)
	r.release()
	mustPanic("expecting free", r.deliver)
	mustPanic("released twice", r.release)

	// Released and taken again: a stale continuation of the old life
	// must not pass for one of the new.
	r2 := dev.takeRun(qp, 1)
	if r2 != r {
		t.Fatal("free list did not hand the record back")
	}
	r2.sched(10, stageIssued)
	mustPanic("stage acked ran on a run record expecting issued", r.acked)
}

func TestRecvRingOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected RQ overflow panic")
		}
	}()
	dev := New(sim.NewEngine(), mem.New(1<<20), ConnectX5(), 1)
	qp := dev.NewQP(QPConfig{RQDepth: 4})
	for i := 0; i < 5; i++ {
		qp.PostRecv(uint64(i), 0, 0, true, nil)
	}
}

// TestQPReset drives connections through resets with work at every
// point of its life: a WRITE and a SEND caught mid-flight neither land
// nor complete; a WAIT parked on a CQ is taken off it; a queue whose
// loop was between two WQEs, past an error, or waiting on a managed
// fetch, resumes on the reset ring without skipping or replaying a WQE; a completion
// already under way still lands, as CQ.Settled says; and the reset
// queues — same QPN, same PU — take twice their depth of fresh work
// without overflowing. Freezing and resetting over and over leaves the
// device's QP table (what Unfreeze walks) the size it was, and every
// run record home.
func TestQPReset(t *testing.T) {
	eng, cli, srv, qp, sqp := testPair(t)
	cli.SetLabel("cli")
	srv.SetLabel("srv")
	src := cli.Mem().Alloc(64, 8)
	dst, rdst := srv.Mem().Alloc(64, 8), srv.Mem().Alloc(8, 8)
	cli.Mem().PutU64(src, 0x5eed)
	ctrl := srv.NewLoopbackQP(QPConfig{})
	qpn, pu := qp.QPN(), qp.pu
	// until steps the engine a nanosecond at a time to the instant cond
	// first holds.
	until := func(what string, cond func() bool) {
		t.Helper()
		for end := eng.Now() + 10*sim.Microsecond; !cond(); eng.RunUntil(eng.Now() + sim.Nanosecond) {
			if eng.Now() > end {
				t.Fatalf("setup: %s never happened", what)
			}
		}
	}
	inFlight := func(d *Device) int { return d.runsMade - len(d.freeRuns) }

	// In flight across the reset: a WRITE and a SEND from the client,
	// and a WAIT on the server for a RECV that will never complete.
	postRecvList(sqp, 1, rdst)
	ctrl.PostSend(wqe.WQE{Op: wqe.OpWait, Peer: sqp.RecvCQ().CQN(), Count: 1})
	ctrl.RingSQ()
	qp.PostSend(wqe.WQE{Op: wqe.OpWrite, Src: src, Dst: dst, Len: 64, Flags: wqe.FlagSignaled})
	qp.PostSend(wqe.WQE{Op: wqe.OpSend, Src: src, Len: 8, Flags: wqe.FlagSignaled})
	qp.RingSQ()
	until("the WRITE and the SEND in flight", func() bool { return inFlight(cli) == 2 })
	if len(sqp.RecvCQ().waiters) != 1 {
		t.Fatal("setup: the WAIT is not parked at the reset")
	}
	for _, q := range []*QP{qp, sqp, ctrl} {
		q.Reset()
	}
	eng.Run()
	if v, _ := srv.Mem().U64(dst); v != 0 {
		t.Fatalf("the WRITE landed across the reset: %#x", v)
	}
	if v, _ := srv.Mem().U64(rdst); v != 0 || sqp.RecvCQ().Count() != 0 {
		t.Fatalf("the SEND landed across the reset: %#x, %d RECVs completed", v, sqp.RecvCQ().Count())
	}
	if n := qp.SendCQ().Pending(); n != 0 || qp.SendCQ().Count() != 0 {
		t.Fatalf("%d completions delivered across the reset", n)
	}
	if len(sqp.RecvCQ().waiters) != 0 || ctrl.sq.active {
		t.Fatal("the parked WAIT still holds its queue")
	}
	if qp.QPN() != qpn || qp.pu != pu {
		t.Fatalf("the reset moved the QP: QPN %d -> %d", qpn, qp.QPN())
	}

	// Reset between two WQEs — the WRITE issued, its queue's advance
	// still ahead — then one fresh NOOP: it runs, once, as WQE 0.
	qp.PostSend(wqe.WQE{Op: wqe.OpWrite, Src: src, Dst: dst, Len: 64})
	qp.RingSQ()
	until("the WRITE issued", func() bool { return inFlight(cli) == 1 })
	qp.Reset()
	qp.PostSend(wqe.WQE{Op: wqe.OpNoop, Flags: wqe.FlagSignaled})
	qp.RingSQ()
	eng.Run()
	if v, _ := srv.Mem().U64(dst); v != 0 || qp.SendCQ().Pending() != 1 || qp.SQ().Consumer() != 1 {
		t.Fatalf("after a reset mid-loop: WRITE landed %#x, %d completions, consumer %d",
			v, qp.SendCQ().Pending(), qp.SQ().Consumer())
	}
	qp.SendCQ().Poll(1)

	// Reset an errored queue whose loop is still running: a WRITE to an
	// address the responder does not have fails while the WRITEs behind
	// it hold the loop. After the reset one fresh NOOP runs exactly once.
	qp.PostSend(wqe.WQE{Op: wqe.OpWrite, Src: src, Dst: 1 << 40, Len: 8})
	for i := 0; i < 64; i++ {
		qp.PostSend(wqe.WQE{Op: wqe.OpWrite, Src: src, Dst: dst + 8, Len: 8})
	}
	qp.RingSQ()
	until("the WRITE's failure", func() bool { return qp.SQ().Errored() })
	qp.Reset()
	qp.PostSend(wqe.WQE{Op: wqe.OpNoop, Flags: wqe.FlagSignaled})
	qp.RingSQ()
	eng.Run()
	if n := qp.SendCQ().Pending(); n != 1 || qp.SQ().Consumer() != 1 {
		t.Fatalf("after resetting an errored queue: %d completions, consumer %d", n, qp.SQ().Consumer())
	}
	qp.SendCQ().Poll(1)

	// Reset while a managed fetch holds the loop: the fetched WQE is gone
	// and the next ENABLE runs the fresh one.
	m := srv.NewLoopbackQP(QPConfig{Managed: true})
	mdst := srv.Mem().Alloc(8, 8)
	m.PostSend(wqe.WQE{Op: wqe.OpWrite, Dst: mdst, Len: 8, Cmp: 1, Flags: wqe.FlagInline})
	m.EnableSQFromHost(1)
	busy := inFlight(srv)
	until("the managed fetch", func() bool { return inFlight(srv) > busy })
	m.Reset()
	eng.Run()
	if v, _ := srv.Mem().U64(mdst); v != 0 || m.sq.active {
		t.Fatalf("the fetched WRITE ran across the reset (%#x) or holds the loop", v)
	}
	m.PostSend(wqe.WQE{Op: wqe.OpWrite, Dst: mdst, Len: 8, Cmp: 2, Flags: wqe.FlagInline})
	m.EnableSQFromHost(1)
	eng.Run()
	if v, _ := srv.Mem().U64(mdst); v != 2 {
		t.Fatalf("the reset managed queue ran %#x, want the fresh WRITE's 2", v)
	}

	// A completion under way at the reset still advances the CQ: Settled
	// counts it before it lands.
	ctrl.PostSend(wqe.WQE{Op: wqe.OpNoop, Flags: wqe.FlagSignaled})
	ctrl.RingSQ()
	scq := ctrl.SendCQ()
	until("the NOOP's completion", func() bool { return scq.due > 0 })
	ctrl.Reset()
	settled := scq.Settled()
	eng.Run()
	if settled != scq.Count() || settled != 1 {
		t.Fatalf("the CQ settled at %d, counts %d", settled, scq.Count())
	}

	// Twice the ring's depth of fresh work, in two full rings.
	depth := int(qp.SQ().Capacity())
	for round := 0; round < 2; round++ {
		for i := 0; i < depth; i++ {
			qp.PostSend(wqe.WQE{Op: wqe.OpNoop, Flags: wqe.FlagSignaled})
		}
		qp.RingSQ()
		eng.Run()
	}
	if n := qp.SendCQ().Pending(); n != 2*depth {
		t.Fatalf("%d of %d fresh WQEs completed after the reset", n, 2*depth)
	}
	// The reset connection carries a SEND into a fresh RECV, and the
	// server's reset control queue sequences on it again.
	postRecvList(sqp, 2, rdst)
	ctrl.PostSend(wqe.WQE{Op: wqe.OpWait, Peer: sqp.RecvCQ().CQN(), Count: sqp.RecvCQ().Settled() + 1})
	ctrl.PostSend(wqe.WQE{Op: wqe.OpNoop, Flags: wqe.FlagSignaled})
	ctrl.RingSQ()
	qp.PostSend(wqe.WQE{Op: wqe.OpSend, Src: src, Len: 8})
	qp.RingSQ()
	eng.Run()
	if v, _ := srv.Mem().U64(rdst); v != 0x5eed || scq.Count() != 2 {
		t.Fatalf("after the reset the SEND landed %#x and the WAIT's NOOP completed %d times", v, scq.Count()-1)
	}

	// Crash cycles: frozen, a SEND lost to the frozen NIC, thawed, reset.
	qps := len(srv.qps)
	for c := 0; c < 5; c++ {
		srv.Freeze()
		qp.PostSend(wqe.WQE{Op: wqe.OpSend, Src: src, Len: 8})
		qp.RingSQ()
		eng.Run()
		srv.Unfreeze()
		qp.Reset()
		sqp.Reset()
		eng.Run()
	}
	if len(srv.qps) != qps {
		t.Fatalf("crash cycles grew the QP table from %d to %d", qps, len(srv.qps))
	}
	runsHome(t, cli, srv) // the SENDs the frozen NIC dropped included
}
