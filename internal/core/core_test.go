package core

import (
	"testing"

	"repro/internal/hopscotch"
	"repro/internal/mem"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/wqe"
)

// harness wires one client and one server node back-to-back.
type harness struct {
	eng      *sim.Engine
	cli, srv *rnic.Device
	b        *Builder
}

func newHarness(t testing.TB) *harness {
	t.Helper()
	eng := sim.NewEngine()
	prof := rnic.ConnectX5()
	cli := rnic.New(eng, mem.New(1<<24), prof, 1)
	srv := rnic.New(eng, mem.New(1<<24), prof, 1)
	return &harness{eng: eng, cli: cli, srv: srv, b: NewBuilder(srv, 0)}
}

// connect creates a client<->server QP pair; the server SQ is managed
// so response WQEs can be rewritten.
func (h *harness) connect(depth int) (cliQP, srvQP *rnic.QP) { return h.connectAs(depth, true) }

// connectAs is connect with the server SQ managed or not. A two-probe
// get's response queue is managed; a hinted get's, a set's or a
// delete's, whose answer is final when posted, is unmanaged.
func (h *harness) connectAs(depth int, managed bool) (cliQP, srvQP *rnic.QP) {
	cliQP = h.cli.NewQP(rnic.QPConfig{SQDepth: depth, RQDepth: depth})
	srvQP = h.srv.NewQP(rnic.QPConfig{SQDepth: depth, RQDepth: depth, Managed: managed})
	cliQP.Connect(srvQP, h.srv.Profile().OneWay)
	return
}

func TestIfConstructTrueFalse(t *testing.T) {
	run := func(x, y uint64) uint64 {
		h := newHarness(t)
		out := h.srv.Mem().Alloc(8, 8)
		targetQP := h.b.NewManagedQP(8)
		casQP := h.b.NewManagedQP(8)
		// Target: NOOP with id=x; if flipped, inline-writes 1 to out.
		target := h.b.Post(targetQP, wqe.WQE{Op: wqe.OpNoop, ID: x, Dst: out, Len: 8,
			Cmp: 1, Flags: wqe.FlagSignaled | wqe.FlagInline})
		h.b.If(casQP, target, y, wqe.OpWrite)
		h.b.Run()
		h.eng.Run()
		v, _ := h.srv.Mem().U64(out)
		return v
	}
	if got := run(7, 7); got != 1 {
		t.Fatalf("if(7==7): out=%d, want 1", got)
	}
	if got := run(7, 8); got != 0 {
		t.Fatalf("if(7==8): out=%d, want 0", got)
	}
}

func TestIfConstructCost(t *testing.T) {
	// Table 2: if = 1 copy + 1 atomic + 3 WAIT/ENABLE.
	h := newHarness(t)
	targetQP := h.b.NewManagedQP(8)
	casQP := h.b.NewManagedQP(8)
	ctrlBefore := h.b.Ctrl.SQ().Producer()
	target := h.b.Post(targetQP, wqe.WQE{Op: wqe.OpNoop, Flags: wqe.FlagSignaled})
	h.b.If(casQP, target, 1, wqe.OpWrite)
	syncWRs := h.b.Ctrl.SQ().Producer() - ctrlBefore
	if syncWRs != 3 {
		t.Fatalf("if construct uses %d sync WRs, want 3 (Table 2)", syncWRs)
	}
	if casQP.SQ().Producer() != 1 {
		t.Fatalf("if construct uses %d atomics, want 1", casQP.SQ().Producer())
	}
	if targetQP.SQ().Producer() != 1 {
		t.Fatalf("if construct uses %d copy WRs, want 1", targetQP.SQ().Producer())
	}
}

func TestIfChainWideOperand(t *testing.T) {
	// 96-bit conditional: two 48-bit segments, both must match.
	run := func(xLo, xHi, yLo, yHi uint64) uint64 {
		h := newHarness(t)
		out := h.srv.Mem().Alloc(8, 8)
		targetQP := h.b.NewManagedQP(8)
		casQP := h.b.NewManagedQP(8)
		stageQP := h.b.NewManagedQP(8)
		target := h.b.Post(targetQP, wqe.WQE{Op: wqe.OpNoop, ID: xHi, Dst: out, Len: 8,
			Cmp: 1, Flags: wqe.FlagSignaled | wqe.FlagInline})
		h.b.IfChain(casQP, []*rnic.QP{stageQP}, target,
			[]uint64{xLo, xHi}, []uint64{yLo, yHi}, wqe.OpWrite)
		h.b.Run()
		h.eng.RunUntil(1 * sim.Second) // mismatches stall by design
		v, _ := h.srv.Mem().U64(out)
		return v
	}
	if got := run(1, 2, 1, 2); got != 1 {
		t.Fatalf("both match: out=%d, want 1", got)
	}
	if got := run(1, 2, 9, 2); got != 0 {
		t.Fatalf("low mismatch: out=%d, want 0", got)
	}
	if got := run(1, 2, 1, 9); got != 0 {
		t.Fatalf("high mismatch: out=%d, want 0", got)
	}
}

// doGet sends a trigger and returns the value bytes the client observes
// plus the request latency (time until the response WRITE's completion;
// a miss reports the full deadline).
func doGet(t *testing.T, h *harness, o *LookupOffload, cliQP *rnic.QP, key, valLen uint64) ([]byte, sim.Time) {
	t.Helper()
	got, _, lat := doGetAt(t, h, o, cliQP, key, valLen, 0)
	return got, lat
}

// doHintedGet is doGet for an ArmProbe instance, whose answer is its
// bucket's [keyCtrl, valAddr] words followed by the value.
func doHintedGet(t *testing.T, h *harness, o *LookupOffload, cliQP *rnic.QP, key, valLen uint64) (val []byte, word, va uint64, lat sim.Time) {
	t.Helper()
	val, head, lat := doGetAt(t, h, o, cliQP, key, valLen, 16)
	return val, head[0], head[1], lat
}

// doGetAt runs one get answering into a fresh client buffer whose
// first head bytes (0 or 16) hold answer words ahead of the value.
func doGetAt(t *testing.T, h *harness, o *LookupOffload, cliQP *rnic.QP, key, valLen, head uint64) ([]byte, [2]uint64, sim.Time) {
	t.Helper()
	respAddr := h.cli.Mem().Alloc(head+valLen, 8)
	payload := o.TriggerPayload(key, valLen, respAddr)
	buf := h.cli.Mem().Alloc(uint64(len(payload)), 8)
	h.cli.Mem().Write(buf, payload)

	start := h.eng.Now()
	hitAt := sim.Time(-1)
	record := func(e rnic.CQE) {
		if e.Op == wqe.OpWrite && e.At >= start && hitAt < 0 {
			hitAt = e.At
		}
	}
	for _, q := range []*rnic.QP{o.Trig, o.Resp, o.Resp2} {
		if q != nil {
			q.SendCQ().OnDeliver(record)
		}
	}
	cliQP.PostSend(wqe.WQE{Op: wqe.OpSend, Src: buf, Len: uint64(len(payload)), Flags: wqe.FlagSignaled})
	cliQP.RingSQ()
	h.eng.RunUntil(start + 100*sim.Microsecond)
	got, _ := h.cli.Mem().Read(respAddr+head, valLen)
	var words [2]uint64
	for i := uint64(0); i < head/8; i++ {
		words[i], _ = h.cli.Mem().U64(respAddr + 8*i)
	}
	if hitAt < 0 {
		return got, words, h.eng.Now() - start
	}
	return got, words, hitAt - start
}

func setupLookup(t *testing.T, mode LookupMode) (*harness, *LookupOffload, *rnic.QP, *hopscotch.Table) {
	t.Helper()
	h := newHarness(t)
	table := hopscotch.New(h.srv.Mem(), 1024, 0)
	cliQP, srvQP := h.connect(512)
	var resp2 *rnic.QP
	if mode == LookupParallel {
		_, resp2 = h.connect(512)
	}
	o := NewLookupOffload(h.b, srvQP, resp2, table, mode, 0)
	return h, o, cliQP, table
}

func storeValue(h *harness, table *hopscotch.Table, key uint64, val []byte) {
	addr := h.srv.Mem().Alloc(uint64(len(val)), 8)
	h.srv.Mem().Write(addr, val)
	if err := table.Insert(key, addr, uint64(len(val))); err != nil {
		panic(err)
	}
}

func TestLookupSingleHit(t *testing.T) {
	h, o, cliQP, table := setupLookup(t, LookupSingle)
	val := []byte("hello-world-64B-value-padding-xx")
	storeValue(h, table, 4242, val)
	o.Arm()
	o.Run()

	got, lat := doGet(t, h, o, cliQP, 4242, uint64(len(val)))
	if string(got) != string(val) {
		t.Fatalf("value %q, want %q", got, val)
	}
	// Table 5: 64B RedN get ~5.7us median. Allow a generous band.
	if lat < 3*sim.Microsecond || lat > 100*sim.Microsecond {
		t.Fatalf("lookup latency %v out of range", lat)
	}
	t.Logf("single-bucket hit latency: %v", lat)
}

func TestLookupSingleMissReturnsNothing(t *testing.T) {
	h, o, cliQP, table := setupLookup(t, LookupSingle)
	storeValue(h, table, 1, []byte("real-value"))
	o.Arm()
	o.Run()
	// Key 2 is absent: the CAS fails and the response NOOP stays inert.
	got, _ := doGet(t, h, o, cliQP, 2, 10)
	for _, b := range got {
		if b != 0 {
			t.Fatalf("miss wrote data: %q", got)
		}
	}
	// The server can still re-arm and serve a hit afterwards.
	o.Arm()
	got2, _ := doGet(t, h, o, cliQP, 1, 10)
	if string(got2) != "real-value" {
		t.Fatalf("post-miss hit returned %q", got2)
	}
}

func TestLookupSeqFindsSecondBucket(t *testing.T) {
	h, o, cliQP, table := setupLookup(t, LookupSeq)
	val := []byte("second-bucket-value")
	addr := h.srv.Mem().Alloc(uint64(len(val)), 8)
	h.srv.Mem().Write(addr, val)
	// Force the worst case of Fig 11: key lives in its H2 bucket.
	if err := table.InsertAt(77, addr, uint64(len(val)), 1, 0); err != nil {
		t.Fatal(err)
	}
	o.Arm()
	o.Run()
	got, lat := doGet(t, h, o, cliQP, 77, uint64(len(val)))
	if string(got) != string(val) {
		t.Fatalf("value %q, want %q", got, val)
	}
	t.Logf("seq second-bucket latency: %v", lat)
}

// A single-probe instance reads only the candidate it was aimed at and
// gathers only the extent it was given: a key at H2 answers a probe of
// H2 at its extent with its key word, that extent and its value; a
// probe of H1, whose bucket is empty, answers at once too, with the
// empty bucket's words [0, FreePtr] and the bytes at the extent it was
// given, which the client discards. Its WRITE is final when posted, so
// it answers on a pooled context's unmanaged response queue, and a
// context answering on a managed one refuses it.
func TestArmProbeReadsOnlyItsCandidate(t *testing.T) {
	h := newHarness(t)
	table := hopscotch.New(h.srv.Mem(), 1024, 0)
	cliQP, srvQP := h.connect(512)
	_, resp := h.connectAs(512, false)
	o := NewLookupPool(h.b, srvQP, []*rnic.QP{resp}, nil, table, LookupSeq).Ctxs[0]
	val := []byte("hinted-second-bucket")
	n := uint64(len(val))
	addr := h.srv.Mem().Alloc(n, 8)
	h.srv.Mem().Write(addr, val)
	if err := table.InsertAt(77, addr, n, 1, 0); err != nil {
		t.Fatal(err)
	}
	o.ArmProbe(1, addr)
	if got, word, va, _ := doHintedGet(t, h, o, cliQP, 77, n); string(got) != string(val) || word != ClaimCtrl(77) || va != addr {
		t.Fatalf("probe of H2: value %q, words [%#x, %#x]; want %q, [%#x, %#x]", got, word, va, val, ClaimCtrl(77), addr)
	}
	o.ArmProbe(0, addr)
	got, word, va, lat := doHintedGet(t, h, o, cliQP, 77, n)
	if word != 0 || va != hopscotch.FreePtr || string(got) != string(val) || lat > 10*sim.Microsecond {
		t.Fatalf("probe of H1 answered %q, words [%#x, %#x] after %v; want the empty bucket's [0, FreePtr] and the given extent's bytes in one round trip",
			got, word, va, lat)
	}
	_, standalone, _, _ := setupLookup(t, LookupSeq)
	defer func() {
		if recover() == nil {
			t.Fatal("ArmProbe on a managed response queue did not panic")
		}
	}()
	standalone.ArmProbe(0, addr)
}

func TestLookupParallelFindsSecondBucketFaster(t *testing.T) {
	val := []byte("parallel-bucket-value-64-bytes!!")
	run := func(mode LookupMode) sim.Time {
		h, o, cliQP, table := setupLookup(t, mode)
		addr := h.srv.Mem().Alloc(uint64(len(val)), 8)
		h.srv.Mem().Write(addr, val)
		if err := table.InsertAt(77, addr, uint64(len(val)), 1, 0); err != nil {
			t.Fatal(err)
		}
		o.Arm()
		o.Run()
		got, lat := doGet(t, h, o, cliQP, 77, uint64(len(val)))
		if string(got) != string(val) {
			t.Fatalf("%v: value %q, want %q", mode, got, val)
		}
		return lat
	}
	seq, par := run(LookupSeq), run(LookupParallel)
	if par >= seq {
		t.Fatalf("parallel (%v) should beat sequential (%v) on second-bucket hits (Fig 11)", par, seq)
	}
	t.Logf("collision: seq=%v parallel=%v", seq, par)
}

func TestLookupRepeatedGets(t *testing.T) {
	// Rings wrap and counts stay consistent across many gets.
	h, o, cliQP, table := setupLookup(t, LookupSingle)
	vals := map[uint64][]byte{}
	for k := uint64(1); k <= 20; k++ {
		v := []byte{byte(k), byte(k + 1), byte(k + 2), byte(k + 3)}
		storeValue(h, table, k, v)
		vals[k] = v
	}
	o.Run()
	for k := uint64(1); k <= 20; k++ {
		o.Arm()
		got, _ := doGet(t, h, o, cliQP, k, 4)
		if string(got) != string(vals[k]) {
			t.Fatalf("get(%d) = %v, want %v", k, got, vals[k])
		}
	}
}

func TestPostBreakSuppressesCompletion(t *testing.T) {
	// The break construct clears a WR's signaled flag so a dependent
	// WAIT never fires (Fig 6's loop-exit mechanism).
	h := newHarness(t)
	dev := h.srv
	victimQP := h.b.NewManagedQP(8)
	brkQP := h.b.NewManagedQP(8)
	out := dev.Mem().Alloc(8, 8)

	victim := h.b.Post(victimQP, wqe.WQE{Op: wqe.OpNoop, Flags: wqe.FlagSignaled})
	brk := h.b.PostBreak(brkQP, victim, wqe.FlagSignaled, 0)
	// Arm the break unconditionally (flip its NOOP to WRITE by CAS
	// with matching operand 0).
	h.b.If(h.b.NewManagedQP(8), brk, 0, wqe.OpWrite)
	// Wait for the break WRITE to complete... it is unsignaled, so
	// sequence via a sentinel: enable victim after a delay instead.
	h.b.Enable(victim)
	// After the victim runs (unsignaled now), write a marker via a
	// plain step to prove the chain kept going.
	mark := h.b.Post(h.b.NewQP(8), wqe.WQE{Op: wqe.OpWrite, Dst: out, Len: 8, Cmp: 0xAA,
		Flags: wqe.FlagSignaled | wqe.FlagInline})
	_ = mark
	h.b.Run()
	h.eng.Run()

	// The victim executed but must NOT have produced a completion.
	if victimQP.SQ().Executed() != 1 {
		t.Fatalf("victim executed %d times", victimQP.SQ().Executed())
	}
	if got := victimQP.SendCQ().Count(); got != 0 {
		t.Fatalf("victim produced %d completions despite break", got)
	}
}

func TestRegisterCodeRegion(t *testing.T) {
	h := newHarness(t)
	qp := h.b.NewManagedQP(16)
	r, err := h.b.RegisterCodeRegion(qp)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len != 16*wqe.Size {
		t.Fatalf("region length %d", r.Len)
	}
	if err := h.srv.Mem().CheckRemote(qp.SQSlotAddr(0), 8, r.RKey, mem.RemoteWrite, "write"); err != nil {
		t.Fatalf("code region not writable: %v", err)
	}
}
