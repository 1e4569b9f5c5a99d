package core

import (
	"testing"
	"testing/quick"

	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/wqe"
)

func TestIfChainThreeSegments(t *testing.T) {
	// 144-bit conditional: three 48-bit segments, all must match.
	run := func(x, y [3]uint64) uint64 {
		h := newHarness(t)
		out := h.srv.Mem().Alloc(8, 8)
		targetQP := h.b.NewManagedQP(8)
		casQP := h.b.NewManagedQP(8)
		stages := []*rnic.QP{h.b.NewManagedQP(8), h.b.NewManagedQP(8)}
		target := h.b.Post(targetQP, wqe.WQE{Op: wqe.OpNoop, ID: x[2], Dst: out, Len: 8,
			Cmp: 1, Flags: wqe.FlagSignaled | wqe.FlagInline})
		h.b.IfChain(casQP, stages, target, x[:], y[:], wqe.OpWrite)
		h.b.Run()
		h.eng.RunUntil(1 * sim.Second)
		v, _ := h.srv.Mem().U64(out)
		return v
	}
	if got := run([3]uint64{1, 2, 3}, [3]uint64{1, 2, 3}); got != 1 {
		t.Fatalf("all match: %d", got)
	}
	for i := 0; i < 3; i++ {
		y := [3]uint64{1, 2, 3}
		y[i] = 9
		if got := run([3]uint64{1, 2, 3}, y); got != 0 {
			t.Fatalf("segment %d mismatch fired anyway", i)
		}
	}
}

func TestIfChainValidation(t *testing.T) {
	h := newHarness(t)
	casQP := h.b.NewManagedQP(8)
	target := h.b.Post(h.b.NewManagedQP(8), wqe.WQE{Op: wqe.OpNoop, Flags: wqe.FlagSignaled})
	mustPanic := func(fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		fn()
	}
	mustPanic(func() { h.b.IfChain(casQP, nil, target, nil, nil, wqe.OpWrite) })
	mustPanic(func() {
		h.b.IfChain(casQP, nil, target, []uint64{1, 2}, []uint64{1, 2}, wqe.OpWrite)
	})
}

// Property: If fires exactly when the 48-bit operands are equal, for
// arbitrary operand values.
func TestIfTruthTableProperty(t *testing.T) {
	f := func(x, y uint64) bool {
		x &= OperandMask
		y &= OperandMask
		eng := sim.NewEngine()
		dev := rnic.New(eng, memNew(1<<20), rnic.ConnectX5(), 1)
		b := NewBuilder(dev, 64)
		out := dev.Mem().Alloc(8, 8)
		target := b.Post(b.NewManagedQP(8), wqe.WQE{Op: wqe.OpNoop, ID: x, Dst: out, Len: 8,
			Cmp: 1, Flags: wqe.FlagSignaled | wqe.FlagInline})
		b.If(b.NewManagedQP(8), target, y, wqe.OpWrite)
		b.Run()
		eng.Run()
		v, _ := dev.Mem().U64(out)
		return (v == 1) == (x == y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitStepOnUnsignaledPanics(t *testing.T) {
	h := newHarness(t)
	q := h.b.NewManagedQP(8)
	ref := h.b.Post(q, wqe.WQE{Op: wqe.OpNoop}) // unsignaled
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.b.WaitStep(ref)
}

func TestBuilderPortAffinity(t *testing.T) {
	eng := sim.NewEngine()
	dev := rnic.New(eng, memNew(1<<22), rnic.ConnectX5(), 2)
	b := NewBuilderOnPort(dev, 64, 1)
	q := b.NewManagedQP(8)
	// Exercise the port-1 queue: its fetches must charge port 1's unit.
	flag := dev.Mem().Alloc(8, 8)
	b.Post(q, wqe.WQE{Op: wqe.OpWrite, Dst: flag, Len: 8, Cmp: 1,
		Flags: wqe.FlagSignaled | wqe.FlagInline})
	q.EnableSQFromHost(1)
	eng.Run()
	if v, _ := dev.Mem().U64(flag); v != 1 {
		t.Fatal("port-1 queue did not execute")
	}
	u := dev.Utilization(eng.Now())
	if u["port1/fetch"] == 0 {
		t.Fatal("managed fetch did not charge port 1")
	}
	if u["port0/fetch"] != 0 {
		t.Fatal("port 0 charged for port-1 work")
	}
}
