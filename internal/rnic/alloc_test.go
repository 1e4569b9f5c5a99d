//go:build !race

package rnic

import (
	"testing"

	"repro/internal/wqe"
)

// TestSteadyStateWRsAllocateNothing pins the point of the run records:
// once the free lists and rings have grown, a work request costs the
// host no allocation from doorbell to CQE, whatever the verb.
func TestSteadyStateWRsAllocateNothing(t *testing.T) {
	eng, cli, srv, qp, sqp := testPair(t)
	for _, cq := range []*CQ{qp.SendCQ(), qp.RecvCQ(), sqp.SendCQ(), sqp.RecvCQ()} {
		cq.SetAutoDrain(true)
	}
	src, dst := cli.Mem().Alloc(64, 8), srv.Mem().Alloc(64, 8)
	slist := putScatter(cli.Mem(), wqe.ScatterEntry{Addr: src, Len: 32}, wqe.ScatterEntry{Addr: src + 32, Len: 32})
	rlist := putScatter(srv.Mem(), wqe.ScatterEntry{Addr: dst, Len: 8})

	const batch = 16
	for _, tc := range []struct {
		name string
		v    wqe.WQE
		recv bool
	}{
		{"WRITE", wqe.WQE{Op: wqe.OpWrite, Src: src, Dst: dst, Len: 64, Flags: wqe.FlagSignaled}, false},
		{"READ", wqe.WQE{Op: wqe.OpRead, Src: dst, Dst: src, Len: 64, Flags: wqe.FlagSignaled}, false},
		{"READ scatter", wqe.WQE{Op: wqe.OpRead, Src: dst, Dst: slist, Len: 64, Count: 2,
			Flags: wqe.FlagSignaled | wqe.FlagScatterDst}, false},
		{"WRITE gather", wqe.WQE{Op: wqe.OpWrite, Src: slist, Dst: dst, Count: 2,
			Flags: wqe.FlagSignaled | wqe.FlagGatherSrc}, false},
		{"CAS", wqe.WQE{Op: wqe.OpCAS, Dst: dst, Src: src, Cmp: 1, Swap: 1, Flags: wqe.FlagSignaled}, false},
		{"inline SEND -> RECV", wqe.WQE{Op: wqe.OpSend, Len: 8, Cmp: 5,
			Flags: wqe.FlagSignaled | wqe.FlagInline}, true},
	} {
		run := func() {
			for i := 0; i < batch; i++ {
				if tc.recv {
					sqp.PostRecv(uint64(i), rlist, 1, true, nil)
				}
				qp.PostSend(tc.v)
			}
			qp.RingSQ()
			eng.Run()
		}
		for i := 0; i < 4; i++ {
			run() // grow free lists, rings, waiter slices
		}
		before := qp.SQ().Executed()
		if got := testing.AllocsPerRun(50, run); got != 0 {
			t.Errorf("%s: %v allocations per %d WRs, want 0", tc.name, got, batch)
		}
		if ran := qp.SQ().Executed() - before; ran != 51*batch {
			t.Fatalf("%s: %d WRs ran, want %d", tc.name, ran, 51*batch)
		}
	}
	if len(cli.freeRuns) != cli.runsMade || len(srv.freeRuns) != srv.runsMade {
		t.Fatalf("records astray at quiesce: cli %d/%d, srv %d/%d",
			len(cli.freeRuns), cli.runsMade, len(srv.freeRuns), srv.runsMade)
	}
}
