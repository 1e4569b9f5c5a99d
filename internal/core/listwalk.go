package core

import (
	"repro/internal/rnic"
	"repro/internal/wqe"
)

// The linked-list traversal offload (§5.3, Fig 12).
//
// The client sends the key x (as CAS operands) and the head node
// address N0. Each unrolled iteration is Fig 12's chain: one READ (R2)
// fetches the node and scatters [keyCtrl, valAddr] onto the iteration's
// response WQE and the next pointer onto the following READ's src
// (multi-SGE response); a WRITE (R3) forwards the CAS operands; the CAS
// (R4) flips the response (R5) from NOOP to WRITE iff the keys match.
//
// Without breaks, the pointer chase runs on its own control chain and
// NIC PU, so node i+1 is being fetched while node i's comparison is
// still in flight (§3.5 parallelism) — but every node is always
// visited. With breaks, each iteration adds a second conditional that
// arms a break WRITE (Fig 6): a match clears the next READ's completion
// signal, so the rest of the loop never runs. The break chain is
// sequential (the break must land before the next iteration starts),
// which is why it has higher latency despite executing fewer WRs — the
// Fig 13 trade-off.
type ListWalkOffload struct {
	chain
	Iters int
	Break bool

	wChase *rnic.QP // managed: scatter READs (pointer chase)
	wOps   *rnic.QP // managed: operand copies + CASes (+ break CASes)
	wPrep  *rnic.QP // managed: break mirrors/patterns (chain-order posts)
	wBrk   *rnic.QP // managed: break WRITEs (own queue: posting order = enable order)
	wCond2 *rnic.QP // managed: break conditionals (same constraint)
	ctrlB  *rnic.QP // second control queue (parallel compare chain)

	respAddr uint64
	valLen   uint64
}

// NewListWalkOffload arms a traversal of iters nodes for one request.
// trig is the server-side client QP (managed SQ); respAddr/valLen are
// the client's pre-registered response buffer. Break-mode walks stall
// their control queue when the key is found (that is what break means),
// so each request uses a fresh offload, matching the paper's setup
// where WQ sizes equal the offloaded program.
func NewListWalkOffload(b *Builder, trig *rnic.QP, iters int, withBreak bool, respAddr, valLen uint64) *ListWalkOffload {
	o := &ListWalkOffload{
		chain: newChain(b, trig, nil), Iters: iters, Break: withBreak,
		wChase:   b.NewManagedQP(iters + 1),
		wOps:     b.NewManagedQP(8*iters + 8),
		wPrep:    b.NewManagedQP(8*iters + 8),
		wBrk:     b.NewManagedQP(iters + 1),
		wCond2:   b.NewManagedQP(iters + 1),
		respAddr: respAddr, valLen: valLen,
	}
	if !withBreak {
		o.ctrlB = b.NewQP(8*iters + 8)
	}
	o.arm()
	return o
}

// The list walk's steps the trigger feeds, and its trigger layout: the
// first conditional's operands (forwarding copies hand them on to the
// later iterations) and the head node, the first READ's source.
const (
	lwCAS = iota
	lwRead
)

var listWalkLayout = []slot{
	{lwCAS, wqe.OffCmp, opNoop}, {lwCAS, wqe.OffSwap, opWrite}, {lwRead, wqe.OffSrc, opBucket},
}

func (o *ListWalkOffload) arm() {
	b := o.B
	m := b.Dev.Mem()
	L := o.Iters

	// Responses and chase READs first (cross-references need addresses).
	resps := make([]StepRef, L)
	reads := make([]StepRef, L)
	for i := 0; i < L; i++ {
		resps[i] = b.Post(o.Trig, wqe.WQE{Op: wqe.OpNoop, Dst: o.respAddr, Len: o.valLen,
			Flags: wqe.FlagSignaled})
	}
	for i := 0; i < L; i++ {
		ln, cnt := uint64(24), uint64(2)
		if i == L-1 {
			ln, cnt = 16, 1
		}
		reads[i] = b.Post(o.wChase, wqe.WQE{Op: wqe.OpRead, Len: ln, Count: cnt,
			Flags: wqe.FlagSignaled | wqe.FlagScatterDst})
	}
	// Scatter lists: node [keyCtrl, valAddr] -> resp_i [ctrl, src];
	// node next -> read_{i+1} src.
	for i := 0; i < L; i++ {
		entries := []wqe.ScatterEntry{{Addr: resps[i].FieldAddr(wqe.OffCtrl), Len: 16}}
		if i < L-1 {
			entries = append(entries, wqe.ScatterEntry{Addr: reads[i+1].FieldAddr(wqe.OffSrc), Len: 8})
		}
		raw := make([]byte, len(entries)*wqe.ScatterEntrySize)
		wqe.EncodeScatter(raw, entries)
		addr := m.Alloc(uint64(len(raw)), 8)
		m.Write(addr, raw)
		m.PutU64(reads[i].FieldAddr(wqe.OffDst), addr)
	}

	// Operand forwarding (Fig 12's R3) and conditionals. wOps posting
	// order = enable order: all copies first, then the CASes.
	cpXs := make([]StepRef, L)
	for i := 1; i < L; i++ {
		cpXs[i] = b.Post(o.wOps, wqe.WQE{Op: wqe.OpWrite, Len: 16, Flags: wqe.FlagSignaled})
	}
	cass := make([]StepRef, L)
	for i := 0; i < L; i++ {
		cass[i] = b.Post(o.wOps, wqe.WQE{Op: wqe.OpCAS,
			Dst: resps[i].FieldAddr(wqe.OffCtrl), Flags: wqe.FlagSignaled})
	}
	for i := 1; i < L; i++ {
		m.PutU64(cpXs[i].FieldAddr(wqe.OffSrc), cass[0].FieldAddr(wqe.OffCmp))
		m.PutU64(cpXs[i].FieldAddr(wqe.OffDst), cass[i].FieldAddr(wqe.OffCmp))
	}

	var in instance
	in.steps[lwCAS], in.steps[lwRead] = cass[0], reads[0]
	recvTarget := o.recv(listWalkLayout, &in)

	if !o.Break {
		// Chase chain (ctrl A): each READ enabled as its predecessor's
		// scatter lands the next pointer.
		b.WaitRecv(o.Trig, recvTarget)
		for i := 0; i < L; i++ {
			b.Enable(reads[i])
			b.WaitStep(reads[i])
		}
		// Compare chain (ctrl B) runs concurrently on another PU. The
		// forwarding copies are granted in one batch (they only depend
		// on the RECV injection) and execute while node 0 is being
		// read; each comparison then waits only for its own copy.
		bb := b.withCtrl(o.ctrlB)
		bb.WaitRecv(o.Trig, recvTarget)
		if L > 1 {
			bb.Enable(cpXs[L-1]) // grants every forwarding copy at once
		}
		for i := 0; i < L; i++ {
			bb.WaitStep(reads[i])
			if i > 0 {
				bb.WaitStep(cpXs[i])
			}
			bb.Enable(cass[i])
			bb.WaitStep(cass[i])
			bb.Enable(resps[i])
		}
		b.Ctrl.RingSQ()
		o.ctrlB.RingSQ()
		return
	}

	// Break mode: one sequential chain; each iteration arms a break
	// that silences the next READ on a hit.
	b.WaitRecv(o.Trig, recvTarget)
	for i := 0; i < L; i++ {
		if i > 0 {
			b.Enable(cpXs[i])
			b.WaitStep(cpXs[i])
		}
		b.Enable(reads[i])
		b.WaitStep(reads[i])
		b.Enable(cass[i])
		b.WaitStep(cass[i])
		b.Enable(resps[i])
		if i < L-1 {
			// brk: NOOP -> WRITE that clears read_{i+1}'s signal flag.
			brk := b.Post(o.wBrk, wqe.WQE{Op: wqe.OpNoop, Len: 8, Cmp: 0,
				Dst:   reads[i+1].FieldAddr(wqe.OffFlags),
				Flags: wqe.FlagInline | wqe.FlagSignaled})
			// mirror: resp ctrl (NOOP|key on miss, WRITE|key on hit)
			// into brk's ctrl word for the second conditional.
			mir := b.Post(o.wPrep, wqe.WQE{Op: wqe.OpWrite,
				Src: resps[i].FieldAddr(wqe.OffCtrl),
				Dst: brk.FieldAddr(wqe.OffCtrl), Len: 8, Flags: wqe.FlagSignaled})
			// pattern: the hit pattern (WRITE|x) from cas.Swap into the
			// break conditional's expected value.
			cas2 := b.Post(o.wCond2, wqe.WQE{Op: wqe.OpCAS,
				Dst: brk.FieldAddr(wqe.OffCtrl), Swap: wqe.MakeCtrl(wqe.OpWrite, 0),
				Flags: wqe.FlagSignaled})
			cpPat := b.Post(o.wPrep, wqe.WQE{Op: wqe.OpWrite,
				Src: cass[i].FieldAddr(wqe.OffSwap),
				Dst: cas2.FieldAddr(wqe.OffCmp), Len: 8, Flags: wqe.FlagSignaled})
			b.Enable(mir)
			b.WaitStep(mir)
			b.Enable(cpPat)
			b.WaitStep(cpPat)
			b.Enable(cas2)
			b.WaitStep(cas2)
			b.Enable(brk)
			b.WaitStep(brk)
		}
	}
	b.Ctrl.RingSQ()
}

// ExecutedWRs reports how many WRs actually ran — with breaks, far
// fewer than posted once the key is found.
func (o *ListWalkOffload) ExecutedWRs() uint64 {
	n := o.wChase.SQ().Executed() + o.wOps.SQ().Executed() +
		o.wPrep.SQ().Executed() + o.wBrk.SQ().Executed() +
		o.wCond2.SQ().Executed() + o.Trig.SQ().Executed() + o.B.Ctrl.SQ().Executed()
	if o.ctrlB != nil {
		n += o.ctrlB.SQ().Executed()
	}
	return n
}

// TriggerPayload builds the client SEND for a walk looking up key,
// starting at list head n0. The result is the offload's own buffer,
// overwritten by its next TriggerPayload.
func (o *ListWalkOffload) TriggerPayload(key, n0 uint64) []byte {
	return o.payload(listWalkLayout, key, operands{opBucket: n0})
}
