// Turing: run a 2-state busy-beaver Turing machine on the RNIC.
//
// This is the paper's thesis made executable. Every step of the machine
// is carried out by RDMA verbs on the (simulated) NIC:
//
//   - the tape, head and state are words in host memory;
//   - reading the current cell is an indirect mov (a WRITE patches a
//     READ's source from the head register — Appendix A);
//   - rule dispatch is one RedN conditional per rule (four for BB-2):
//     small WRITEs assemble (state, symbol) into each conditional's
//     operand field, and the matching CAS flips its target NOOP into
//     an ENABLE that grants that rule's body block;
//   - a rule body writes the new symbol through the head pointer
//     (indirect store), moves the head with an ADD, installs the next
//     state inline, and re-triggers the step barrier with an ENABLE.
//
// The host only re-arms step instances (the unrolled-loop mode of
// §3.4) and checks the halt flag; it never computes a transition.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/wqe"
)

// rule is one TM transition: in state s reading sym, write out, move
// dir (+-8 bytes over 8-byte cells) and go to next.
type rule struct {
	s, sym uint64
	out    uint64
	dir    uint64 // two's complement cell offset
	next   uint64
}

const (
	stateA = 1
	stateB = 2
	halt   = 99
	cell   = 8
)

// BB-2 busy beaver: halts after 6 steps with four 1s on the tape.
var bb2 = []rule{
	{stateA, 0, 1, cell, stateB},
	{stateA, 1, 1, ^uint64(cell) + 1, stateB},
	{stateB, 0, 1, ^uint64(cell) + 1, stateA},
	{stateB, 1, 1, cell, halt},
}

// machine runs one rule table on a simulated RNIC. The table must be
// total over the states it reaches: a step with no matching rule never
// completes.
type machine struct {
	rules []rule

	clu *fabric.Cluster
	srv *fabric.Node
	b   *core.Builder

	tape, headReg, stateReg, symCell uint64
	cells                            int

	qA, qT, qCAS, qD *rnic.QP

	step uint64
}

func newMachine(rules []rule) *machine {
	clu := fabric.NewCluster()
	srv := clu.AddNode(fabric.DefaultNodeConfig("tm"))
	b := core.NewBuilder(srv.Dev, 1<<16)
	m := &machine{rules: rules, clu: clu, srv: srv, b: b, cells: 32}

	m.tape = srv.Mem.Alloc(uint64(m.cells)*cell, 8)
	m.headReg = srv.Mem.Alloc(8, 8)
	m.stateReg = srv.Mem.Alloc(8, 8)
	m.symCell = srv.Mem.Alloc(8, 8)
	srv.Mem.PutU64(m.headReg, m.tape+uint64(m.cells/2)*cell)
	srv.Mem.PutU64(m.stateReg, stateA)

	m.qA = b.NewManagedQP(4096)   // per-step reads and operand assembly
	m.qT = b.NewManagedQP(4096)   // conditional targets (NOOP -> ENABLE)
	m.qCAS = b.NewManagedQP(4096) // rule-dispatch CASes
	m.qD = b.NewManagedQP(4096)   // step-done ADDs
	return m
}

// armStep posts one TM step as RDMA work requests.
func (m *machine) armStep() {
	b := m.b
	m.step++
	k := m.step

	// Step barrier: wait for the previous step's done-ADD completion.
	if k > 1 {
		b.WaitCQ(m.qD.SendCQ(), k-1)
	}

	// 1. Indirect read of the current cell (Appendix A's mov Rdst,
	// [Rsrc]): a WRITE patches the READ's src from the head register;
	// doorbell ordering makes the READ fetch only afterwards. Posting
	// order matches enable order (ENABLE grants everything below it).
	rdIdx := m.qA.SQ().Producer() + 1
	patch := b.Post(m.qA, wqe.WQE{Op: wqe.OpWrite, Src: m.headReg,
		Dst: m.qA.SQSlotAddr(rdIdx) + wqe.OffSrc, Len: 8, Flags: wqe.FlagSignaled})
	rd := b.Post(m.qA, wqe.WQE{Op: wqe.OpRead, Dst: m.symCell, Len: 8, Flags: wqe.FlagSignaled})
	b.Enable(patch)
	b.WaitStep(patch)
	b.Enable(rd)
	b.WaitStep(rd)

	// 2. Rule-body queues are fresh each step: bodies of rules that do
	// not fire stay posted-but-never-granted, and must not be swept up
	// by a later step's ENABLE.
	qR := make([]*rnic.QP, len(m.rules))
	for r := range m.rules {
		qR[r] = b.NewManagedQP(8)
	}

	// Dispatch targets: one NOOP per rule, pre-loaded to become an
	// ENABLE granting that rule's body. Operand = (state<<8 | symbol),
	// assembled into the id field by two 1-byte WRITEs.
	targets := make([]core.StepRef, len(m.rules))
	for r := range m.rules {
		targets[r] = b.Post(m.qT, wqe.WQE{Op: wqe.OpNoop,
			Peer: qR[r].QPN(), Count: 6})
	}
	var assembled []core.StepRef
	for r := range targets {
		// state byte -> id bits 8..15 (ctrl word byte 6); symbol byte
		// -> id bits 0..7 (ctrl word byte 7). Big-endian layout.
		wState := b.Post(m.qA, wqe.WQE{Op: wqe.OpWrite, Src: m.stateReg + 7,
			Dst: targets[r].Addr() + wqe.OffCtrl + 6, Len: 1, Flags: wqe.FlagSignaled})
		wSym := b.Post(m.qA, wqe.WQE{Op: wqe.OpWrite, Src: m.symCell + 7,
			Dst: targets[r].Addr() + wqe.OffCtrl + 7, Len: 1, Flags: wqe.FlagSignaled})
		b.Enable(wState)
		b.Enable(wSym)
		assembled = append(assembled, wState, wSym)
	}
	for _, ref := range assembled {
		b.WaitStep(ref)
	}

	// 3. One conditional per rule: y = state<<8 | sym; a match turns
	// the target into the ENABLE granting the rule body.
	for r, ru := range m.rules {
		b.If(m.qCAS, targets[r], ru.s<<8|ru.sym, wqe.OpEnable)
	}

	// 4. Rule bodies (granted only by their rule's ENABLE target):
	// indirect store *head = out (patch + in-queue WAIT + store), move
	// the head, install the next state, re-trigger the step barrier.
	for r, ru := range m.rules {
		q := qR[r]
		storeIdx := q.SQ().Producer() + 2 // after patch + wait
		patchBody := b.Post(q, wqe.WQE{Op: wqe.OpWrite, Src: m.headReg,
			Dst: q.SQSlotAddr(storeIdx) + wqe.OffDst, Len: 8, Flags: wqe.FlagSignaled})
		b.Post(q, wqe.WQE{Op: wqe.OpWait, Peer: q.SendCQ().CQN(),
			Count: b.Expected(q.SendCQ())})
		_ = patchBody
		b.Post(q, wqe.WQE{Op: wqe.OpWrite, Len: 8, Cmp: ru.out,
			Flags: wqe.FlagInline | wqe.FlagSignaled})
		b.Post(q, wqe.WQE{Op: wqe.OpAdd, Dst: m.headReg, Cmp: ru.dir, Flags: wqe.FlagSignaled})
		b.Post(q, wqe.WQE{Op: wqe.OpWrite, Dst: m.stateReg, Len: 8, Cmp: ru.next,
			Flags: wqe.FlagInline | wqe.FlagSignaled})
		b.Post(q, wqe.WQE{Op: wqe.OpEnable, Peer: m.qD.QPN(), Count: k})
	}

	// 5. The step-done ADD: granted by whichever rule body fired.
	b.Post(m.qD, wqe.WQE{Op: wqe.OpAdd, Dst: m.symCell, Cmp: 0, Flags: wqe.FlagSignaled})

	b.Ctrl.RingSQ()
}

// state reads the machine state register.
func (m *machine) state() uint64 {
	v, _ := m.srv.Mem.U64(m.stateReg)
	return v
}

func (m *machine) tapeString() string {
	out := ""
	for i := 0; i < m.cells; i++ {
		v, _ := m.srv.Mem.U64(m.tape + uint64(i)*cell)
		if v == 0 {
			out += "."
		} else {
			out += fmt.Sprintf("%d", v)
		}
	}
	return out
}

func main() {
	m := newMachine(bb2)
	fmt.Println("2-state busy beaver, every transition executed by RDMA verbs:")
	fmt.Printf("  start: state=A tape=[%s]\n", m.tapeString())

	steps := 0
	for m.state() != halt && steps < 32 {
		m.armStep()
		m.clu.Eng.RunUntil(m.clu.Eng.Now() + 200*sim.Microsecond)
		steps++
		fmt.Printf("  step %d: state=%v tape=[%s] head=%s (t=%v)\n",
			steps, stateName(m.state()), m.tapeString(), m.headPos(), m.clu.Eng.Now())
	}
	ones := 0
	for i := 0; i < m.cells; i++ {
		v, _ := m.srv.Mem.U64(m.tape + uint64(i)*cell)
		if v == 1 {
			ones++
		}
	}
	fmt.Printf("  halted after %d steps with %d ones (busy beaver BB-2: 6 steps, 4 ones)\n",
		steps, ones)
}

func stateName(s uint64) string {
	switch s {
	case stateA:
		return "A"
	case stateB:
		return "B"
	case halt:
		return "HALT"
	}
	return fmt.Sprintf("%d", s)
}

func (m *machine) headPos() string {
	h, _ := m.srv.Mem.U64(m.headReg)
	return fmt.Sprintf("cell %d", (h-m.tape)/cell)
}
