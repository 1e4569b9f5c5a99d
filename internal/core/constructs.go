package core

import (
	"repro/internal/rnic"
	"repro/internal/wqe"
)

// The if construct (§3.3, Fig 4).
//
// An If compares a 48-bit runtime operand x — stored in the id field of
// a posted target WQE — against an expected operand y, and on equality
// rewrites the target's opcode from NOOP to a real verb. The compare
// and the rewrite are one 64-bit CAS on the target's control word:
//
//	CAS old = NOOP<<48 | y     new = swapOp<<48 | y
//
// The construct costs 1 copy + 1 atomic + 3 WAIT/ENABLE verbs
// (Table 2) and supports 48-bit operands (§3.5). Wider operands chain
// one CAS per 48-bit segment (IfChain) — no fundamental limit, only a
// performance penalty.

// IfResult exposes the posted verbs of an if construct for later
// injection or inspection.
type IfResult struct {
	CAS    StepRef // the conditional CAS
	Target StepRef // the WQE that fires on equality
}

// OperandMask is the paper's 48-bit operand limit for conditionals:
// the remaining 16 bits of the CAS word select the opcode.
const OperandMask = wqe.IDMask

// If emits the conditional-branch construct: a CAS on casQP (managed,
// because preceding verbs typically inject operands into it) aimed at
// target's control word, plus the sequencing verbs on the control
// queue: ENABLE(cas); WAIT(cas); ENABLE(target). The caller emits any
// WAIT that orders the CAS after its inputs (e.g. WaitRecv when the
// client injects x or y).
func (b *Builder) If(casQP *rnic.QP, target StepRef, y uint64, swapOp wqe.Opcode) IfResult {
	return b.ifThen(casQP, target, y, swapOp, true)
}

// ifThen is If, optionally skipping the CAS's own ENABLE (when an
// earlier staging ENABLE grants it instead).
func (b *Builder) ifThen(casQP *rnic.QP, target StepRef, y uint64, swapOp wqe.Opcode, enableCAS bool) IfResult {
	cas := b.cond(casQP, target.FieldAddr(wqe.OffCtrl),
		wqe.MakeCtrl(wqe.OpNoop, y&OperandMask), wqe.MakeCtrl(swapOp, y&OperandMask), 0)
	if enableCAS {
		b.Enable(cas) // doorbell order: fetch the CAS only now (operands final)
	}
	b.WaitStep(cas)  // completion order: CAS effects visible
	b.Enable(target) // fetch the (possibly rewritten) target
	return IfResult{CAS: cas, Target: target}
}

// cond posts the conditional itself: a signaled CAS on q comparing the
// word at dst with cmp and, on a match, swapping in swap, the word it
// found landing at ret (0: nowhere). Offloads aim it at a NOOP's control
// word or at a bucket's key word (a NOOP too, by hopscotch's layout) and
// leave the operands their trigger injects zero.
func (b *Builder) cond(q *rnic.QP, dst, cmp, swap, ret uint64) StepRef {
	return b.Post(q, wqe.WQE{Op: wqe.OpCAS, Src: ret, Dst: dst, Cmp: cmp, Swap: swap, Flags: wqe.FlagSignaled})
}

// IfChain compares an operand wider than 48 bits, one CAS per 48-bit
// segment (§3.5). Each stage i consists of a staging WQE S_i posted as
// NOOP on a managed queue with:
//
//	id    = x_i (the runtime segment, preset or injected)
//	Peer  = the managed queue of stage i+1's CAS
//	Count = grant index for that CAS
//
// and a CAS comparing (NOOP | y_i) that, on match, flips S_i into an
// ENABLE — granting the next stage's CAS. A mismatch anywhere leaves
// S_i a NOOP and the rest of the chain is simply never fetched: the
// conjunction of all segment matches gates the final target. The last
// stage is a plain If on the real target.
//
// A mismatch permanently stalls the control queue at the next stage's
// WAIT, so IfChain suits terminal conditionals (a lookup miss that
// should produce no response), not mid-program branches.
//
// ySegs are the expected 48-bit segments (low to high); xSegs the
// runtime segments preset into the staging WQEs (callers may instead
// inject them at runtime via the returned stage refs).
func (b *Builder) IfChain(casQP *rnic.QP, stageQPs []*rnic.QP, target StepRef,
	xSegs, ySegs []uint64, swapOp wqe.Opcode) (stages []IfResult) {
	if len(xSegs) != len(ySegs) || len(ySegs) == 0 {
		panic("core: IfChain needs equal, non-empty segment lists")
	}
	if len(stageQPs) < len(ySegs)-1 {
		panic("core: IfChain needs a staging queue per extra segment")
	}
	// Front-to-back emission. For each non-final segment i we post:
	//   S_i   (NOOP, id=x_i) on stageQPs[i]        — flips to ENABLE
	//   CAS_i (cmp NOOP|y_i -> ENABLE|y_i) on casQP, aimed at S_i
	// and sequence ENABLE(CAS_i); WAIT(CAS_i); ENABLE(S_i). S_i's
	// ENABLE fields point at the *next* CAS, whose index we reserve by
	// posting stages in order on casQP (one CAS per stage, contiguous).
	n := len(ySegs)
	// Reserve the CAS indices: they are posted in order below, so the
	// CAS for stage i lands at casBase+i on casQP.
	casBase := casQP.SQ().Producer()
	for i := 0; i < n-1; i++ {
		s := b.Post(stageQPs[i], wqe.WQE{
			Op:    wqe.OpNoop,
			ID:    xSegs[i] & OperandMask,
			Peer:  casQP.QPN(),
			Count: casBase + uint64(i) + 2, // grants CAS_{i+1}
		})
		cas := b.cond(casQP, s.FieldAddr(wqe.OffCtrl),
			wqe.MakeCtrl(wqe.OpNoop, ySegs[i]&OperandMask), wqe.MakeCtrl(wqe.OpEnable, ySegs[i]&OperandMask), 0)
		if i == 0 {
			b.Enable(cas) // first CAS enabled by the program; rest by stages
		}
		b.WaitStep(cas)
		b.Enable(s)
		stages = append(stages, IfResult{CAS: cas, Target: s})
	}
	// Final segment: ordinary If on the real target. Its CAS is the
	// n-th on casQP, granted by stage n-2's ENABLE (or the initial
	// Enable when n == 1). If posts and waits it.
	final := b.ifThen(casQP, target, ySegs[n-1], swapOp, n == 1)
	stages = append(stages, final)
	return stages
}

// PostBreak posts the break construct (§3.4, Fig 6): a NOOP that, once
// armed into a WRITE by a conditional, clears lastWR's signaled flag so
// the WAIT gating the next loop iteration never fires — halting the
// loop without executing its remaining iterations. origFlags are
// lastWR's posted flags (the suppression preserves everything but
// the signal bit).
func (b *Builder) PostBreak(onQP *rnic.QP, lastWR StepRef, origFlags wqe.Flags, origPeer uint32) StepRef {
	newFlags := wqe.MakeFlags(origFlags&^wqe.FlagSignaled, origPeer)
	return b.Post(onQP, wqe.WQE{
		Op:    wqe.OpNoop, // armed to WRITE by a conditional
		Dst:   lastWR.FieldAddr(wqe.OffFlags),
		Len:   8,
		Cmp:   newFlags,
		Flags: wqe.FlagInline, // the break itself completes silently
	})
}
