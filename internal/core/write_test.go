package core

import (
	"testing"

	"repro/internal/hopscotch"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/wqe"
)

// writeHarness arms one set context and one delete context against a
// hopscotch table, each on its own trigger connection, their acks on
// response queues of one kind.
type writeHarness struct {
	*harness
	table        *hopscotch.Table
	set          *SetOffload
	del          *DeleteOffload
	setQP, delQP *rnic.QP
	trig, ack    uint64 // client-side trigger and ack buffers
}

const writeValLen = 64

// ackQueues are the two kinds of response queue a write's ack can sit
// on, each naming the subtests it runs: unmanaged, as the client wires
// it, where a WAIT of its own gates it, and managed, where its control
// lane's ENABLE does.
var ackQueues = []struct {
	prefix  string
	managed bool
}{{"", false}, {"managed ack/", true}}

func newWriteHarness(t *testing.T, managedAck bool) *writeHarness {
	t.Helper()
	h := &writeHarness{harness: newHarness(t)}
	h.table = hopscotch.New(h.srv.Mem(), 256, 0)
	wire := func() (cliQP, srvQP, respQP *rnic.QP) {
		cliQP, srvQP = h.connect(64)
		_, respQP = h.connectAs(16, managedAck)
		srvQP.RecvCQ().SetAutoDrain(true)
		srvQP.SendCQ().SetAutoDrain(true)
		respQP.SendCQ().SetAutoDrain(true)
		return
	}
	var srvQP, respQP *rnic.QP
	h.setQP, srvQP, respQP = wire()
	h.set = NewSetPool(h.b, srvQP, []*rnic.QP{respQP}, writeValLen, nil).Ctxs[0]
	h.delQP, srvQP, respQP = wire()
	h.del = NewDeletePool(h.b, srvQP, []*rnic.QP{respQP}).Ctxs[0]
	h.trig, h.ack = h.cli.Mem().Alloc(128, 8), h.cli.Mem().Alloc(8, 8)
	return h
}

// chainRun is what one triggered write chain did, seen from outside.
type chainRun struct {
	verdict uint64       // the word the ack landed in the client's buffer
	acks    int          // ack completions carrying WRITE|key
	at      sim.Time     // when the ack completed, from the trigger's doorbell
	conds   []wqe.Opcode // what the conditional WQEs (valWr; unlink, verWr) executed as
}

// fire sends payload on qp and runs the chain behind resp to completion,
// recording how the WQEs on the conditional ring cond executed.
func (h *writeHarness) fire(t *testing.T, qp, resp, cond *rnic.QP, key uint64, payload []byte) chainRun {
	t.Helper()
	var run chainRun
	start := h.eng.Now()
	h.cli.Mem().PutU64(h.ack, 0xDEAD)
	h.cli.Mem().Write(h.trig, payload)
	resp.SendCQ().OnDeliver(func(e rnic.CQE) {
		if e.Op == wqe.OpWrite && e.WRID == key&hopscotch.KeyMask {
			run.acks++
			run.at = e.At - start
		}
	})
	cond.SendCQ().OnDeliver(func(e rnic.CQE) { run.conds = append(run.conds, e.Op) })
	qp.PostSend(wqe.WQE{Op: wqe.OpSend, Src: h.trig, Len: uint64(len(payload))})
	qp.RingSQ()
	h.eng.RunUntil(h.eng.Now() + 400*sim.Microsecond)
	run.verdict, _ = h.cli.Mem().U64(h.ack)
	return run
}

// doSet arms one set instance claiming key's first candidate bucket
// under claim's operands and runs it.
func (h *writeHarness) doSet(t *testing.T, key, expect, install, ver uint64) (run chainRun, staging uint64) {
	t.Helper()
	staging = h.set.Arm(key)
	claim := SetClaim{BucketAddr: h.bucket(key), Expect: expect, New: install}
	run = h.fire(t, h.setQP, h.set.Resp, h.set.w3, key,
		h.set.TriggerPayload(key, claim, writeValLen, ver, h.ack))
	return run, staging
}

// doDelete arms one delete instance against key's first candidate
// bucket and runs it.
func (h *writeHarness) doDelete(t *testing.T, key, ver uint64) chainRun {
	t.Helper()
	return h.fire(t, h.delQP, h.del.Resp, h.del.w3, key,
		h.del.TriggerPayload(key, h.bucket(key), ver, h.ack))
}

func (h *writeHarness) bucket(key uint64) uint64 {
	return h.table.BucketAddr(h.table.Hash(key, 0))
}

// words reads a bucket's [keyCtrl, valAddr, valLen, version].
func (h *writeHarness) words(addr uint64) (w [4]uint64) {
	for i := range w {
		w[i], _ = h.srv.Mem().U64(addr + uint64(8*i))
	}
	return w
}

// put writes a bucket's [keyCtrl, valAddr, valLen, version] behind the
// table's back: the state some other writer left there.
func (h *writeHarness) put(addr uint64, w [4]uint64) {
	for i, v := range w {
		h.srv.Mem().PutU64(addr+uint64(8*i), v)
	}
}

// bucketStates are the kinds of word a bucket can hold (a resident twice:
// this key and another), with the pointer words an earlier occupant left.
func bucketStates(key uint64) map[string][4]uint64 {
	return map[string][4]uint64{
		"empty":     {0, 0, 0, 0},
		"tombstone": {hopscotch.Tombstone, 0x5000, 32, 9},
		"pending":   {hopscotch.PendingCtrl(key), 0x5000, 32, 9},
		"resident":  {ClaimCtrl(key), 0x5000, 32, 9},
		"foreign":   {ClaimCtrl(key + 1), 0x5000, 32, 9},
	}
}

// The set chain's verdict is the claim CAS's own result: applied exactly
// when the bucket held claim.Expect, in which case the bucket ends
// published and repointed at the staging extent and the ack carries
// WRITE|key; refused otherwise, the ack carrying the word that was in
// the way and the pointer words untouched. Every bucket word meets both
// shapes: an overwrite (no pubCAS) and a fresh claim. A refused
// overwrite posts nothing that could write the bucket, so it must leave
// all four words as they were. Every case runs once per kind of ack
// queue, to the same verdict and exactly one ack.
func TestSetChainVerdicts(t *testing.T) {
	const key = 42
	pending, resident := ClaimPendingCtrl(key), ClaimCtrl(key)
	applied := wqe.MakeCtrl(wqe.OpWrite, key)
	cases := []struct {
		name, state     string
		expect, install uint64
		applied         bool
	}{
		// Expect == 0 is the one claim whose success value is also what
		// valWr's control word was posted as: the CAS must have written it.
		{"fresh claim of an empty bucket", "empty", 0, pending, true},
		{"fresh claim of a tombstone", "tombstone", hopscotch.Tombstone, pending, true},
		{"overwrite of the resident", "resident", resident, resident, true},
		// A straggler's leftover claim: the bucket holds the very word this
		// claim would install, and a check of the bucket afterwards could
		// not tell that this chain did not put it there.
		{"fresh claim against a leftover pending word", "pending", 0, pending, false},
		{"fresh claim of a taken bucket", "foreign", 0, pending, false},
		{"overwrite of a deleted key", "tombstone", resident, resident, false},
		{"overwrite of a vanished key", "empty", resident, resident, false},
		{"overwrite of a key mid-claim", "pending", resident, resident, false},
		{"overwrite of a taken bucket", "foreign", resident, resident, false},
		{"fresh claim of a resident key", "resident", 0, pending, false},
	}
	for _, q := range ackQueues {
		for _, c := range cases {
			t.Run(q.prefix+c.name, func(t *testing.T) {
				h := newWriteHarness(t, q.managed)
				before := bucketStates(key)[c.state]
				h.put(h.bucket(key), before)
				run, staging := h.doSet(t, key, c.expect, c.install, 17)
				checkAnswered(t, run)
				after := h.words(h.bucket(key))
				if c.applied {
					if run.verdict != applied {
						t.Fatalf("verdict %#x, want WRITE|key %#x", run.verdict, applied)
					}
					if want := [4]uint64{resident, staging, writeValLen, 17}; after != want {
						t.Fatalf("bucket %#x, want %#x", after, want)
					}
					if len(run.conds) != 1 || run.conds[0] != wqe.OpWrite {
						t.Fatalf("valWr executed as %v, want one WRITE", run.conds)
					}
					return
				}
				if run.verdict != before[0] {
					t.Fatalf("verdict %#x, want the word that refused the claim %#x", run.verdict, before[0])
				}
				if after[1] != before[1] || after[2] != before[2] || after[3] != before[3] {
					t.Fatalf("refused claim moved the bucket's pointer words: %#x -> %#x", before, after)
				}
				if c.install == resident && after != before {
					t.Fatalf("refused overwrite changed the bucket: %#x -> %#x", before, after)
				}
				if len(run.conds) != 1 || run.conds[0] != wqe.OpNoop {
					t.Fatalf("valWr executed as %v under bucket word %#x, want one NOOP", run.conds, before[0])
				}
			})
		}
	}
}

// checkAnswered checks that a write chain acked exactly once, within
// one fabric round trip of its trigger.
func checkAnswered(t *testing.T, run chainRun) {
	t.Helper()
	if run.acks != 1 {
		t.Fatalf("%d acks, want exactly one — the chain always answers", run.acks)
	}
	if run.at >= 20*sim.Microsecond {
		t.Fatalf("answered after %v, want one fabric round trip", run.at)
	}
}

// The delete chain's verdict, likewise: applied exactly when the bucket
// held the live occupant NOOP|key — the bucket ends a tombstone stamped
// with the delete's version and its extent is on the to-free ring.
// Every other word refuses, deposits nothing and stamps nothing, and
// executes as a NOOP on both conditional WQEs. Every state runs once
// per kind of ack queue.
func TestDeleteChainVerdicts(t *testing.T) {
	const key = 42
	applied := wqe.MakeCtrl(wqe.OpWrite, key)
	for _, q := range ackQueues {
		for state, before := range bucketStates(key) {
			t.Run(q.prefix+state, func(t *testing.T) {
				h := newWriteHarness(t, q.managed)
				h.put(h.bucket(key), before)
				run := h.doDelete(t, key, 23)
				checkAnswered(t, run)
				after := h.words(h.bucket(key))
				var freed [][3]uint64
				h.del.Ring.Drain(func(tag, addr, size uint64) { freed = append(freed, [3]uint64{tag, addr, size}) })
				if state == "resident" {
					if run.verdict != applied {
						t.Fatalf("verdict %#x, want WRITE|key %#x", run.verdict, applied)
					}
					if after[0] != hopscotch.Tombstone || after[3] != 23 {
						t.Fatalf("bucket %#x, want a tombstone at version 23", after)
					}
					if want := [3]uint64{hopscotch.PendingCtrl(key), before[1], before[2]}; len(freed) != 1 || freed[0] != want {
						t.Fatalf("to-free ring holds %#x, want one deposit %#x", freed, want)
					}
					if len(run.conds) != 2 || run.conds[0] != wqe.OpWrite || run.conds[1] != wqe.OpWrite {
						t.Fatalf("unlink, verWr executed as %v, want two WRITEs", run.conds)
					}
					return
				}
				if run.verdict != before[0] {
					t.Fatalf("verdict %#x, want the word that refused the claim %#x", run.verdict, before[0])
				}
				if after[1] != before[1] || after[2] != before[2] || after[3] != before[3] {
					t.Fatalf("refused delete moved the bucket's pointer words: %#x -> %#x", before, after)
				}
				if len(freed) != 0 {
					t.Fatalf("refused delete deposited %#x on the to-free ring", freed)
				}
				if len(run.conds) != 2 || run.conds[0] != wqe.OpNoop || run.conds[1] != wqe.OpNoop {
					t.Fatalf("unlink, verWr executed as %v under bucket word %#x, want two NOOPs", run.conds, before[0])
				}
			})
		}
	}
}
