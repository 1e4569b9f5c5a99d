package core

import (
	"slices"
	"testing"

	"repro/internal/hopscotch"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/wqe"
)

// writeHarness arms one set context against a hopscotch table, its
// ack on a response queue of either kind; a delete runs on it as the
// key claim installing the tombstone, as on a client's set pipeline.
type writeHarness struct {
	*harness
	table     *hopscotch.Table
	set       *SetOffload
	setQP     *rnic.QP
	trig, ack uint64 // client-side trigger and ack buffers
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
	var srvQP, respQP *rnic.QP
	h.setQP, srvQP = h.connect(64)
	_, respQP = h.connectAs(16, managedAck)
	srvQP.RecvCQ().SetAutoDrain(true)
	srvQP.SendCQ().SetAutoDrain(true)
	respQP.SendCQ().SetAutoDrain(true)
	h.set = NewSetPool(h.b, srvQP, []*rnic.QP{respQP}, writeValLen, nil).Ctxs[0]
	h.trig, h.ack = h.cli.Mem().Alloc(128, 8), h.cli.Mem().Alloc(8, 8)
	return h
}

// chainRun is what one triggered write chain did, seen from outside.
type chainRun struct {
	verdict uint64       // the word the ack landed in the client's buffer
	acks    int          // ack completions carrying WRITE|key
	at      sim.Time     // when the ack completed, from the trigger's doorbell
	conds   []wqe.Opcode // what the conditional WQEs (valWr, a fresh claim's publish) executed as
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

// doSet arms one set instance under claim, aimed at key's first
// candidate bucket, and runs it.
func (h *writeHarness) doSet(t *testing.T, key uint64, claim SetClaim, ver uint64) (run chainRun, staging uint64) {
	t.Helper()
	staging = h.set.Arm(key)
	claim.BucketAddr = h.bucket(key)
	run = h.fire(t, h.setQP, h.set.Resp, h.set.w3, key,
		h.set.TriggerPayload(key, claim, writeValLen, ver, h.ack))
	return run, staging
}

// doDelete arms one delete instance — the key claim installing the
// tombstone — against key's first candidate bucket and runs it.
func (h *writeHarness) doDelete(t *testing.T, key uint64) chainRun {
	t.Helper()
	claim := SetClaim{BucketAddr: h.bucket(key), Expect: ClaimCtrl(key), New: hopscotch.Tombstone}
	return h.fire(t, h.setQP, h.set.Resp, h.set.w3, key,
		h.set.TriggerPayload(key, claim, 0, 0, h.ack))
}

func (h *writeHarness) bucket(key uint64) uint64 {
	return h.table.BucketAddr(h.table.Hash(key, 0))
}

// words reads a bucket's [keyCtrl, valAddr, valLen] and its fourth
// word, padding no chain may write.
func (h *writeHarness) words(addr uint64) (w [4]uint64) {
	for i := range w {
		w[i], _ = h.srv.Mem().U64(addr + uint64(8*i))
	}
	return w
}

// put writes a bucket's four words behind the table's back: the state
// some other writer left there, with a nonzero fourth word a chain that
// wrote past valLen would change.
func (h *writeHarness) put(addr uint64, w [4]uint64) {
	for i, v := range w {
		h.srv.Mem().PutU64(addr+uint64(8*i), v)
	}
}

// bucketStates are the kinds of word a bucket can hold (a resident twice:
// this key and another, a delete's claim in flight), with the pointer
// words an occupant left: a free bucket names the free pointer.
func bucketStates(key uint64) map[string][4]uint64 {
	return map[string][4]uint64{
		"empty":     {0, hopscotch.FreePtr, 0, 0},
		"tombstone": {hopscotch.Tombstone, hopscotch.FreePtr, 0, 9},
		"pending":   {hopscotch.PendingCtrl(key), 0x5000, 32, 9},
		"resident":  {ClaimCtrl(key), 0x5000, 32, 9},
		"foreign":   {ClaimCtrl(key + 1), 0x5000, 32, 9},
	}
}

// The set chain's verdict is its deciding CAS's own result, in each of
// the three shapes a claim selects, against every word a bucket can
// hold. The key claim (no extent) applies exactly when the bucket holds
// NOOP|key: the bucket ends repointed, with the length, and the ack
// carries WRITE|key. The hinted overwrite applies exactly when
// the bucket names the expected extent: only the pointer moves, and the
// ack carries the pointer found. The fresh claim takes the free
// pointer, which arms its publishing WRITE: the ack carries the word its
// pointer CAS found, the free pointer iff it published. A refusal
// changes no bucket word. No chain, refused or applied, writes the
// bucket's fourth word. Every case runs once per kind of ack queue, to
// the same verdict and exactly one ack.
func TestSetChainVerdicts(t *testing.T) {
	const key = 42
	resident, free := ClaimCtrl(key), hopscotch.FreePtr
	applied := wqe.MakeCtrl(wqe.OpWrite, key)
	keyClaim := SetClaim{Expect: resident, New: resident}
	hinted := SetClaim{Extent: 0x5000}
	fresh := SetClaim{Extent: free}
	const staged = 1 // stands for the staging extent in want
	cases := []struct {
		name    string
		before  [4]uint64
		claim   SetClaim
		verdict uint64
		after   [4]uint64 // staged: the instance's staging extent
		conds   []wqe.Opcode
		applied bool
	}{
		{name: "overwrite of the resident", before: bucketStates(key)["resident"], claim: keyClaim, verdict: applied,
			after: [4]uint64{resident, staged, writeValLen, 9}, conds: []wqe.Opcode{wqe.OpWrite}, applied: true},
		{name: "overwrite of a deleted key", before: bucketStates(key)["tombstone"], claim: keyClaim,
			verdict: hopscotch.Tombstone, conds: []wqe.Opcode{wqe.OpNoop}},
		{name: "overwrite of a vanished key", before: bucketStates(key)["empty"], claim: keyClaim,
			verdict: 0, conds: []wqe.Opcode{wqe.OpNoop}},
		{name: "overwrite of a key mid-claim", before: bucketStates(key)["pending"], claim: keyClaim,
			verdict: hopscotch.PendingCtrl(key), conds: []wqe.Opcode{wqe.OpNoop}},
		{name: "overwrite of a taken bucket", before: bucketStates(key)["foreign"], claim: keyClaim,
			verdict: resident + 1, conds: []wqe.Opcode{wqe.OpNoop}},

		{name: "hinted overwrite of the resident", before: bucketStates(key)["resident"], claim: hinted, verdict: 0x5000,
			after: [4]uint64{resident, staged, 32, 9}, applied: true},
		{name: "a late overwrite after a newer write is refused and changes no bucket word",
			before: [4]uint64{resident, 0x6000, 32, 10}, claim: hinted, verdict: 0x6000},
		{name: "hinted overwrite of a deleted key", before: bucketStates(key)["tombstone"], claim: hinted, verdict: free},
		{name: "hinted overwrite of a vanished key", before: bucketStates(key)["empty"], claim: hinted, verdict: free},

		{name: "fresh claim of an empty bucket", before: bucketStates(key)["empty"], claim: fresh, verdict: free,
			after: [4]uint64{resident, staged, 0, 0}, conds: []wqe.Opcode{wqe.OpWrite}, applied: true},
		{name: "fresh claim of a tombstone", before: bucketStates(key)["tombstone"], claim: fresh,
			verdict: free, after: [4]uint64{resident, staged, 0, 9}, conds: []wqe.Opcode{wqe.OpWrite}, applied: true},
		// The pointer CAS lost to the occupant's pointer, an address: the
		// publish stays a NOOP, and the verdict is that address.
		{name: "fresh claim of a taken bucket", before: bucketStates(key)["foreign"], claim: fresh,
			verdict: 0x5000, conds: []wqe.Opcode{wqe.OpNoop}},
		{name: "fresh claim of a resident key", before: bucketStates(key)["resident"], claim: fresh,
			verdict: 0x5000, conds: []wqe.Opcode{wqe.OpNoop}},
		{name: "fresh claim of a bucket another claim's pointer took", before: [4]uint64{0, 0x7000, 0, 0}, claim: fresh,
			verdict: 0x7000, conds: []wqe.Opcode{wqe.OpNoop}},
		// A straggler's leftover claim names its own pointer, not the free
		// one: the pointer CAS refuses it.
		{name: "fresh claim against a leftover pending word", before: bucketStates(key)["pending"], claim: fresh,
			verdict: 0x5000, conds: []wqe.Opcode{wqe.OpNoop}},
		{name: "fresh claim of a bucket a delete still holds", before: [4]uint64{hopscotch.Tombstone, 0x5000, 32, 9},
			claim: fresh, verdict: 0x5000, conds: []wqe.Opcode{wqe.OpNoop}},
	}
	for _, q := range ackQueues {
		for _, c := range cases {
			t.Run(q.prefix+c.name, func(t *testing.T) {
				h := newWriteHarness(t, q.managed)
				h.put(h.bucket(key), c.before)
				run, staging := h.doSet(t, key, c.claim, 17)
				checkAnswered(t, run)
				if run.verdict != c.verdict {
					t.Fatalf("verdict %#x, want %#x", run.verdict, c.verdict)
				}
				want := c.before
				if c.applied {
					want = c.after
				}
				if want[1] == staged {
					want[1] = staging
				}
				after := h.words(h.bucket(key))
				if after[3] != c.before[3] {
					t.Fatalf("the chain wrote the bucket's fourth word: %#x -> %#x", c.before[3], after[3])
				}
				if after != want {
					t.Fatalf("bucket %#x -> %#x, want %#x", c.before, after, want)
				}
				if !slices.Equal(run.conds, c.conds) {
					t.Fatalf("the conditional ring executed %v, want %v", run.conds, c.conds)
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
// held the live occupant NOOP|key — the bucket ends [Tombstone,
// FreePtr, 0], the words hopscotch.Table.Remove leaves, so host and
// fabric deletes agree, and exactly one conditional WRITE ran. Every
// other word refuses, writes nothing, and its one conditional WQE
// executes as a NOOP. Neither writes the bucket's fourth word. Every
// state runs once per kind of ack queue.
func TestDeleteChainVerdicts(t *testing.T) {
	const key = 42
	applied := wqe.MakeCtrl(wqe.OpWrite, key)
	for _, q := range ackQueues {
		for state, before := range bucketStates(key) {
			t.Run(q.prefix+state, func(t *testing.T) {
				h := newWriteHarness(t, q.managed)
				h.put(h.bucket(key), before)
				run := h.doDelete(t, key)
				checkAnswered(t, run)
				after := h.words(h.bucket(key))
				if after[3] != before[3] {
					t.Fatalf("the chain wrote the bucket's fourth word: %#x -> %#x", before[3], after[3])
				}
				if state == "resident" {
					if run.verdict != applied {
						t.Fatalf("verdict %#x, want WRITE|key %#x", run.verdict, applied)
					}
					host := hopscotch.New(h.srv.Mem(), 16, 0)
					host.Insert(key, before[1], before[2])
					host.Remove(key)
					removed := h.words(host.BucketAddr(host.Hash(key, 0)))
					if want := [3]uint64{hopscotch.Tombstone, hopscotch.FreePtr, 0}; [3]uint64(after[:3]) != want || [3]uint64(removed[:3]) != want {
						t.Fatalf("bucket %#x, host Remove left %#x; want both %#x", after[:3], removed[:3], want)
					}
					if !slices.Equal(run.conds, []wqe.Opcode{wqe.OpWrite}) {
						t.Fatalf("the conditional ring executed %v, want one WRITE", run.conds)
					}
					return
				}
				if run.verdict != before[0] {
					t.Fatalf("verdict %#x, want the word that refused the claim %#x", run.verdict, before[0])
				}
				if after[1] != before[1] || after[2] != before[2] {
					t.Fatalf("refused delete moved the bucket's pointer words: %#x -> %#x", before, after)
				}
				if !slices.Equal(run.conds, []wqe.Opcode{wqe.OpNoop}) {
					t.Fatalf("the conditional ring executed %v under bucket word %#x, want one NOOP", run.conds, before[0])
				}
			})
		}
	}
}
