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
// pointer CAS freeing the key's extent, as on a client's set pipeline.
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

// doDelete arms one delete instance — the pointer CAS swapping the
// extent ext for the key's freed pointer — against key's first
// candidate bucket and runs it.
func (h *writeHarness) doDelete(t *testing.T, key, ext uint64) chainRun {
	t.Helper()
	claim := SetClaim{BucketAddr: h.bucket(key), Extent: ext, New: hopscotch.FreedPtr(key)}
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

// bucketStates are the states a bucket can be in, as its four words:
// empty; deleted, by this key ("tombstone": the key's word beside its
// freed pointer, as its fabric delete leaves it) or by another; held
// by a fresh claim in flight ("pending": key word 0 beside the staging
// pointer its CAS landed); resident, this key (at 0x5000) or another.
func bucketStates(key uint64) map[string][4]uint64 {
	return map[string][4]uint64{
		"empty":             {0, hopscotch.FreePtr, 0, 0},
		"tombstone":         {ClaimCtrl(key), hopscotch.FreedPtr(key), 32, 9},
		"foreign tombstone": {ClaimCtrl(key + 1), hopscotch.FreedPtr(key + 1), 32, 9},
		"pending":           {0, 0x7000, 0, 9},
		"resident":          {ClaimCtrl(key), 0x5000, 32, 9},
		"foreign":           {ClaimCtrl(key + 1), 0x6000, 32, 9},
	}
}

// The set chain's verdict is its deciding CAS's own result, in each of
// the four shapes a claim selects, against every state a bucket can be
// in. The key claim (no extent) applies exactly when the bucket holds
// NOOP|key — beside the key's freed pointer too, which it re-inserts
// over: it names the key, not a write — and the bucket ends repointed,
// with the length, and the ack carries WRITE|key. The hinted overwrite
// applies exactly when the bucket names the expected extent, and the
// re-insert when it names the key's own freed pointer: only the pointer
// moves, and the ack carries the pointer found. The fresh claim takes
// the free pointer, which arms its publishing WRITE: the ack carries
// the word its pointer CAS found, the free pointer iff it published.
// A refusal changes no bucket word. No chain, refused or applied, writes
// the bucket's fourth word. Every case runs once per kind of ack queue,
// to the same verdict and exactly one ack.
func TestSetChainVerdicts(t *testing.T) {
	const key = 42
	resident, free, freed := ClaimCtrl(key), hopscotch.FreePtr, hopscotch.FreedPtr(key)
	applied := wqe.MakeCtrl(wqe.OpWrite, key)
	keyClaim := SetClaim{Expect: resident, New: resident}
	hinted := SetClaim{Extent: 0x5000}
	fresh := SetClaim{Extent: free}
	reinsert := SetClaim{Extent: freed}
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
		{name: "overwrite of a deleted key", before: bucketStates(key)["tombstone"], claim: keyClaim, verdict: applied,
			after: [4]uint64{resident, staged, writeValLen, 9}, conds: []wqe.Opcode{wqe.OpWrite}, applied: true},
		{name: "overwrite of a vanished key", before: bucketStates(key)["empty"], claim: keyClaim,
			verdict: 0, conds: []wqe.Opcode{wqe.OpNoop}},
		{name: "overwrite of a key mid-claim", before: bucketStates(key)["pending"], claim: keyClaim,
			verdict: 0, conds: []wqe.Opcode{wqe.OpNoop}},
		{name: "overwrite of a taken bucket", before: bucketStates(key)["foreign"], claim: keyClaim,
			verdict: resident + 1, conds: []wqe.Opcode{wqe.OpNoop}},

		{name: "hinted overwrite of the resident", before: bucketStates(key)["resident"], claim: hinted, verdict: 0x5000,
			after: [4]uint64{resident, staged, 32, 9}, applied: true},
		{name: "a late overwrite after a newer write is refused and changes no bucket word",
			before: [4]uint64{resident, 0x6000, 32, 10}, claim: hinted, verdict: 0x6000},
		{name: "hinted overwrite of a deleted key", before: bucketStates(key)["tombstone"], claim: hinted, verdict: freed},
		{name: "hinted overwrite of a vanished key", before: bucketStates(key)["empty"], claim: hinted, verdict: free},

		{name: "re-insert at the key's freed bucket", before: bucketStates(key)["tombstone"], claim: reinsert, verdict: freed,
			after: [4]uint64{resident, staged, 32, 9}, applied: true},
		{name: "re-insert at a bucket another key's delete freed", before: bucketStates(key)["foreign tombstone"],
			claim: reinsert, verdict: hopscotch.FreedPtr(key + 1)},
		{name: "re-insert at a bucket reused since", before: bucketStates(key)["foreign"], claim: reinsert, verdict: 0x6000},
		{name: "re-insert at an emptied bucket", before: bucketStates(key)["empty"], claim: reinsert, verdict: free},

		{name: "fresh claim of an empty bucket", before: bucketStates(key)["empty"], claim: fresh, verdict: free,
			after: [4]uint64{resident, staged, 0, 0}, conds: []wqe.Opcode{wqe.OpWrite}, applied: true},
		// The key's own freed bucket is its re-insert's: a fresh claim
		// finds the freed pointer, whose MAX of zero writes nothing.
		{name: "fresh claim of a tombstone", before: bucketStates(key)["tombstone"], claim: fresh,
			verdict: freed, conds: []wqe.Opcode{wqe.OpMax}},
		// The pointer CAS lost to the occupant's pointer, an address: the
		// publish stays a NOOP, and the verdict is that address.
		{name: "fresh claim of a taken bucket", before: bucketStates(key)["foreign"], claim: fresh,
			verdict: 0x6000, conds: []wqe.Opcode{wqe.OpNoop}},
		{name: "fresh claim of a resident key", before: bucketStates(key)["resident"], claim: fresh,
			verdict: 0x5000, conds: []wqe.Opcode{wqe.OpNoop}},
		{name: "fresh claim of a bucket another claim's pointer took", before: [4]uint64{0, 0x7000, 0, 0}, claim: fresh,
			verdict: 0x7000, conds: []wqe.Opcode{wqe.OpNoop}},
		// A straggler's leftover claim names its own pointer, not the free
		// one: the pointer CAS refuses it.
		{name: "fresh claim against a leftover pending word", before: bucketStates(key)["pending"], claim: fresh,
			verdict: 0x7000, conds: []wqe.Opcode{wqe.OpNoop}},
		// Armed while its bucket was empty, run after another key was
		// published there and deleted: the freed pointer names that key,
		// so the CAS is refused, and the publish it lands on runs as a
		// MAX of zero, leaving the other key's word in place.
		{name: "fresh claim of a bucket a delete still holds", before: bucketStates(key)["foreign tombstone"],
			claim: fresh, verdict: hopscotch.FreedPtr(key + 1), conds: []wqe.Opcode{wqe.OpMax}},
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

// The delete chain's verdict, likewise: its one CAS applies exactly
// when the bucket names the extent the delete expects, and the ack
// carries the pointer found. An applied delete keeps the key's word
// beside the key's freed pointer, which frees the bucket; a host Remove
// empties it instead, key word 0 beside the free pointer and length 0.
// Every other state refuses and changes no word, and a straggler delete
// armed before a newer write of the key finds the newer extent and is
// refused too. No delete posts a conditional WQE or writes the bucket's
// fourth word. Every state runs once per kind of ack queue.
func TestDeleteChainVerdicts(t *testing.T) {
	const key = 42
	states := bucketStates(key)
	states["straggler"] = [4]uint64{ClaimCtrl(key), 0x6000, 32, 10}
	for _, q := range ackQueues {
		for state, before := range states {
			t.Run(q.prefix+state, func(t *testing.T) {
				h := newWriteHarness(t, q.managed)
				h.put(h.bucket(key), before)
				run := h.doDelete(t, key, 0x5000)
				checkAnswered(t, run)
				after := h.words(h.bucket(key))
				if after[3] != before[3] {
					t.Fatalf("the chain wrote the bucket's fourth word: %#x -> %#x", before[3], after[3])
				}
				if len(run.conds) != 0 {
					t.Fatalf("the conditional ring executed %v, want nothing", run.conds)
				}
				if run.verdict != before[1] {
					t.Fatalf("verdict %#x, want the pointer the CAS found %#x", run.verdict, before[1])
				}
				want := before
				if state == "resident" {
					want[1] = hopscotch.FreedPtr(key)
				}
				if after != want {
					t.Fatalf("bucket %#x -> %#x, want %#x", before, after, want)
				}
			})
		}
	}
	t.Run("host Remove", func(t *testing.T) {
		h := newWriteHarness(t, false)
		if err := h.table.Insert(key, 0x5000, 32); err != nil {
			t.Fatal(err)
		}
		if va, _, ok := h.table.Remove(key); !ok || va != 0x5000 {
			t.Fatalf("Remove returned %#x, %v", va, ok)
		}
		if got := h.words(h.bucket(key)); [3]uint64(got[:3]) != [3]uint64{0, hopscotch.FreePtr, 0} {
			t.Fatalf("host Remove left %#x, want [0, FreePtr, 0]", got[:3])
		}
	})
}
