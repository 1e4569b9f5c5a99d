package core

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/hopscotch"
	"repro/internal/rnic"
	"repro/internal/wqe"
)

// interleaving runs write chains of two set connections over one
// table, so an instance armed on the second (armed) can run after
// chains the first fired since, and locates keys between the steps.
type interleaving struct {
	*writeHarness
	armedQP *rnic.QP
	armed   *SetOffload
	getQP   *rnic.QP
	get     *LookupOffload
}

func newInterleaving(t *testing.T) *interleaving {
	h := &interleaving{writeHarness: newWriteHarness(t, false)}
	var srvQP, respQP *rnic.QP
	h.armedQP, srvQP = h.connect(64)
	_, respQP = h.connectAs(16, false)
	srvQP.RecvCQ().SetAutoDrain(true)
	srvQP.SendCQ().SetAutoDrain(true)
	respQP.SendCQ().SetAutoDrain(true)
	h.armed = NewSetPool(h.b, srvQP, []*rnic.QP{respQP}, writeValLen, nil).Ctxs[0]
	h.getQP, srvQP = h.connect(64)
	_, respQP = h.connectAs(16, false)
	srvQP.RecvCQ().SetAutoDrain(true)
	srvQP.SendCQ().SetAutoDrain(true)
	h.get = NewLookupPool(h.b, srvQP, []*rnic.QP{respQP}, nil, h.table, LookupSeq).Ctxs[0]
	return h
}

// write arms one instance of key under claim at bucket on ctx and
// returns its trigger payload, which the caller fires when it chooses,
// and its staging extent.
func (h *interleaving) write(ctx *SetOffload, key, bucket uint64, claim SetClaim) (payload []byte, staging uint64) {
	if claim.New != hopscotch.FreedPtr(key) {
		staging = ctx.Arm(key)
	}
	claim.BucketAddr = bucket
	return slices.Clone(ctx.TriggerPayload(key, claim, writeValLen, 1, h.ack)), staging
}

// now runs an instance of key on the first connection at once.
func (h *interleaving) now(t *testing.T, key, bucket uint64, claim SetClaim) (chainRun, uint64) {
	payload, staging := h.write(h.set, key, bucket, claim)
	return h.fire(t, h.setQP, h.set.Resp, h.set.w3, key, payload), staging
}

// located reports where a locate — the hinted get at H1 that gathers
// H2's bucket words — finds key resident, read as the client reads it:
// 1 + the candidate whose words are the key's word beside a pointer
// other than the key's freed one, or 0.
func (h *interleaving) located(t *testing.T, key uint64) int {
	h.get.ArmProbe(0, h.table.HashAddr(key, 1))
	h2, h1, _ := doGetAt(t, h.harness, h.get, h.getQP, key, 16, 16)
	for fn, w := range [][2]uint64{h1, {binary.BigEndian.Uint64(h2), binary.BigEndian.Uint64(h2[8:])}} {
		if w[0] == ClaimCtrl(key) && w[1] != hopscotch.FreedPtr(key) {
			return fn + 1
		}
	}
	return 0
}

// resident checks that host Lookup, EntryAt and a locate agree that key
// is resident at its first candidate iff want.
func (h *interleaving) resident(t *testing.T, step string, key uint64, want bool) {
	t.Helper()
	_, _, found := h.table.Lookup(key)
	k, _, _, ok := h.table.EntryAt(h.table.Hash(key, 0))
	loc := h.located(t, key)
	if found != want || (ok && k == key) != want || (loc == 1) != want || loc == 2 {
		t.Fatalf("%s: key %d found by Lookup %v, by EntryAt %v, located at %d; want resident %v at its first candidate",
			step, key, found, ok && k == key, loc, want)
	}
}

// The two hazards a freed pointer that names its key closes, each an
// interleaving of chains on two connections over one bucket: an
// instance armed on one connection runs after chains the other fired
// since. A straggler delete, armed against the extent a newer write
// then replaced, finds that extent gone and is refused, changing no
// bucket word. A fresh claim of another key, armed while the bucket was
// empty, runs after the key was published there and deleted: it finds
// the key's freed pointer, not the free one, and is refused, and the
// publish its CAS lands on runs as a MAX of zero, so no bucket word
// changes and the other key's word never sits beside the deleted key's
// pointer, where the key's re-insert would make it resident. After
// every step, host Lookup and EntryAt and a locate agree on whether the
// key is resident, and none reports it resident once deleted.
func TestDeleteInterleavings(t *testing.T) {
	const a = 42
	t.Run("straggler delete", func(t *testing.T) {
		h := newInterleaving(t)
		bucket := h.bucket(a)
		run, s1 := h.now(t, a, bucket, SetClaim{Extent: hopscotch.FreePtr})
		if run.verdict != hopscotch.FreePtr {
			t.Fatalf("fresh claim verdict %#x", run.verdict)
		}
		h.resident(t, "published", a, true)
		straggler, _ := h.write(h.armed, a, bucket, SetClaim{Extent: s1, New: hopscotch.FreedPtr(a)})
		run, s2 := h.now(t, a, bucket, SetClaim{Extent: s1})
		if run.verdict != s1 {
			t.Fatalf("newer write's verdict %#x, want %#x", run.verdict, s1)
		}
		h.resident(t, "overwritten", a, true)
		before := h.words(bucket)
		run = h.fire(t, h.armedQP, h.armed.Resp, h.armed.w3, a, straggler)
		checkAnswered(t, run)
		if after := h.words(bucket); run.verdict != s2 || after != before || before[1] != s2 {
			t.Fatalf("straggler delete: verdict %#x, bucket %#x -> %#x; want refused by %#x, no word changed", run.verdict, before, after, s2)
		}
		h.resident(t, "after the straggler", a, true)
		if run, _ := h.now(t, a, bucket, SetClaim{Extent: s2, New: hopscotch.FreedPtr(a)}); run.verdict != s2 {
			t.Fatalf("delete of the newer write: verdict %#x, want %#x", run.verdict, s2)
		}
		h.resident(t, "deleted", a, false)
	})
	t.Run("fresh claim after a publish and a delete", func(t *testing.T) {
		h := newInterleaving(t)
		bucket := h.bucket(a)
		b := uint64(a + 1)
		for h.table.Hash(b, 0) != h.table.Hash(a, 0) {
			b++
		}
		stray, _ := h.write(h.armed, b, bucket, SetClaim{Extent: hopscotch.FreePtr})
		run, s1 := h.now(t, a, bucket, SetClaim{Extent: hopscotch.FreePtr})
		if run.verdict != hopscotch.FreePtr {
			t.Fatalf("fresh claim of %d: verdict %#x", a, run.verdict)
		}
		h.resident(t, "published", a, true)
		if run, _ := h.now(t, a, bucket, SetClaim{Extent: s1, New: hopscotch.FreedPtr(a)}); run.verdict != s1 {
			t.Fatalf("delete: verdict %#x, want %#x", run.verdict, s1)
		}
		h.resident(t, "deleted", a, false)
		before := h.words(bucket)
		run = h.fire(t, h.armedQP, h.armed.Resp, h.armed.w3, b, stray)
		checkAnswered(t, run)
		if after := h.words(bucket); run.verdict != hopscotch.FreedPtr(a) || after != before ||
			!slices.Equal(run.conds, []wqe.Opcode{wqe.OpMax}) {
			t.Fatalf("stray fresh claim: verdict %#x, bucket %#x -> %#x, publish ran as %v; want refused by FreedPtr(%d), no word changed, a MAX",
				run.verdict, before, after, run.conds, a)
		}
		h.resident(t, "after the stray claim", a, false)
		if _, _, ok := h.table.Lookup(b); ok {
			t.Fatalf("the stray claim made %d resident", b)
		}
		run, s2 := h.now(t, a, bucket, SetClaim{Extent: hopscotch.FreedPtr(a)})
		if run.verdict != hopscotch.FreedPtr(a) || h.words(bucket)[1] != s2 {
			t.Fatalf("re-insert: verdict %#x, pointer %#x; want the freed pointer, then %#x", run.verdict, h.words(bucket)[1], s2)
		}
		h.resident(t, "re-inserted", a, true)
	})
}
