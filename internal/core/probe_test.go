package core

import (
	"testing"

	"repro/internal/extent"
	"repro/internal/hopscotch"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/wqe"
)

// A version probe runs no program: the client posts two READs, in order
// on one connection, of the bucket's [keyCtrl, valAddr] and the header
// of the extent it expects the bucket to name, and checks the key word
// and the address. These tests probe the words a host store and the set
// chain leave behind.

// doProbe reads bucketAddr's words and ext's header on a client QP the
// way a client's probe does, and reports the answer landed client-side
// — the bucket's key word and pointer, and the header's version — plus
// whether the signaled READ, stamped with key, completed.
func doProbe(t *testing.T, h *harness, key, bucketAddr, ext uint64) (ctrl, va, ver uint64, answered bool) {
	t.Helper()
	q, _ := h.connectAs(16, false)
	at := h.cli.Mem().Alloc(32, 8)
	h.cli.Mem().PutU64(at+16, 0xDEAD)
	q.SendCQ().OnDeliver(func(e rnic.CQE) {
		if e.Op == wqe.OpRead && e.WRID == key {
			answered = true
		}
	})
	q.PostSend(wqe.WQE{Op: wqe.OpRead, Src: bucketAddr, Dst: at, Len: 16})
	q.PostSend(wqe.WQE{Op: wqe.OpRead, ID: key, Src: ext - extent.HeadBytes, Dst: at + 16,
		Len: extent.HeadBytes, Flags: wqe.FlagSignaled})
	q.RingSQ()
	h.eng.RunUntil(h.eng.Now() + 400*sim.Microsecond)
	ctrl, _ = h.cli.Mem().U64(at)
	va, _ = h.cli.Mem().U64(at + 8)
	ver, _ = h.cli.Mem().U64(at + 16)
	return ctrl, va, ver, answered
}

// storeHeaded stores key's 64-byte value at version ver the way a host
// store does: its header before the bytes, the bucket naming the value.
func storeHeaded(t *testing.T, h *harness, table *hopscotch.Table, key, ver uint64) (va uint64) {
	t.Helper()
	va = h.srv.Mem().Alloc(extent.HeadBytes+64, 8) + extent.HeadBytes
	extent.PutHead(h.srv.Mem(), va, ver, 64)
	if err := table.Insert(key, va, 64); err != nil {
		t.Fatal(err)
	}
	return va
}

// A probe of a resident key returns its bucket's key word and pointer
// and the version its value's header carries, in one round trip; after
// a hinted overwrite repoints the bucket, a probe of the new extent
// returns the version its header carries.
func TestProbeOffloadRoundTrip(t *testing.T) {
	h := newWriteHarness(t, false)
	const key = 42
	va := storeHeaded(t, h.harness, h.table, key, 17)
	if k, _, _, ok := h.table.EntryAt(h.table.Hash(key, 0)); !ok || k != key {
		t.Fatal("key not at its first candidate — test shape is wrong")
	}
	ctrl, got, ver, answered := doProbe(t, h.harness, key, h.bucket(key), va)
	if !answered {
		t.Fatal("probe of a resident key went unanswered")
	}
	if ctrl != ClaimCtrl(key) || got != va || ver != 17 {
		t.Fatalf("probe returned [%#x, %#x], version %d; want [%#x, %#x] and 17", ctrl, got, ver, ClaimCtrl(key), va)
	}

	// The client writes the header into staging before it triggers the
	// chain; here the host stands in for that WRITE.
	run, staging := h.doSet(t, key, SetClaim{Expect: ClaimCtrl(key), New: ClaimCtrl(key), Extent: va}, 18)
	extent.PutHead(h.srv.Mem(), staging, 18, writeValLen)
	if run.verdict != va {
		t.Fatalf("hinted overwrite verdict %#x, want the extent it expected %#x", run.verdict, va)
	}
	if ctrl, got, ver, answered := doProbe(t, h.harness, key, h.bucket(key), staging); !answered ||
		ctrl != ClaimCtrl(key) || got != staging || ver != 18 {
		t.Fatalf("probe after the overwrite: answered %v, [%#x, %#x], version %d; want [%#x, %#x] and 18",
			answered, ctrl, got, ver, ClaimCtrl(key), staging)
	}
}

// A probe of a bucket that does not hold the key at the extent named —
// another key, a tombstone, a pointer the extent retired from — answers
// at once too, with a key word or a pointer that is not the one
// expected: the client reads the miss in one round trip.
func TestProbeOffloadConditionalMiss(t *testing.T) {
	h := newWriteHarness(t, false)
	const key = 42
	va := storeHeaded(t, h.harness, h.table, key, 17)

	// Probing the right bucket for the WRONG key.
	ctrl, _, _, answered := doProbe(t, h.harness, key+1, h.bucket(key), va)
	if !answered {
		t.Fatal("probe for an absent key went unanswered")
	}
	if ctrl == ClaimCtrl(key+1) {
		t.Fatal("another key's bucket answered the probed key's word")
	}

	// A bucket a hinted overwrite repointed misses a probe of the extent
	// it retired: the key word is the key's, the pointer is not va.
	_, staging := h.doSet(t, key, SetClaim{Expect: ClaimCtrl(key), New: ClaimCtrl(key), Extent: va}, 18)
	if _, got, _, answered := doProbe(t, h.harness, key, h.bucket(key), va); !answered || got != staging {
		t.Fatalf("probe of the retired extent: answered %v, pointer %#x; want the new extent %#x", answered, got, staging)
	}

	// A deleted bucket misses too: the delete keeps the key word, but
	// its pointer is the key's freed one, not the extent.
	if run := h.doDelete(t, key, staging); run.verdict != staging {
		t.Fatalf("delete verdict %#x, want the extent it freed %#x", run.verdict, staging)
	}
	if ctrl, got, _, answered := doProbe(t, h.harness, key, h.bucket(key), staging); !answered ||
		ctrl != ClaimCtrl(key) || got != hopscotch.FreedPtr(key) {
		t.Fatalf("probe of a deleted bucket: answered %v, words [%#x, %#x]; want the key's word and its freed pointer",
			answered, ctrl, got)
	}
}
