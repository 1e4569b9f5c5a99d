package core

import (
	"testing"

	"repro/internal/extent"
	"repro/internal/hopscotch"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/wqe"
)

// probeHarness arms one probe context against a hopscotch table and
// returns a sender.
func newProbeHarness(t *testing.T) (*harness, *hopscotch.Table, *ProbeOffload, *rnic.QP) {
	t.Helper()
	h := newHarness(t)
	table := hopscotch.New(h.srv.Mem(), 256, 0)
	cliQP, srvQP := h.connect(64)
	_, respQP := h.connectAs(16, false)
	o := NewProbePool(h.b, srvQP, []*rnic.QP{respQP}).Ctxs[0]
	srvQP.RecvCQ().SetAutoDrain(true)
	srvQP.SendCQ().SetAutoDrain(true)
	respQP.SendCQ().SetAutoDrain(true)
	return h, table, o, cliQP
}

// doProbe arms one instance expecting the bucket to name ext, sends
// the trigger, and reports the answer landed client-side — the bucket's
// key word and pointer, and the version in the header at ext — plus
// whether the response WRITE completed.
func doProbe(t *testing.T, h *harness, o *ProbeOffload, cliQP *rnic.QP, key, bucketAddr, ext uint64) (ctrl, va, ver uint64, answered bool) {
	t.Helper()
	respAddr := h.cli.Mem().Alloc(32, 8)
	h.cli.Mem().PutU64(respAddr+16, 0xDEAD)
	o.Extent = ext
	payload := o.TriggerPayload(key, bucketAddr, respAddr)
	buf := h.cli.Mem().Alloc(uint64(len(payload)), 8)
	h.cli.Mem().Write(buf, payload)

	o.Resp.SendCQ().OnDeliver(func(e rnic.CQE) {
		if e.Op == wqe.OpWrite && e.WRID == key&hopscotch.KeyMask {
			answered = true
		}
	})
	cliQP.PostSend(wqe.WQE{Op: wqe.OpSend, Src: buf, Len: uint64(len(payload)),
		Flags: wqe.FlagSignaled})
	cliQP.RingSQ()
	h.eng.RunUntil(h.eng.Now() + 400*sim.Microsecond)
	ctrl, _ = h.cli.Mem().U64(respAddr)
	va, _ = h.cli.Mem().U64(respAddr + 8)
	ver, _ = h.cli.Mem().U64(respAddr + 16)
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
// and the version its value's header carries, in one NIC round trip.
func TestProbeOffloadRoundTrip(t *testing.T) {
	h, table, o, cliQP := newProbeHarness(t)
	const key = 42
	va := storeHeaded(t, h, table, key, 17)
	b := table.Hash(key, 0)
	if k, _, _, ok := table.EntryAt(b); !ok || k != key {
		t.Fatal("key not at its first candidate — test shape is wrong")
	}
	ctrl, got, ver, answered := doProbe(t, h, o, cliQP, key, table.BucketAddr(b), va)
	if !answered {
		t.Fatal("probe of a resident key went unanswered")
	}
	if ctrl != ClaimCtrl(key) || got != va || ver != 17 {
		t.Fatalf("probe returned [%#x, %#x], version %d; want [%#x, %#x] and 17", ctrl, got, ver, ClaimCtrl(key), va)
	}
}

// A probe of a bucket that does not hold the key at the extent named —
// another key, a tombstone — answers at once too, with a key word or a
// pointer that is not the one expected: the client reads the miss in
// one round trip.
func TestProbeOffloadConditionalMiss(t *testing.T) {
	h, table, o, cliQP := newProbeHarness(t)
	const key = 42
	va := storeHeaded(t, h, table, key, 17)
	b := table.Hash(key, 0)

	// Probing the right bucket for the WRONG key.
	ctrl, _, _, answered := doProbe(t, h, o, cliQP, key+1, table.BucketAddr(b), va)
	if !answered {
		t.Fatal("probe for an absent key went unanswered")
	}
	if ctrl == ClaimCtrl(key+1) {
		t.Fatal("another key's bucket answered the probed key's word")
	}

	// A tombstoned bucket misses too: its key word is not NOOP|key, and
	// it names the free pointer, not the extent.
	if _, _, ok := table.Remove(key); !ok {
		t.Fatal("remove failed")
	}
	if ctrl, got, _, answered := doProbe(t, h, o, cliQP, key, table.BucketAddr(b), va); !answered ||
		ctrl != hopscotch.Tombstone || got != hopscotch.FreePtr {
		t.Fatalf("probe of a tombstoned bucket: answered %v, words [%#x, %#x]; want the tombstone and the free pointer",
			answered, ctrl, got)
	}
}
