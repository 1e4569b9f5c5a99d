package core

import (
	"testing"

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
	_, respQP := h.connect(16)
	o := NewProbePool(h.b, srvQP, []*rnic.QP{respQP}).Ctxs[0]
	srvQP.RecvCQ().SetAutoDrain(true)
	srvQP.SendCQ().SetAutoDrain(true)
	respQP.SendCQ().SetAutoDrain(true)
	return h, table, o, cliQP
}

// doProbe arms one instance, sends the trigger, and reports the bucket
// words landed client-side plus whether the response WRITE completed.
func doProbe(t *testing.T, h *harness, o *ProbeOffload, cliQP *rnic.QP, key, bucketAddr uint64) (ctrl, ver uint64, answered bool) {
	t.Helper()
	respAddr := h.cli.Mem().Alloc(hopscotch.BucketSize, 8)
	h.cli.Mem().PutU64(respAddr+hopscotch.OffVersion, 0xDEAD)
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
	ctrl, _ = h.cli.Mem().U64(respAddr + hopscotch.OffKeyCtrl)
	ver, _ = h.cli.Mem().U64(respAddr + hopscotch.OffVersion)
	return ctrl, ver, answered
}

// A probe of a resident key returns its bucket, key word and version
// word, in one NIC round trip.
func TestProbeOffloadRoundTrip(t *testing.T) {
	h, table, o, cliQP := newProbeHarness(t)
	const key = 42
	if err := table.InsertV(key, 0x4000, 64, 17); err != nil {
		t.Fatal(err)
	}
	b := table.Hash(key, 0)
	if k, _, _, ok := table.EntryAt(b); !ok || k != key {
		t.Fatal("key not at its first candidate — test shape is wrong")
	}
	ctrl, ver, answered := doProbe(t, h, o, cliQP, key, table.BucketAddr(b))
	if !answered {
		t.Fatal("probe of a resident key went unanswered")
	}
	if ctrl != ClaimCtrl(key) || ver != 17 {
		t.Fatalf("probe returned key word %#x, version %d; want %#x and 17", ctrl, ver, ClaimCtrl(key))
	}
}

// A probe of a bucket that does not hold the key — another key, a
// tombstone — answers at once too, with a key word that is not the
// key's: the client reads the miss in one round trip.
func TestProbeOffloadConditionalMiss(t *testing.T) {
	h, table, o, cliQP := newProbeHarness(t)
	const key = 42
	if err := table.InsertV(key, 0x4000, 64, 17); err != nil {
		t.Fatal(err)
	}
	b := table.Hash(key, 0)

	// Probing the right bucket for the WRONG key.
	ctrl, _, answered := doProbe(t, h, o, cliQP, key+1, table.BucketAddr(b))
	if !answered {
		t.Fatal("probe for an absent key went unanswered")
	}
	if ctrl == ClaimCtrl(key+1) {
		t.Fatal("another key's bucket answered the probed key's word")
	}

	// A tombstoned bucket misses too (the tombstone word is not
	// NOOP|key), even though its version word carries the delete seq.
	if _, _, ok := table.RemoveV(key, 23); !ok {
		t.Fatal("remove failed")
	}
	if ctrl, ver, answered := doProbe(t, h, o, cliQP, key, table.BucketAddr(b)); !answered || ctrl != hopscotch.Tombstone || ver != 23 {
		t.Fatalf("probe of a tombstoned bucket: answered %v, key word %#x, version %d; want the tombstone at 23",
			answered, ctrl, ver)
	}
}
