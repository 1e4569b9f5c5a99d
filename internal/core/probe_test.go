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
	o := newProbeOffload(h.b, srvQP, respQP)
	srvQP.RecvCQ().SetAutoDrain(true)
	srvQP.SendCQ().SetAutoDrain(true)
	respQP.SendCQ().SetAutoDrain(true)
	return h, table, o, cliQP
}

// doProbe arms one instance, sends the trigger, and reports the version
// landed client-side plus whether the response WRITE completed.
func doProbe(t *testing.T, h *harness, o *ProbeOffload, cliQP *rnic.QP, key, bucketAddr uint64) (uint64, bool) {
	t.Helper()
	respAddr := h.cli.Mem().Alloc(8, 8)
	h.cli.Mem().PutU64(respAddr, 0xDEAD)
	o.Arm()
	o.B.Run()
	payload := o.TriggerPayload(key, bucketAddr, respAddr)
	buf := h.cli.Mem().Alloc(uint64(len(payload)), 8)
	h.cli.Mem().Write(buf, payload)

	answered := false
	o.Resp.SendCQ().OnDeliver(func(e rnic.CQE) {
		if e.Op == wqe.OpWrite && e.WRID == key&hopscotch.KeyMask {
			answered = true
		}
	})
	cliQP.PostSend(wqe.WQE{Op: wqe.OpSend, Src: buf, Len: uint64(len(payload)),
		Flags: wqe.FlagSignaled})
	cliQP.RingSQ()
	h.eng.RunUntil(h.eng.Now() + 400*sim.Microsecond)
	ver, _ := h.cli.Mem().U64(respAddr)
	return ver, answered
}

// A probe of a resident key returns its bucket's version word in one
// NIC round trip; the conditional rejects every other bucket state.
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
	ver, answered := doProbe(t, h, o, cliQP, key, table.BucketAddr(b))
	if !answered {
		t.Fatal("probe of a resident key went unanswered")
	}
	if ver != 17 {
		t.Fatalf("probe returned version %d, want 17", ver)
	}
}

// A probe whose conditional misses — wrong key, tombstone, empty bucket
// — must fall through silently: no response WRITE, client times out.
func TestProbeOffloadConditionalMiss(t *testing.T) {
	h, table, o, cliQP := newProbeHarness(t)
	const key = 42
	if err := table.InsertV(key, 0x4000, 64, 17); err != nil {
		t.Fatal(err)
	}
	b := table.Hash(key, 0)

	// Probing the right bucket for the WRONG key: conditional miss.
	ver, answered := doProbe(t, h, o, cliQP, key+1, table.BucketAddr(b))
	if answered {
		t.Fatal("probe for an absent key was answered")
	}
	if ver == 17 {
		t.Fatal("conditional miss leaked the version word")
	}

	// A tombstoned bucket must miss too (the tombstone word is not
	// NOOP|key), even though its version word carries the delete seq.
	if _, _, ok := table.RemoveV(key, 23); !ok {
		t.Fatal("remove failed")
	}
	if _, answered = doProbe(t, h, o, cliQP, key, table.BucketAddr(b)); answered {
		t.Fatal("probe of a tombstoned bucket was answered")
	}
}
