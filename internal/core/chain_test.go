package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/hopscotch"
	"repro/internal/rnic"
)

// Every offload program's shape, measured: one armed instance's work
// requests — the RECV on the shared trigger RQ plus the data verbs on
// its rings (data), and the WAIT/ENABLE verbs on its control queues
// (sync) — against the literal table the cost accounting quotes (Table
// 2 style). Arming must also post only on QPs in the context's tagged
// ring set: a ring missing from it would silently drop its WRs' trace
// spans and receipt folds.
func TestProgramShapes(t *testing.T) { checkShapes(t, "") }

// The per-class budgets, each its own rows of the same measured table.
func TestLookupWRBudget(t *testing.T) { checkShapes(t, "get") }
func TestWriteWRBudgets(t *testing.T) { checkShapes(t, "set", "delete") }
func TestProbeWRBudget(t *testing.T)  { checkShapes(t, "probe") }

var programShapes = []struct {
	name       string
	data, sync int
	build      func(h *harness, trig *rnic.QP, resp []*rnic.QP) (*chain, func())
}{
	{"get single", 4, 6, lookupShape(LookupSingle)},
	{"get seq", 7, 11, lookupShape(LookupSeq)},
	// Each of the two control queues WAITs on the trigger.
	{"get parallel", 7, 12, lookupShape(LookupParallel)},
	// An overwrite's claim installs the published word itself: no pubCAS.
	{"set overwrite", 5, 8, setShape(SetClaim{BucketAddr: 0x1000, Expect: ClaimCtrl(1), New: ClaimCtrl(1)})},
	{"set fresh", 6, 10, setShape(SetClaim{BucketAddr: 0x1000, New: ClaimPendingCtrl(1)})},
	// Two verbs past the set chain: the price of stamping a
	// tombstone's version conditionally.
	{"delete", 8, 14, func(h *harness, trig *rnic.QP, resp []*rnic.QP) (*chain, func()) {
		o := NewDeletePool(h.b, trig, resp[:1]).Ctxs[0]
		return &o.chain, o.Arm
	}},
	{"probe", 4, 6, func(h *harness, trig *rnic.QP, resp []*rnic.QP) (*chain, func()) {
		o := NewProbePool(h.b, trig, resp[:1]).Ctxs[0]
		return &o.chain, o.Arm
	}},
}

// checkShapes measures the rows of programShapes whose names start with
// one of prefixes; "" selects them all.
func checkShapes(t *testing.T, prefixes ...string) {
	for _, sh := range programShapes {
		if !slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(sh.name, p) }) {
			continue
		}
		t.Run(sh.name, func(t *testing.T) {
			h := newHarness(t)
			_, trig := h.connect(64)
			_, r1 := h.connect(16)
			_, r2 := h.connect(16)
			c, arm := sh.build(h, trig, []*rnic.QP{r1, r2})

			var qps []*rnic.QP
			for n := uint32(0); h.srv.QPByNum(n) != nil; n++ {
				qps = append(qps, h.srv.QPByNum(n))
			}
			before := make([]uint64, len(qps))
			for i, q := range qps {
				before[i] = q.SQ().Producer()
			}
			recvs := c.B.Expected(trig.RecvCQ())
			arm()

			data, sync := int(c.B.Expected(trig.RecvCQ())-recvs), 0
			for i, q := range qps {
				moved := int(q.SQ().Producer() - before[i])
				if moved == 0 {
					continue
				}
				tagged := false
				for _, r := range c.rings[:c.nrings] {
					tagged = tagged || r == q
				}
				if !tagged {
					t.Errorf("arming posted %d WRs on QP %d, which is not in the tagged ring set", moved, q.QPN())
				}
				if q == c.B.Ctrl || (c.b2 != nil && q == c.b2.Ctrl) {
					sync += moved
				} else {
					data += moved
				}
			}
			if data != sh.data || sync != sh.sync {
				t.Fatalf("%d data + %d sync WRs, want %d + %d", data, sync, sh.data, sh.sync)
			}
		})
	}
}

// lookupShape builds one pooled get context in mode; parallel takes the
// second response QP.
func lookupShape(mode LookupMode) func(h *harness, trig *rnic.QP, resp []*rnic.QP) (*chain, func()) {
	return func(h *harness, trig *rnic.QP, resp []*rnic.QP) (*chain, func()) {
		var resp2 []*rnic.QP
		if mode == LookupParallel {
			resp2 = resp[1:2]
		}
		table := hopscotch.New(h.srv.Mem(), 256, 0)
		o := NewLookupPool(h.b, trig, resp[:1], resp2, table, mode).Ctxs[0]
		return &o.chain, o.Arm
	}
}

// setShape builds one pooled set context. Arm only reserves the staging
// extent; TriggerPayload posts the instance in the shape claim selects.
func setShape(claim SetClaim) func(h *harness, trig *rnic.QP, resp []*rnic.QP) (*chain, func()) {
	return func(h *harness, trig *rnic.QP, resp []*rnic.QP) (*chain, func()) {
		o := NewSetPool(h.b, trig, resp[:1], 64, nil).Ctxs[0]
		return &o.chain, func() {
			o.Arm(1)
			o.TriggerPayload(1, claim, 8, 1, 0)
		}
	}
}
