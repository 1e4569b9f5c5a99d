package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/extent"
	"repro/internal/hopscotch"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/wqe"
)

// Every offload program's shape, measured: one armed instance's work
// requests — the RECV on the shared trigger RQ plus the verbs on its
// rings and response queue (data), and the WAIT/ENABLE verbs, on its
// control queues or ahead of an unmanaged step (sync) — and, once a
// trigger SEND has run it, the managed fetches it took from the port's
// serialized fetch unit (the RECV's included), against the literal
// table the cost accounting quotes (Table 2 style). The fetch column is
// what the port-fetch throughput law prices an op at. Arming must also
// post only on QPs that carry the context's op context: a ring left out
// would silently drop its WRs' trace spans, profiler class and receipt
// folds.
func TestProgramShapes(t *testing.T) { checkShapes(t, "") }

// The per-class budgets, each its own rows of the same measured table.
func TestLookupWRBudget(t *testing.T) { checkShapes(t, "get") }
func TestWriteWRBudgets(t *testing.T) { checkShapes(t, "set", "delete") }
func TestProbeWRBudget(t *testing.T)  { checkShapes(t, "probe") }

// A shape's build wires one pooled context of its program, its response
// QPs as the client wires them, and returns the context and a func that
// arms one instance and returns its trigger payload. A shape that runs
// no program returns no context, and its func posts the client's verbs
// and returns no payload.
type shapeBuild func(h *shapeRig) (*chain, func() []byte)

var programShapes = []struct {
	name                string
	data, sync, fetches int
	build               shapeBuild
}{
	{"get single", 4, 6, 4, lookupShape(LookupSingle)},
	{"get seq", 7, 11, 7, lookupShape(LookupSeq)},
	// ArmProbe on a seq context. One WRITE gathers the candidate named
	// and the extent given, no READ or CAS first, and the client checks
	// the key word and the address. Final when posted, it runs from the
	// unmanaged response queue behind its own WAIT on the trigger: the
	// RECV is the one managed fetch.
	{"get hinted H1", 2, 1, 1, hintedShape(0)},
	{"get hinted H2", 2, 1, 1, hintedShape(1)},
	// A locate: the hinted shape at H1 gathering H2's bucket words (16
	// B) where a get gathers its extent, so one WRITE answers both
	// candidates' [keyCtrl, valAddr].
	{"get locate", 2, 1, 1, func(h *shapeRig) (*chain, func() []byte) {
		o := NewLookupPool(h.b, h.trig, h.resp(false), nil, h.table, LookupSeq).Ctxs[0]
		return &o.chain, func() []byte {
			o.ArmProbe(0, h.table.HashAddr(1, 1))
			return o.TriggerPayload(1, 16, h.buf)
		}
	}},
	// Each of the two control queues WAITs on the trigger.
	{"get parallel", 7, 12, 7, lookupShape(LookupParallel)},
	// The key claim (no extent named) swaps NOOP|key for itself and
	// flips valWr. Both CASes are final when posted and run from an
	// unmanaged ring behind WAITs, as the ack does from its queue: of the
	// five data WRs only the RECV and valWr, which the CASes rewrite, are
	// managed fetches.
	{"set overwrite", 5, 8, 2, setShape(0)},
	// One CAS of the bucket's pointer, final when posted: the RECV's
	// fetch alone.
	{"set hinted overwrite", 3, 4, 1, setShape(1)},
	// The pointer CAS, then the publishing WRITE its result arms: the
	// RECV's fetch and the WRITE's.
	{"set fresh", 4, 6, 2, setShape(hopscotch.FreePtr)},
	// The deleted key's re-insert at its own bucket: the hinted
	// overwrite's one CAS, expecting the key's freed pointer beside the
	// key word its delete kept, with no publish.
	{"set re-insert", 3, 4, 1, func(h *shapeRig) (*chain, func() []byte) {
		h.srv.Mem().PutU64(h.bucket+hopscotch.OffValAddr, hopscotch.FreedPtr(1))
		return setShape(hopscotch.FreedPtr(1))(h)
	}},
	// The hinted overwrite's shape, its CAS swapping the key's extent
	// for its freed pointer where a set's swaps in its staging.
	{"delete", 3, 4, 1, func(h *shapeRig) (*chain, func() []byte) {
		o := NewSetPool(h.b, h.trig, h.resp(false), 0, nil).Ctxs[0]
		va, _, _ := h.table.Lookup(1)
		claim := SetClaim{BucketAddr: h.bucket, Extent: va, New: hopscotch.FreedPtr(1)}
		return &o.chain, func() []byte { return o.TriggerPayload(1, claim, 0, 0, h.buf) }
	}},
	// A version probe runs no program: the client's two READs, in order
	// on one connection, of the bucket's [keyCtrl, valAddr] and the
	// header of the extent it expects there. The server posts nothing
	// and its NIC fetches no managed WQE.
	{"probe", 0, 0, 0, func(h *shapeRig) (*chain, func() []byte) {
		va, _, _ := h.table.Lookup(1)
		return nil, func() []byte {
			h.cliTrig.PostSend(wqe.WQE{Op: wqe.OpRead, Src: h.bucket, Dst: h.buf, Len: 16})
			h.cliTrig.PostSend(wqe.WQE{Op: wqe.OpRead, ID: 1, Src: va - extent.HeadBytes, Dst: h.buf + 16,
				Len: extent.HeadBytes, Flags: wqe.FlagSignaled})
			h.cliTrig.RingSQ()
			return nil
		}
	}},
}

// shapeRig is the harness a shape is measured on: a trigger connection,
// a table whose key 1 is resident, and a client buffer for answers.
type shapeRig struct {
	*harness
	cliTrig, trig *rnic.QP
	table         *hopscotch.Table
	bucket        uint64 // key 1's bucket
	buf           uint64 // client-side answer buffer
}

// newShapeRig connects the rig and makes key 1 resident in its table.
func newShapeRig(t *testing.T) *shapeRig {
	h := &shapeRig{harness: newHarness(t)}
	h.cliTrig, h.trig = h.connect(64)
	h.table = hopscotch.New(h.srv.Mem(), 256, 0)
	if err := h.table.InsertAt(1, h.srv.Mem().Alloc(64, 8), 64, 0, 0); err != nil {
		t.Fatal(err)
	}
	h.bucket = h.table.BucketAddr(h.table.Hash(1, 0))
	h.buf = h.cli.Mem().Alloc(16+64, 8) // a hinted get's bucket words precede the value
	return h
}

// resp connects one response QP, managed or not, as a pool's list.
func (h *shapeRig) resp(managed bool) []*rnic.QP {
	_, q := h.connectAs(16, managed)
	return []*rnic.QP{q}
}

// checkShapes measures the rows of programShapes whose names start with
// one of prefixes; "" selects them all.
func checkShapes(t *testing.T, prefixes ...string) {
	for _, sh := range programShapes {
		if !slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(sh.name, p) }) {
			continue
		}
		t.Run(sh.name, func(t *testing.T) {
			h := newShapeRig(t)
			c, arm := sh.build(h)

			var qps []*rnic.QP
			for n := uint32(0); h.srv.QPByNum(n) != nil; n++ {
				qps = append(qps, h.srv.QPByNum(n))
			}
			before := make([]uint64, len(qps))
			for i, q := range qps {
				before[i] = q.SQ().Producer()
			}
			var recvs uint64
			if c != nil {
				recvs = c.B.Expected(h.trig.RecvCQ())
			}
			payload := arm()

			data, sync := 0, 0
			if c != nil {
				data = int(c.B.Expected(h.trig.RecvCQ()) - recvs)
			}
			for i, q := range qps {
				moved := q.SQ().Producer() - before[i]
				if moved == 0 {
					continue
				}
				if c == nil || q.Context() != c.op {
					t.Errorf("arming posted %d WRs on QP %d, which does not carry the context's op context", moved, q.QPN())
				}
				for idx := before[i]; idx < q.SQ().Producer(); idx++ {
					if op := postedOp(t, h.srv, q, idx); op == wqe.OpWait || op == wqe.OpEnable {
						sync++
					} else {
						data++
					}
				}
			}

			fetch := h.srv.Ports()[0].FetchUnit()
			grants := fetch.Grants()
			if payload != nil {
				src := h.cli.Mem().Alloc(uint64(len(payload)), 8)
				if err := h.cli.Mem().Write(src, payload); err != nil {
					t.Fatal(err)
				}
				h.cliTrig.PostSend(wqe.WQE{Op: wqe.OpSend, Src: src, Len: uint64(len(payload))})
				h.cliTrig.RingSQ()
			}
			h.eng.RunUntil(h.eng.Now() + 400*sim.Microsecond)
			fetches := int(fetch.Grants() - grants)

			if data != sh.data || sync != sh.sync || fetches != sh.fetches {
				t.Fatalf("%d data + %d sync WRs, %d managed fetches; want %d + %d, %d",
					data, sync, fetches, sh.data, sh.sync, sh.fetches)
			}
		})
	}
}

// postedOp decodes the opcode of the WQE posted at idx on q's SQ.
func postedOp(t *testing.T, dev *rnic.Device, q *rnic.QP, idx uint64) wqe.Opcode {
	var buf [wqe.Size]byte
	if err := dev.Mem().ReadInto(q.SQSlotAddr(idx), buf[:]); err != nil {
		t.Fatal(err)
	}
	var w wqe.WQE
	w.Decode(buf[:])
	return w.Op
}

// lookupShape builds one pooled get context in mode; parallel takes a
// second response QP.
func lookupShape(mode LookupMode) shapeBuild {
	return func(h *shapeRig) (*chain, func() []byte) {
		var resp2 []*rnic.QP
		if mode == LookupParallel {
			resp2 = h.resp(true)
		}
		o := NewLookupPool(h.b, h.trig, h.resp(true), resp2, h.table, mode).Ctxs[0]
		return &o.chain, func() []byte {
			o.Arm()
			return o.TriggerPayload(1, 64, h.buf)
		}
	}
}

// hintedShape builds one pooled LookupSeq get context, its response
// queue unmanaged, and arms it with a single probe of candidate fn and
// key 1's extent, where key 1 is moved first.
func hintedShape(fn int) shapeBuild {
	return func(h *shapeRig) (*chain, func() []byte) {
		va, vl, _ := h.table.Lookup(1)
		h.table.Remove(1)
		if err := h.table.InsertAt(1, va, vl, fn, 0); err != nil {
			panic(err)
		}
		o := NewLookupPool(h.b, h.trig, h.resp(false), nil, h.table, LookupSeq).Ctxs[0]
		return &o.chain, func() []byte {
			o.ArmProbe(fn, va)
			return o.TriggerPayload(1, 64, h.buf)
		}
	}
}

// setShape builds one pooled set context. Arm only reserves the staging
// extent; TriggerPayload posts the instance in the shape its claim
// selects: the key claim of the resident key 1 (extent 0), its hinted
// overwrite (1: at the extent the table names), a fresh claim
// (hopscotch.FreePtr) or a re-insert (hopscotch.FreedPtr(1)).
func setShape(ext uint64) shapeBuild {
	return func(h *shapeRig) (*chain, func() []byte) {
		o := NewSetPool(h.b, h.trig, h.resp(false), 64, nil).Ctxs[0]
		claim := SetClaim{BucketAddr: h.bucket, Expect: ClaimCtrl(1), New: ClaimCtrl(1), Extent: ext}
		if ext == 1 {
			claim.Extent, _, _ = h.table.Lookup(1)
		}
		return &o.chain, func() []byte {
			o.Arm(1)
			return o.TriggerPayload(1, claim, 8, 1, h.buf)
		}
	}
}

// A set context's trigger RECV scatters into its args ring alone, in
// every shape. Each CAS runs from an unmanaged ring, and the NIC
// snapshots an unmanaged WQE when it prefetches it, so a scatter into
// one — the pointer CAS's compare field, say — would be lost without a
// trace. The chain's trigger carries one 8-byte word per scatter entry,
// so the payload's length gives the RECV's list.
func TestSetTriggerScattersOnlyArgs(t *testing.T) {
	for _, sh := range []struct {
		name  string
		claim func(h *shapeRig) SetClaim
	}{
		{"overwrite", func(h *shapeRig) SetClaim {
			return SetClaim{BucketAddr: h.bucket, Expect: ClaimCtrl(1), New: ClaimCtrl(1)}
		}},
		{"hinted overwrite", func(h *shapeRig) SetClaim {
			va, _, _ := h.table.Lookup(1)
			return SetClaim{BucketAddr: h.bucket, Extent: va}
		}},
		{"fresh", func(h *shapeRig) SetClaim { return SetClaim{BucketAddr: h.bucket, Extent: hopscotch.FreePtr} }},
		{"re-insert", func(h *shapeRig) SetClaim { return SetClaim{BucketAddr: h.bucket, Extent: hopscotch.FreedPtr(1)} }},
		{"delete", func(h *shapeRig) SetClaim {
			va, _, _ := h.table.Lookup(1)
			return SetClaim{BucketAddr: h.bucket, Extent: va, New: hopscotch.FreedPtr(1)}
		}},
	} {
		t.Run(sh.name, func(t *testing.T) {
			h := newShapeRig(t)
			o := NewSetPool(h.b, h.trig, h.resp(false), 64, nil).Ctxs[0]
			lo, hi := o.args, o.args+argsRing*argsBytes
			claim := sh.claim(h)
			src := h.cli.Mem().Alloc(8*wqe.MaxScatter, 8)
			// Every args buffer of the ring, and the first again, each
			// instance run before the next is armed.
			for range argsRing + 1 {
				o.Arm(1)
				payload := o.TriggerPayload(1, claim, 8, 1, h.buf)
				cq := h.trig.RecvCQ()
				var list [recvListBytes]byte
				if err := h.srv.Mem().ReadInto(h.b.listSlot(cq, h.b.Expected(cq)), list[:]); err != nil {
					t.Fatal(err)
				}
				for _, e := range wqe.DecodeScatter(list[:], len(payload)/8) {
					if e.Len != 8 || e.Addr < lo || e.Addr+e.Len > hi {
						t.Fatalf("the trigger scatters %d bytes at %#x, outside the args ring [%#x, %#x)", e.Len, e.Addr, lo, hi)
					}
				}
				if err := h.cli.Mem().Write(src, payload); err != nil {
					t.Fatal(err)
				}
				h.cliTrig.PostSend(wqe.WQE{Op: wqe.OpSend, Src: src, Len: uint64(len(payload))})
				h.cliTrig.RingSQ()
				h.eng.RunUntil(h.eng.Now() + 100*sim.Microsecond)
			}
		})
	}
}
