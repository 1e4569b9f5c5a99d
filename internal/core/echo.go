package core

import (
	"repro/internal/rnic"
	"repro/internal/wqe"
)

// The offloaded RPC handler of Fig 3: a client SEND triggers a posted
// chain whose RECV scatters the argument into a response WRITE, which
// the NIC executes with zero server-CPU involvement.
//
// EchoOffload is the unrolled form (the host arms one instance per
// request). RecycledEchoOffload is the WQ-recycling form of §3.4: the
// rings hold exactly one request instance and wrap forever, with ADD
// verbs advancing the WAIT/ENABLE wqe_count fields each pass — after
// setup it needs no host software at all, which is why offloads built
// this way keep serving across process and OS crashes (§5.6).

// EchoOffload answers each client SEND of 8 bytes by writing those
// bytes into the client's pre-registered response buffer.
type EchoOffload struct {
	B        *Builder
	Trig     *rnic.QP // server side of the client connection (managed SQ)
	respAddr uint64
	armed    uint64
}

// NewEchoOffload creates the unrolled-mode echo.
func NewEchoOffload(b *Builder, trig *rnic.QP, respAddr uint64) *EchoOffload {
	return &EchoOffload{B: b, Trig: trig, respAddr: respAddr}
}

// Arm posts one request instance: RECV (scattering the payload into the
// response WRITE's inline-data field) -> WAIT -> ENABLE -> WRITE.
func (o *EchoOffload) Arm() {
	b := o.B
	o.armed++
	resp := b.Post(o.Trig, wqe.WQE{Op: wqe.OpWrite, Dst: o.respAddr, Len: 8,
		Flags: wqe.FlagSignaled | wqe.FlagInline})
	recvTarget := b.ExpectRecv(o.Trig, o.armed, []wqe.ScatterEntry{
		{Addr: resp.FieldAddr(wqe.OffCmp), Len: 8},
	}, nil)
	b.WaitRecv(o.Trig, recvTarget)
	b.Enable(resp)
	b.Ctrl.RingSQ()
}

// RecycledEchoOffload is the CPU-free echo. Its control ring is a
// managed 8-slot queue holding one iteration that re-triggers itself:
//
//	slot 0  WAIT(recvCQ, k)          k += 1 per pass (ADD, slot 2)
//	slot 1  ENABLE(trig, k)          k += 1 per pass (ADD, slot 3)
//	slot 2  ADD +1 -> slot0.Count    (signaled)
//	slot 3  ADD +1 -> slot1.Count    (signaled)
//	slot 4  WAIT(ctrlCQ, 4k-2)       barrier: slots 2-3 applied
//	slot 5  ADD +4 -> slot4.Count    (signaled)
//	slot 6  ADD +8 -> slot7.Count    (signaled)
//	slot 7  ENABLE(ctrl, 8k+16)      wrap: grant the next pass
//
// Placement is subtle (and is exactly the §3.4 overhead the paper
// describes): an ADD that targets a verb fetched soon after it would
// race with that fetch. Maintenance of the head verbs (slots 0-1)
// happens before the tail WAIT, which barriers it; maintenance of the
// tail verbs (slots 4, 7) happens after the tail WAIT fires, when
// those WQEs have already been fetched for this pass — their updated
// counts are only needed a full pass later, far beyond the atomic's
// application latency. Slot 6's ADD racing slot 7's fetch can only
// over-grant the fetch limit, which is harmless: execution remains
// gated by the WAITs.
type RecycledEchoOffload struct {
	B    *Builder
	Trig *rnic.QP
	Ctrl *rnic.QP // the self-recycling managed ring
}

// NewRecycledEchoOffload sets up the recycled echo. maxRequests bounds
// only the pre-posted RECVs; the send rings recycle indefinitely.
// respAddr is the client's pre-registered response buffer.
func NewRecycledEchoOffload(b *Builder, trig *rnic.QP, respAddr uint64, maxRequests int) *RecycledEchoOffload {
	dev := b.Dev
	o := &RecycledEchoOffload{B: b, Trig: trig}
	if trig.SQ().Capacity() != 1 {
		// Ring wrap must bring the ENABLE back to the same WQE: the
		// response ring is sized to the offloaded program, as §5
		// configures ("the WQ size is set to match that of the
		// offloaded program").
		panic("core: recycled echo requires a trigger QP with SQDepth 1")
	}

	// Response ring: ONE WRITE WQE, recycled in place. RECV scatter
	// always injects into this same slot (ring wrap keeps the WQE
	// address stable across passes).
	resp := b.Post(trig, wqe.WQE{Op: wqe.OpWrite, Dst: respAddr, Len: 8,
		Flags: wqe.FlagSignaled | wqe.FlagInline})

	raw := make([]byte, wqe.ScatterEntrySize)
	wqe.EncodeScatter(raw, []wqe.ScatterEntry{{Addr: resp.FieldAddr(wqe.OffCmp), Len: 8}})
	slist := dev.Mem().Alloc(uint64(len(raw)), 8)
	dev.Mem().Write(slist, raw)
	for i := 0; i < maxRequests; i++ {
		trig.PostRecv(uint64(i), slist, 1, true, nil)
	}

	c := dev.NewLoopbackQP(rnic.QPConfig{SQDepth: 8, RQDepth: 1, Managed: true})
	o.Ctrl = c
	slotCount := func(i uint64) uint64 { return c.SQSlotAddr(i) + wqe.OffCount }

	c.PostSend(wqe.WQE{Op: wqe.OpWait, Peer: trig.RecvCQ().CQN(), Count: 1})               // 0
	c.PostSend(wqe.WQE{Op: wqe.OpEnable, Peer: trig.QPN(), Count: resp.Idx + 1})           // 1
	c.PostSend(wqe.WQE{Op: wqe.OpAdd, Dst: slotCount(0), Cmp: 1, Flags: wqe.FlagSignaled}) // 2
	c.PostSend(wqe.WQE{Op: wqe.OpAdd, Dst: slotCount(1), Cmp: 1, Flags: wqe.FlagSignaled}) // 3
	c.PostSend(wqe.WQE{Op: wqe.OpWait, Peer: c.SendCQ().CQN(), Count: 2})                  // 4
	c.PostSend(wqe.WQE{Op: wqe.OpAdd, Dst: slotCount(4), Cmp: 4, Flags: wqe.FlagSignaled}) // 5
	c.PostSend(wqe.WQE{Op: wqe.OpAdd, Dst: slotCount(7), Cmp: 8, Flags: wqe.FlagSignaled}) // 6
	c.PostSend(wqe.WQE{Op: wqe.OpEnable, Peer: c.QPN(), Count: 16})                        // 7
	return o
}

// Run starts the recycled loop: a single host-side enable of the first
// pass. From here on the NIC sustains the loop alone.
func (o *RecycledEchoOffload) Run() {
	o.Ctrl.EnableSQFromHost(8)
}

// WRsPerIteration reports the recycled ring cost: 1 copy (response) +
// 4 atomics + 4 WAIT/ENABLE per request — the overhead Table 2 and
// Table 3 attribute to WQ recycling relative to unrolled chains.
func (o *RecycledEchoOffload) WRsPerIteration() (copies, atomics, sync int) {
	return 1, 4, 4
}
