// Package baseline implements the systems RedN is evaluated against:
// FaRM-style one-sided gets (two RDMA READs, client-driven), and
// two-sided RPC-over-RDMA servers in polling, event and VMA (kernel-
// bypass sockets) flavors (§5.2.2, §5.4).
package baseline

import (
	"encoding/binary"

	"repro/internal/hopscotch"
	"repro/internal/host"
	"repro/internal/list"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/wqe"
)

// Client-side software costs for one-sided access. FaRM-style clients
// do real work between the two READs: poll the CQ, validate the six
// fetched neighborhood buckets (the "6x overhead for RDMA metadata" of
// §5.2), check versions/consistency, convert endianness and construct
// the follow-up READ. That software gap is why one RTT saved by RedN
// translates into the latency advantage of Fig 10.
const (
	ClientPollDetect = 100 * sim.Nanosecond
	ClientProcess    = 2000 * sim.Nanosecond
)

// Server-side RPC costs for two-sided access.
const (
	// RPCService covers request parse, dispatch, hash lookup and
	// response setup on the server CPU.
	RPCService = 2500 * sim.Nanosecond
	// VMAStackOverhead is LibVMA's extra network-stack processing; VMA
	// also memcpys payloads at both socket boundaries (§5.4: "VMA has
	// to memcpy data from send and receive buffers, further inflating
	// latencies — which is why it performs comparatively worse at
	// higher value sizes").
	VMAStackOverhead   = 1300 * sim.Nanosecond
	VMACopyBytesPerSec = 5e9
)

// OneSidedClient performs FaRM-style gets: READ the Hopscotch
// neighborhood (6 buckets of metadata — the "6x overhead" of §5.2),
// locate the key client-side, then READ the value. A key resident in
// its second candidate bucket costs an extra neighborhood READ.
type OneSidedClient struct {
	Eng   *sim.Engine
	QP    *rnic.QP // client-side QP to the server
	Table *hopscotch.Table

	scratch uint64 // client buffer for neighborhoods
	valBuf  uint64 // client buffer for values
}

// NewOneSidedClient allocates client buffers on qp's device.
func NewOneSidedClient(eng *sim.Engine, qp *rnic.QP, table *hopscotch.Table) *OneSidedClient {
	m := qp.Device().Mem()
	return &OneSidedClient{
		Eng: eng, QP: qp, Table: table,
		scratch: m.Alloc(uint64(table.Neighborhood()*hopscotch.BucketSize), 64),
		valBuf:  m.Alloc(1<<17, 64),
	}
}

// Get starts a one-sided get of key expecting valLen bytes and invokes
// done(latency, ok) when the value READ completes.
func (c *OneSidedClient) Get(key, valLen uint64, done func(sim.Time, bool)) {
	start := c.Eng.Now()
	neighborhood := uint64(c.Table.Neighborhood() * hopscotch.BucketSize)

	var readVal func()
	var probe func(fn int)

	finish := func(ok bool) {
		if done != nil {
			done(c.Eng.Now()-start, ok)
		}
	}

	readVal = func() {
		// The client parsed the neighborhood and found the entry;
		// fetch the value with a second READ.
		va, vl, ok := c.Table.Lookup(key)
		if !ok {
			finish(false)
			return
		}
		if vl > valLen {
			vl = valLen
		}
		c.onCQE(func() { finish(true) })
		c.QP.PostSend(wqe.WQE{Op: wqe.OpRead, Src: va, Dst: c.valBuf, Len: vl,
			Flags: wqe.FlagSignaled})
		c.QP.RingSQ()
	}

	probe = func(fn int) {
		c.onCQE(func() {
			// Poll + scan the fetched neighborhood.
			c.Eng.After(ClientPollDetect+ClientProcess, func() {
				if c.Table.LookupBucket(key) == fn {
					readVal()
				} else if fn == 0 {
					probe(1) // second candidate neighborhood: extra RTT
				} else {
					finish(false)
				}
			})
		})
		c.QP.PostSend(wqe.WQE{Op: wqe.OpRead, Src: c.Table.HashAddr(key, fn),
			Dst: c.scratch, Len: neighborhood, Flags: wqe.FlagSignaled})
		c.QP.RingSQ()
	}
	probe(0)
}

// onCQE registers a one-shot handler for the next send completion.
func (c *OneSidedClient) onCQE(fn func()) {
	fired := false
	c.QP.SendCQ().OnDeliver(func(rnic.CQE) {
		if fired {
			return
		}
		fired = true
		fn()
	})
}

// OneSidedListClient walks a remote linked list with one READ per node
// plus a final value READ (the §5.3 one-sided baseline).
type OneSidedListClient struct {
	Eng  *sim.Engine
	QP   *rnic.QP
	List *list.List

	nodeBuf uint64
	valBuf  uint64
}

// NewOneSidedListClient allocates client buffers.
func NewOneSidedListClient(eng *sim.Engine, qp *rnic.QP, l *list.List) *OneSidedListClient {
	m := qp.Device().Mem()
	return &OneSidedListClient{Eng: eng, QP: qp, List: l,
		nodeBuf: m.Alloc(list.NodeSize, 8), valBuf: m.Alloc(1<<16, 64)}
}

// Get walks the remote list for key, invoking done(latency, hops, ok).
func (c *OneSidedListClient) Get(key uint64, done func(sim.Time, int, bool)) {
	start := c.Eng.Now()
	hops := 0
	srvMem := c.QP.Remote().Device().Mem()

	var step func(addr uint64)
	step = func(addr uint64) {
		if addr == 0 {
			done(c.Eng.Now()-start, hops, false)
			return
		}
		hops++
		c.onCQE(func() {
			c.Eng.After(ClientPollDetect+ClientProcess, func() {
				ctrl, _ := srvMem.U64(addr + list.OffKeyCtrl)
				if _, k := wqe.SplitCtrl(ctrl); k == key&list.KeyMask {
					// Found: fetch the value.
					va, _ := srvMem.U64(addr + list.OffValAddr)
					vl, _ := srvMem.U64(addr + list.OffValLen)
					c.onCQE(func() { done(c.Eng.Now()-start, hops, true) })
					c.QP.PostSend(wqe.WQE{Op: wqe.OpRead, Src: va, Dst: c.valBuf,
						Len: vl, Flags: wqe.FlagSignaled})
					c.QP.RingSQ()
					return
				}
				next, _ := srvMem.U64(addr + list.OffNext)
				step(next)
			})
		})
		c.QP.PostSend(wqe.WQE{Op: wqe.OpRead, Src: addr, Dst: c.nodeBuf,
			Len: list.NodeSize, Flags: wqe.FlagSignaled})
		c.QP.RingSQ()
	}
	step(c.List.Head())
}

func (c *OneSidedListClient) onCQE(fn func()) {
	fired := false
	c.QP.SendCQ().OnDeliver(func(rnic.CQE) {
		if fired {
			return
		}
		fired = true
		fn()
	})
}

// TwoSidedServer is an RPC-over-RDMA server: requests arrive as SENDs,
// a CPU handler resolves them, the response returns as a WRITE to the
// client's buffer. Flavor selects completion handling and stack costs.
type TwoSidedServer struct {
	Eng    *sim.Engine
	CPU    *host.CPU
	QP     *rnic.QP // server side of the client connection
	Lookup func(key uint64) (valAddr, valLen uint64, ok bool)

	Mode host.CompletionMode
	VMA  bool // kernel-bypass sockets: extra stack + memcpy costs

	// ServiceFor, when set, overrides the per-request CPU service time
	// (e.g. list walks whose cost grows with the hop count).
	ServiceFor func(key uint64) sim.Time

	reqBuf uint64
}

// Request wire format: key(8) | valLen(8) | respAddr(8), big-endian.
const requestSize = 24

// Start posts RECVs and attaches the handler. maxRequests bounds the
// pre-posted receive ring.
func (s *TwoSidedServer) Start(maxRequests int) {
	m := s.QP.Device().Mem()
	s.reqBuf = m.Alloc(requestSize, 8)
	slist := m.Alloc(wqe.ScatterEntrySize, 8)
	raw := make([]byte, wqe.ScatterEntrySize)
	wqe.EncodeScatter(raw, []wqe.ScatterEntry{{Addr: s.reqBuf, Len: requestSize}})
	m.Write(slist, raw)
	for i := 0; i < maxRequests; i++ {
		s.QP.PostRecv(uint64(i), slist, 1, true, nil)
	}
	s.CPU.HandleCQ(s.QP.RecvCQ(), s.Mode, 0, func(e rnic.CQE) {
		s.handle(e.Len)
	})
}

func (s *TwoSidedServer) handle(payloadLen uint64) {
	m := s.QP.Device().Mem()
	raw, err := m.Read(s.reqBuf, requestSize)
	if err != nil {
		return
	}
	key := binary.BigEndian.Uint64(raw[0:8])
	valLen := binary.BigEndian.Uint64(raw[8:16])
	respAddr := binary.BigEndian.Uint64(raw[16:24])

	service := RPCService
	if s.ServiceFor != nil {
		service = s.ServiceFor(key)
	}
	if s.VMA {
		service += VMAStackOverhead
		// memcpy in and out of socket buffers.
		service += sim.Time(float64(payloadLen+valLen) / VMACopyBytesPerSec * 1e9)
	}
	s.CPU.Exec(service, func() {
		va, vl, ok := s.Lookup(key)
		if !ok {
			return // miss: no response, clients time out
		}
		if vl > valLen {
			vl = valLen
		}
		s.QP.PostSend(wqe.WQE{Op: wqe.OpWrite, Src: va, Dst: respAddr, Len: vl,
			Flags: wqe.FlagSignaled})
		s.QP.RingSQ()
	})
}

// TwoSidedClient issues requests to a TwoSidedServer and reports
// response latency (detected by the client polling its buffer; modeled
// via the response WRITE's arrival plus a poll-detect delay).
type TwoSidedClient struct {
	Eng *sim.Engine
	QP  *rnic.QP // client side

	respAddr uint64
	reqBuf   uint64
	seq      uint64
}

// NewTwoSidedClient allocates the request/response buffers.
func NewTwoSidedClient(eng *sim.Engine, qp *rnic.QP) *TwoSidedClient {
	m := qp.Device().Mem()
	return &TwoSidedClient{Eng: eng, QP: qp,
		respAddr: m.Alloc(1<<17, 64), reqBuf: m.Alloc(requestSize, 8)}
}

// RespAddr returns the client's response buffer address.
func (c *TwoSidedClient) RespAddr() uint64 { return c.respAddr }

// Get sends one request and invokes done(latency) when the response
// lands (server-side WRITE completion stands in for client detection).
func (c *TwoSidedClient) Get(key, valLen uint64, done func(sim.Time)) {
	m := c.QP.Device().Mem()
	raw := make([]byte, requestSize)
	binary.BigEndian.PutUint64(raw[0:8], key)
	binary.BigEndian.PutUint64(raw[8:16], valLen)
	binary.BigEndian.PutUint64(raw[16:24], c.respAddr)
	m.Write(c.reqBuf, raw)

	start := c.Eng.Now()
	if done != nil {
		srv := c.QP.Remote()
		fired := false
		srv.SendCQ().OnDeliver(func(e rnic.CQE) {
			if fired || e.Op != wqe.OpWrite {
				return
			}
			fired = true
			done(c.Eng.Now() - start)
		})
	}
	c.QP.PostSend(wqe.WQE{Op: wqe.OpSend, Src: c.reqBuf, Len: requestSize,
		Flags: wqe.FlagSignaled})
	c.QP.RingSQ()
	c.seq++
}
