// Package redn is a Go reproduction of "RDMA is Turing complete, we
// just did not know it yet!" (NSDI 2022): a framework for offloading
// arbitrary computation to commodity RDMA NICs through self-modifying
// chains of work requests — conditionals built from compare-and-swap
// verbs aimed at other verbs' opcodes, loops built from WAIT/ENABLE
// ordering and work-queue recycling.
//
// Since Go has no mature verbs bindings and raw WQE manipulation needs
// vendor hardware, the substrate is a deterministic discrete-event RNIC
// simulator (internal/rnic) faithful to the properties RedN exploits:
// WQEs as bytes in host memory, prefetch incoherence, managed-mode
// fetch barriers, per-WQ processing-unit parallelism, and calibrated
// PCIe/wire timing. See DESIGN.md for the substitution argument and
// EXPERIMENTS.md for paper-versus-measured results.
//
// Quick start:
//
//	tb := redn.NewTestbed()
//	srv := tb.NewServer()
//	table := srv.NewHashTable(1024)
//	table.Set(42, []byte("hello"))
//	cli := tb.NewClient(srv, redn.LookupSingle)
//	val, lat, _ := cli.Get(42, 5)
//
// Beyond the paper, Service scales both offloaded paths out: a
// consistent-hash ring shards keys across N server NICs, each client
// connection keeps K gets and K sets in flight over pools of
// independent offload contexts, and writes claim their candidate
// bucket with a NIC-side CAS on every replica owner (W-of-N quorum, hinted
// handoff across crashes):
//
//	s := redn.NewService(8, 2) // 8 shards, 2 pipelined clients each
//	s.Set(42, []byte("hello")) // fabric write: CAS claim + staged value
//	// val is valid until cb returns; copy it to keep it. A cache hit
//	// hands out the cache's own slice, which must not be modified.
//	s.GetAsync(42, 5, func(val []byte, lat redn.Duration, ok bool) { ... })
//	s.SetAsync(42, []byte("world"), func(lat redn.Duration, err error) { ... })
//	s.Flush()
//	s.Run()
package redn

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/fabric"
	"repro/internal/hopscotch"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/workload"
)

// LookupMode re-exports the offload's collision strategies.
type LookupMode = core.LookupMode

// Lookup modes (see §5.2 of the paper). Clients and services probe one
// bucket or both in sequence; the parallel mode is internal/core's, and
// only the Fig 11 reproduction drives it.
const (
	LookupSingle = core.LookupSingle
	LookupSeq    = core.LookupSeq
)

// Duration is virtual time in nanoseconds.
type Duration = sim.Time

// Testbed is a simulated cluster of back-to-back RDMA nodes.
type Testbed struct {
	clu *fabric.Cluster
	n   int
}

// NewTestbed creates an empty testbed with a fresh virtual clock.
func NewTestbed() *Testbed {
	return &Testbed{clu: fabric.NewCluster()}
}

// Run drains all pending simulated work.
func (t *Testbed) Run() { t.clu.Eng.Run() }

// RunFor advances virtual time by d.
func (t *Testbed) RunFor(d Duration) { t.clu.Eng.RunUntil(t.clu.Eng.Now() + d) }

// Now returns the current virtual time.
func (t *Testbed) Now() Duration { return t.clu.Eng.Now() }

// Engine exposes the discrete-event engine driving the testbed.
func (t *Testbed) Engine() *sim.Engine { return t.clu.Eng }

// stepUntil advances the simulation in fine slices until *done flips
// or no work remains, and reports whether it flipped — the shared
// drive loop of the blocking Set wrappers. Slices stay small so bulk
// preloads cannot skew experiment timelines scheduled in absolute
// virtual time.
func (t *Testbed) stepUntil(done *bool) bool {
	eng := t.clu.Eng
	for !*done && eng.Pending() > 0 {
		eng.RunUntil(eng.Now() + 2*sim.Microsecond)
	}
	return *done
}

// Server is a node hosting RedN offloads.
type Server struct {
	tb   *Testbed
	node *fabric.Node
	// builders holds one builder per NIC port: a connection's pools
	// post through its port's, so its chains run on that port's PUs and
	// fetch unit.
	builders []*core.Builder
	arena    *extent.Arena
	retire   retireQueue // the arena's retired extents, waiting out their readers
}

// NewServer adds a server node (ConnectX-5, one port by default).
func (t *Testbed) NewServer() *Server {
	t.n++
	return newServer(t, t.clu.AddNode(fabric.DefaultNodeConfig(fmt.Sprintf("server%d", t.n))))
}

// newServer serves from node with one builder per NIC port. Nothing
// posts on a builder's own control queue (every pool context sequences
// on a sub-builder of its own), so it is one WQE deep.
func newServer(t *Testbed, node *fabric.Node) *Server {
	srv := &Server{tb: t, node: node}
	for port := range node.Dev.Ports() {
		srv.builders = append(srv.builders, core.NewBuilderOnPort(node.Dev, 1, port))
	}
	return srv
}

// valueArena returns the server's value-extent arena, created on first
// use. Every value the server stores — preloads, host-path writes, and
// the staging extents fabric set chains repoint buckets at — is carved
// from it, so overwrites and deletes can retire their old extents
// instead of leaking them. Every extent carries the value's
// [version, length] header just before the address a bucket names.
func (s *Server) valueArena() *extent.Arena {
	if s.arena == nil {
		s.arena = extent.NewValueArena(s.node.Mem, 0)
		s.retire.arena = s.arena
	}
	return s.arena
}

// retireQueue returns a server's superseded and deleted value extents
// to its arena once no get can still read them. A get's chain gathers
// the value through the pointer its bucket or its hint gave it, so an
// extent unlinked at some instant may still be read by any get issued
// on the server's clients before that instant, and by none issued
// after: every retire follows its repoint (the ack of a fabric write,
// the same instant for a host write). Each get takes the next issue
// mark when it issues and gives it back when it finishes — its answer,
// its miss or its timeout; a timed-out slot stays quarantined until its
// instance has run, so a late gather lands in a buffer nobody reads. An
// extent retired at mark m is freed once every get issued before m has
// finished.
type retireQueue struct {
	arena  *extent.Arena
	issued uint64 // marks handed out: the next get's mark
	oldest uint64 // every get issued before this mark has finished
	// done flags the finished marks in [oldest, issued), at mark mod
	// len(done), a power of two.
	done []bool
	q    ring.Queue[retiree]
}

// retiree is an extent retired at mark.
type retiree struct{ mark, addr uint64 }

// enter hands an issuing get its mark.
func (rq *retireQueue) enter() uint64 {
	if rq.issued-rq.oldest == uint64(len(rq.done)) {
		done := make([]bool, max(64, 2*len(rq.done)))
		for m := rq.oldest; m < rq.issued; m++ {
			done[m&uint64(len(done)-1)] = rq.done[m&uint64(len(rq.done)-1)]
		}
		rq.done = done
	}
	rq.done[rq.issued&uint64(len(rq.done)-1)] = false
	rq.issued++
	return rq.issued - 1
}

// exit finishes the get holding mark and frees every retired extent no
// unfinished get can read.
func (rq *retireQueue) exit(mark uint64) {
	mask := uint64(len(rq.done) - 1)
	rq.done[mark&mask] = true
	for rq.oldest < rq.issued && rq.done[rq.oldest&mask] {
		rq.oldest++
	}
	for rq.q.Len() > 0 && rq.q.Peek().mark <= rq.oldest {
		freeExtent(rq.arena, rq.q.Pop().addr)
	}
}

// push retires the extent at addr: freed now when no get is in flight,
// otherwise once every get in flight now has finished. An address the
// arena never issued (tests plant such extents) is dropped when its
// turn comes; one it has freed already panics (freeExtent).
func (rq *retireQueue) push(addr uint64) {
	if rq.oldest == rq.issued {
		freeExtent(rq.arena, addr)
		return
	}
	*rq.q.Push() = retiree{rq.issued, addr}
}

// freeExtent returns addr to a, dropping an address a never issued and
// panicking on a double free: an extent freed twice was handed to two
// owners, whose values would overwrite each other.
func freeExtent(a *extent.Arena, addr uint64) {
	if err := a.Free(addr); errors.Is(err, extent.ErrDoubleFree) {
		panic(err)
	}
}

// HashTable is a Hopscotch table in server memory, the value store
// behind offloaded gets.
type HashTable struct {
	srv   *Server
	table *hopscotch.Table
}

// NewHashTable allocates a table with nBuckets.
func (s *Server) NewHashTable(nBuckets uint64) *HashTable {
	return &HashTable{srv: s, table: hopscotch.New(s.node.Mem, nBuckets, 0)}
}

// Set stores key (48-bit) -> value at version 0, retiring the key's old
// extent on overwrite (unless the new bytes fit its allocated capacity
// in place).
func (h *HashTable) Set(key uint64, value []byte) error {
	m := h.srv.node.Mem
	a := h.srv.valueArena()
	n := uint64(len(value))
	oldVa, _, hadOld := h.table.Lookup(key)
	if hadOld {
		if cap, live := a.Size(oldVa); live && n <= cap {
			if err := m.Write(oldVa, value); err != nil {
				return err
			}
			extent.PutHead(m, oldVa, 0, n)
			return h.table.Insert(key, oldVa, n)
		}
	}
	addr := a.Alloc(n, key)
	extent.PutHead(m, addr, 0, n)
	if err := m.Write(addr, value); err != nil {
		return err
	}
	if err := h.table.Insert(key, addr, n); err != nil {
		freeExtent(a, addr) // never published: no reader can hold it
		return err
	}
	if hadOld {
		h.srv.retire.push(oldVa)
	}
	return nil
}

// Table exposes the underlying hopscotch table.
func (h *HashTable) Table() *hopscotch.Table { return h.table }

// Value deterministically generates a test payload for key (re-export
// of the workload helper).
func Value(key uint64, size int) []byte { return workload.Value(key, size) }
