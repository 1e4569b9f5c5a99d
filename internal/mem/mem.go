// Package mem simulates a node's byte-addressable host memory together
// with the RDMA memory-region (MR) machinery: registration, lkeys/rkeys
// and permission checks. RedN work queues live in this memory as plain
// bytes, which is what makes self-modifying RDMA programs possible —
// verbs can target the WQEs of other verbs.
//
// All multi-byte values are big-endian. The paper modifies Memcached's
// buckets to store addresses in big endian "to match the format used by
// the WR attributes"; we adopt the same convention throughout.
package mem

import (
	"encoding/binary"
	"fmt"
	"runtime"
)

// Perm is an MR access-permission bitmask.
type Perm uint32

// Access permissions, mirroring ibv_access_flags.
const (
	LocalRead Perm = 1 << iota // always implied in real verbs; explicit here
	LocalWrite
	RemoteRead
	RemoteWrite
	RemoteAtomic
)

// RemoteAll grants remote read, write and atomic access.
const RemoteAll = RemoteRead | RemoteWrite | RemoteAtomic

// Region is a registered memory region.
type Region struct {
	Base uint64
	Len  uint64
	LKey uint32
	RKey uint32
	Perm Perm
}

// Contains reports whether [addr, addr+n) lies inside the region.
func (r *Region) Contains(addr, n uint64) bool {
	return addr >= r.Base && addr+n >= addr && addr+n <= r.Base+r.Len
}

// AccessError describes a failed permission or bounds check. It maps to
// the RNIC completing a work request with a protection error status.
type AccessError struct {
	Addr uint64
	Len  uint64
	Op   string
	Why  string
}

func (e *AccessError) Error() string {
	return fmt.Sprintf("mem: %s of %d bytes at %#x denied: %s", e.Op, e.Len, e.Addr, e.Why)
}

// Memory is one node's simulated physical memory plus its MR table and
// a bump allocator. Address 0 is reserved as invalid; allocations start
// at one page.
//
// Where the platform allows, buf is an anonymous private mapping taken
// from the OS (backing_unix.go), not Go heap: a node then costs the
// host only the pages its programs touch, and the mapping is returned
// when the Memory is collected. Two rules keep that safe. No slice of
// buf leaves this package — accessors copy in and out — so nothing can
// outlive the mapping. And every method that dereferences buf ends with
// runtime.KeepAlive(m), so the cleanup cannot unmap under an access
// whose last use of m was loading the slice header.
type Memory struct {
	buf     []byte
	regions []*Region
	nextKey uint32
	next    uint64 // bump allocator cursor
}

const pageSize = 4096

// New returns a zeroed memory of the given size in bytes.
func New(size uint64) *Memory {
	m := &Memory{nextKey: 1, next: pageSize}
	if buf, err := mapAnon(size); err == nil {
		m.buf = buf
		runtime.AddCleanup(m, unmapAnon, buf)
	} else {
		m.buf = make([]byte, size)
	}
	return m
}

// Size returns total memory size in bytes.
func (m *Memory) Size() uint64 { return uint64(len(m.buf)) }

// Alloc reserves size bytes with the given alignment (power of two, or
// 0/1 for none) and returns the base address. It panics when memory is
// exhausted: simulation configs size memory up front.
func (m *Memory) Alloc(size, align uint64) uint64 {
	if align > 1 {
		m.next = (m.next + align - 1) &^ (align - 1)
	}
	base := m.next
	m.next += size
	if m.next > uint64(len(m.buf)) {
		panic(fmt.Sprintf("mem: out of simulated memory (want %d more bytes of %d)", size, len(m.buf)))
	}
	return base
}

// Register registers [base, base+n) as an MR with the given permissions
// and returns it. Registration never fails for in-bounds ranges.
func (m *Memory) Register(base, n uint64, perm Perm) (*Region, error) {
	if base+n < base || base+n > uint64(len(m.buf)) {
		return nil, &AccessError{Addr: base, Len: n, Op: "register", Why: "out of bounds"}
	}
	r := &Region{Base: base, Len: n, LKey: m.nextKey, RKey: m.nextKey | 0x80000000, Perm: perm}
	m.nextKey++
	m.regions = append(m.regions, r)
	return r, nil
}

// Deregister removes a region; subsequent keyed access through it fails.
func (m *Memory) Deregister(r *Region) {
	for i, reg := range m.regions {
		if reg == r {
			m.regions = append(m.regions[:i], m.regions[i+1:]...)
			return
		}
	}
}

// RegionForRKey resolves an rkey to its region.
func (m *Memory) RegionForRKey(rkey uint32) *Region {
	for _, r := range m.regions {
		if r.RKey == rkey {
			return r
		}
	}
	return nil
}

// CheckRemote validates a remote access of n bytes at addr under rkey
// needing perm. rkey 0 is a simulator convenience meaning "any region
// that covers the range and grants perm" (the wrapper library in the
// paper similarly hides key plumbing from offload authors).
func (m *Memory) CheckRemote(addr, n uint64, rkey uint32, perm Perm, op string) error {
	if rkey != 0 {
		r := m.RegionForRKey(rkey)
		if r == nil {
			return &AccessError{Addr: addr, Len: n, Op: op, Why: "bad rkey"}
		}
		if !r.Contains(addr, n) {
			return &AccessError{Addr: addr, Len: n, Op: op, Why: "outside region"}
		}
		if r.Perm&perm != perm {
			return &AccessError{Addr: addr, Len: n, Op: op, Why: "permission denied"}
		}
		return nil
	}
	for _, r := range m.regions {
		if r.Contains(addr, n) && r.Perm&perm == perm {
			return nil
		}
	}
	return &AccessError{Addr: addr, Len: n, Op: op, Why: "no covering region"}
}

// bounds is inlined into every accessor, and the accessors into their
// callers; it builds its error in one place because a second literal
// costs the three inliner-budget units the accessors' KeepAlive needs
// (go build -gcflags=-m=2 prints each cost against the budget of 80).
func (m *Memory) bounds(addr, n uint64, op string) error {
	why := "out of bounds"
	switch {
	case addr == 0:
		why = "nil address"
	case addr+n >= addr && addr+n <= uint64(len(m.buf)):
		return nil
	}
	return &AccessError{Addr: addr, Len: n, Op: op, Why: why}
}

// Read copies n bytes at addr into a fresh slice.
func (m *Memory) Read(addr, n uint64) ([]byte, error) {
	if err := m.bounds(addr, n, "read"); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, m.buf[addr:addr+n])
	runtime.KeepAlive(m)
	return out, nil
}

// ReadInto copies len(dst) bytes at addr into dst.
func (m *Memory) ReadInto(addr uint64, dst []byte) error {
	n := uint64(len(dst))
	if err := m.bounds(addr, n, "read"); err != nil {
		return err
	}
	copy(dst, m.buf[addr:addr+n])
	runtime.KeepAlive(m)
	return nil
}

// Write copies src into memory at addr.
func (m *Memory) Write(addr uint64, src []byte) error {
	n := uint64(len(src))
	if err := m.bounds(addr, n, "write"); err != nil {
		return err
	}
	copy(m.buf[addr:addr+n], src)
	runtime.KeepAlive(m)
	return nil
}

// U64 reads a big-endian uint64 at addr.
func (m *Memory) U64(addr uint64) (uint64, error) {
	if err := m.bounds(addr, 8, "read"); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(m.buf[addr : addr+8])
	runtime.KeepAlive(m)
	return v, nil
}

// PutU64 writes a big-endian uint64 at addr.
func (m *Memory) PutU64(addr uint64, v uint64) error {
	if err := m.bounds(addr, 8, "write"); err != nil {
		return err
	}
	binary.BigEndian.PutUint64(m.buf[addr:addr+8], v)
	runtime.KeepAlive(m)
	return nil
}

// CompareAndSwap atomically (in virtual time; the engine is single
// threaded) compares the big-endian uint64 at addr with old and, when
// equal, stores new. It returns the original value.
func (m *Memory) CompareAndSwap(addr, old, new uint64) (uint64, error) {
	cur, err := m.U64(addr)
	if err != nil {
		return 0, err
	}
	if cur == old {
		if err := m.PutU64(addr, new); err != nil {
			return 0, err
		}
	}
	return cur, nil
}

// FetchAdd atomically adds delta to the big-endian uint64 at addr and
// returns the original value.
func (m *Memory) FetchAdd(addr, delta uint64) (uint64, error) {
	cur, err := m.U64(addr)
	if err != nil {
		return 0, err
	}
	if err := m.PutU64(addr, cur+delta); err != nil {
		return 0, err
	}
	return cur, nil
}

// Max stores max(cur, v) at addr (a Mellanox vendor Calc verb) and
// returns the original value.
func (m *Memory) Max(addr, v uint64) (uint64, error) {
	cur, err := m.U64(addr)
	if err != nil {
		return 0, err
	}
	if v > cur {
		if err := m.PutU64(addr, v); err != nil {
			return 0, err
		}
	}
	return cur, nil
}

// Min stores min(cur, v) at addr and returns the original value.
func (m *Memory) Min(addr, v uint64) (uint64, error) {
	cur, err := m.U64(addr)
	if err != nil {
		return 0, err
	}
	if v < cur {
		if err := m.PutU64(addr, v); err != nil {
			return 0, err
		}
	}
	return cur, nil
}
