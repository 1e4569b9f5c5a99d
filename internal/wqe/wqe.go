// Package wqe defines the binary work-queue-element format used by the
// simulated RNIC. WQEs are fixed 64-byte records written into simulated
// host memory; the NIC fetches and decodes them, and — crucially — RDMA
// verbs can target the bytes of *other* WQEs, which is the substrate
// for RedN's self-modifying programs.
//
// The control word at offset 0 packs the opcode into the top 16 bits
// and the freely-modifiable wr_id into the low 48 bits. A 64-bit CAS
// against the control word therefore simultaneously (a) compares a
// 48-bit operand stored in the id field against an expected value and
// (b) rewrites the opcode on success — exactly the conditional-branch
// construction of the paper's §3.3, including its 48-bit operand limit.
package wqe

import (
	"encoding/binary"
	"fmt"
)

// Size is the fixed size of one WQE in bytes.
const Size = 64

// Field byte offsets within a WQE.
const (
	OffCtrl  = 0  // opcode(16) | id(48)
	OffSrc   = 8  // local source address (remote for READ responses)
	OffDst   = 16 // destination address
	OffLen   = 24 // byte count; scatter-entry count for RECV
	OffCmp   = 32 // CAS expected value / ADD delta / inline data / Calc operand
	OffSwap  = 40 // CAS replacement value
	OffCount = 48 // WAIT / ENABLE absolute wqe_count target
	OffFlags = 56 // flag bits | peer queue number
)

// Opcode identifies the verb a WQE executes.
type Opcode uint16

// Verbs. NOOP is deliberately zero so that freshly zeroed ring memory
// decodes as inert WQEs.
const (
	OpNoop Opcode = iota
	OpWrite
	OpWriteImm
	OpRead
	OpSend
	OpRecv
	OpCAS
	OpAdd
	OpMax
	OpMin
	OpWait
	OpEnable
	opSentinel
)

var opNames = [...]string{
	OpNoop:     "NOOP",
	OpWrite:    "WRITE",
	OpWriteImm: "WRITE_IMM",
	OpRead:     "READ",
	OpSend:     "SEND",
	OpRecv:     "RECV",
	OpCAS:      "CAS",
	OpAdd:      "ADD",
	OpMax:      "MAX",
	OpMin:      "MIN",
	OpWait:     "WAIT",
	OpEnable:   "ENABLE",
}

func (o Opcode) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Opcode(%d)", uint16(o))
}

// Valid reports whether o is a defined opcode.
func (o Opcode) Valid() bool { return o < opSentinel }

// Flag bits stored in the low 32 bits of the flags word. The high 32
// bits carry the peer queue number for WAIT/ENABLE and the imm value
// slot for WRITE_IMM-free uses.
type Flags uint64

const (
	FlagSignaled Flags = 1 << iota // produce a CQE on completion
	FlagInline                     // payload is the Cmp field, not memory
	FlagFence                      // wait for prior non-write WRs (unused by RedN, modeled for completeness)
	// FlagScatterDst makes a READ deliver its response through a
	// scatter list (Dst = list address, Count = entry count) instead
	// of one contiguous destination — the multi-SGE responses real
	// verbs provide, which Fig 12's R2 uses to feed both the response
	// WQE and the next iteration's READ from a single node fetch.
	FlagScatterDst
	// FlagGatherSrc makes a WRITE take its payload from a gather list
	// (Src = list address, Count = entry count), the entries' bytes in
	// list order, instead of Len contiguous bytes at Src — the
	// WRITE-side mirror of FlagScatterDst, as multi-SGE sends on real
	// verbs; Len is unused.
	FlagGatherSrc
)

// PeerShift positions the peer queue number in the flags word.
const PeerShift = 32

// MakeFlags combines flag bits with a peer queue number.
func MakeFlags(f Flags, peerQN uint32) uint64 {
	return uint64(f&0xffffffff) | uint64(peerQN)<<PeerShift
}

// SplitFlags separates flag bits and peer queue number.
func SplitFlags(v uint64) (Flags, uint32) {
	return Flags(v & 0xffffffff), uint32(v >> PeerShift)
}

// IDMask masks the 48-bit id portion of a control word.
const IDMask = (uint64(1) << 48) - 1

// MakeCtrl packs an opcode and 48-bit id into a control word.
func MakeCtrl(op Opcode, id uint64) uint64 {
	return uint64(op)<<48 | (id & IDMask)
}

// SplitCtrl unpacks a control word.
func SplitCtrl(v uint64) (Opcode, uint64) {
	return Opcode(v >> 48), v & IDMask
}

// WQE is the decoded form of a work-queue element.
type WQE struct {
	Op    Opcode
	ID    uint64 // 48-bit freely modifiable field; conditional operand storage
	Src   uint64
	Dst   uint64
	Len   uint64
	Cmp   uint64 // CAS "old" / ADD delta / inline imm / Calc operand
	Swap  uint64 // CAS "new"
	Count uint64 // WAIT/ENABLE absolute target (monotonic, never wraps)
	Flags Flags
	Peer  uint32 // peer queue number for WAIT (CQ) / ENABLE (WQ)
}

// Signaled reports whether the WQE requests a completion entry.
func (w *WQE) Signaled() bool { return w.Flags&FlagSignaled != 0 }

// Inline reports whether the payload rides in the Cmp field.
func (w *WQE) Inline() bool { return w.Flags&FlagInline != 0 }

// Encode serializes w into dst, which must be at least Size bytes.
func (w *WQE) Encode(dst []byte) {
	_ = dst[Size-1]
	binary.BigEndian.PutUint64(dst[OffCtrl:], MakeCtrl(w.Op, w.ID))
	binary.BigEndian.PutUint64(dst[OffSrc:], w.Src)
	binary.BigEndian.PutUint64(dst[OffDst:], w.Dst)
	binary.BigEndian.PutUint64(dst[OffLen:], w.Len)
	binary.BigEndian.PutUint64(dst[OffCmp:], w.Cmp)
	binary.BigEndian.PutUint64(dst[OffSwap:], w.Swap)
	binary.BigEndian.PutUint64(dst[OffCount:], w.Count)
	binary.BigEndian.PutUint64(dst[OffFlags:], MakeFlags(w.Flags, w.Peer))
}

// Decode parses src (at least Size bytes) into w.
func (w *WQE) Decode(src []byte) {
	_ = src[Size-1]
	w.Op, w.ID = SplitCtrl(binary.BigEndian.Uint64(src[OffCtrl:]))
	w.Src = binary.BigEndian.Uint64(src[OffSrc:])
	w.Dst = binary.BigEndian.Uint64(src[OffDst:])
	w.Len = binary.BigEndian.Uint64(src[OffLen:])
	w.Cmp = binary.BigEndian.Uint64(src[OffCmp:])
	w.Swap = binary.BigEndian.Uint64(src[OffSwap:])
	w.Count = binary.BigEndian.Uint64(src[OffCount:])
	w.Flags, w.Peer = SplitFlags(binary.BigEndian.Uint64(src[OffFlags:]))
}

// Bytes returns a fresh Size-byte encoding of w.
func (w *WQE) Bytes() []byte {
	b := make([]byte, Size)
	w.Encode(b)
	return b
}

func (w *WQE) String() string {
	switch w.Op {
	case OpWait:
		return fmt.Sprintf("WAIT(cq=%d,count=%d)", w.Peer, w.Count)
	case OpEnable:
		return fmt.Sprintf("ENABLE(wq=%d,count=%d)", w.Peer, w.Count)
	case OpCAS:
		return fmt.Sprintf("CAS(dst=%#x,old=%#x,new=%#x)", w.Dst, w.Cmp, w.Swap)
	default:
		return fmt.Sprintf("%s(id=%#x,src=%#x,dst=%#x,len=%d)", w.Op, w.ID, w.Src, w.Dst, w.Len)
	}
}

// ScatterEntry is one element of a RECV scatter list. RECV WQEs point
// (via Src) at an array of these in host memory; the paper notes RECVs
// can perform at most 16 scatters, which MaxScatter enforces.
type ScatterEntry struct {
	Addr uint64
	Len  uint64
}

// MaxScatter is the maximum number of scatter entries per RECV.
const MaxScatter = 16

// ScatterEntrySize is the encoded size of one scatter entry.
const ScatterEntrySize = 16

// EncodeScatter writes entries to dst (ScatterEntrySize bytes each).
func EncodeScatter(dst []byte, entries []ScatterEntry) {
	for i, e := range entries {
		binary.BigEndian.PutUint64(dst[i*ScatterEntrySize:], e.Addr)
		binary.BigEndian.PutUint64(dst[i*ScatterEntrySize+8:], e.Len)
	}
}

// DecodeScatter reads n entries from src.
func DecodeScatter(src []byte, n int) []ScatterEntry {
	out := make([]ScatterEntry, n)
	for i := range out {
		out[i].Addr = binary.BigEndian.Uint64(src[i*ScatterEntrySize:])
		out[i].Len = binary.BigEndian.Uint64(src[i*ScatterEntrySize+8:])
	}
	return out
}
