package mem

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
)

// model is node memory as a plain Go slice with the same contract:
// address 0 is invalid, [addr, addr+n) must lie inside the slice.
type model []byte

func (b model) check(addr, n uint64, op string) *AccessError {
	end, carry := bits.Add64(addr, n, 0)
	switch {
	case addr == 0:
		return &AccessError{Addr: addr, Len: n, Op: op, Why: "nil address"}
	case carry != 0 || end > uint64(len(b)):
		return &AccessError{Addr: addr, Len: n, Op: op, Why: "out of bounds"}
	}
	return nil
}

// rmw is the model of the four atomics: read the word, store f's result
// when it differs, return the original.
func (b model) rmw(addr uint64, f func(cur uint64) uint64) (uint64, *AccessError) {
	if e := b.check(addr, 8, "read"); e != nil {
		return 0, e
	}
	cur := binary.BigEndian.Uint64(b[addr:])
	if v := f(cur); v != cur {
		binary.BigEndian.PutUint64(b[addr:], v)
	}
	return cur, nil
}

func sameErr(got error, want *AccessError) bool {
	if want == nil {
		return got == nil
	}
	ae, ok := got.(*AccessError)
	return ok && *ae == *want
}

// Every accessor, at seeded addresses weighted towards the edges —
// address 0, the last byte, one past the end, addr+n wrapping — must
// return the bytes and the AccessErrors a plain slice with the same
// bounds rule does, and leave the same bytes behind.
func TestAccessorsMatchSliceModel(t *testing.T) {
	const size = 1 << 14
	const calls = 200_000
	m, ref := New(size), make(model, size)
	r := rand.New(rand.NewSource(1))

	addrOf := func() uint64 {
		switch r.Intn(8) {
		case 0:
			return uint64(r.Intn(3)) // 0, 1, 2
		case 1:
			return size - 1 - uint64(r.Intn(16)) // the last bytes
		case 2:
			return size + uint64(r.Intn(16)) // one past the end and beyond
		case 3:
			return ^uint64(0) - uint64(r.Intn(64)) // addr+n wraps
		default:
			return uint64(r.Intn(size))
		}
	}
	lenOf := func() uint64 {
		switch r.Intn(8) {
		case 0:
			return 0
		case 1:
			return ^uint64(0) - uint64(r.Intn(64))
		case 2:
			return uint64(r.Intn(size))
		default:
			return uint64(r.Intn(128))
		}
	}
	word := func() uint64 {
		if r.Intn(4) == 0 {
			return uint64(r.Intn(4)) // small, so CAS/Max/Min hit both arms
		}
		return r.Uint64()
	}

	var denied int
	for i := 0; i < calls; i++ {
		addr := addrOf()
		var got, want uint64
		var gotErr error
		var wantErr *AccessError
		op := r.Intn(9)
		switch op {
		case 0: // Read
			n := lenOf()
			var b []byte
			b, gotErr = m.Read(addr, n)
			if wantErr = ref.check(addr, n, "read"); wantErr == nil && !bytes.Equal(b, ref[addr:addr+n]) {
				t.Fatalf("call %d: Read(%#x, %d) bytes differ", i, addr, n)
			}
		case 1: // ReadInto
			dst := make([]byte, min(lenOf(), 2*size))
			gotErr = m.ReadInto(addr, dst)
			if wantErr = ref.check(addr, uint64(len(dst)), "read"); wantErr == nil && !bytes.Equal(dst, ref[addr:addr+uint64(len(dst))]) {
				t.Fatalf("call %d: ReadInto(%#x, %d) bytes differ", i, addr, len(dst))
			}
		case 2: // Write
			src := make([]byte, min(lenOf(), 2*size))
			r.Read(src)
			gotErr = m.Write(addr, src)
			if wantErr = ref.check(addr, uint64(len(src)), "write"); wantErr == nil {
				copy(ref[addr:], src)
			}
		case 3: // U64
			got, gotErr = m.U64(addr)
			want, wantErr = ref.rmw(addr, func(cur uint64) uint64 { return cur })
		case 4: // PutU64
			v := word()
			gotErr = m.PutU64(addr, v)
			if wantErr = ref.check(addr, 8, "write"); wantErr == nil {
				binary.BigEndian.PutUint64(ref[addr:], v)
			}
		case 5: // CompareAndSwap
			old, v := word(), word()
			got, gotErr = m.CompareAndSwap(addr, old, v)
			want, wantErr = ref.rmw(addr, func(cur uint64) uint64 {
				if cur == old {
					return v
				}
				return cur
			})
		case 6: // FetchAdd
			d := word()
			got, gotErr = m.FetchAdd(addr, d)
			want, wantErr = ref.rmw(addr, func(cur uint64) uint64 { return cur + d })
		case 7: // Max
			v := word()
			got, gotErr = m.Max(addr, v)
			want, wantErr = ref.rmw(addr, func(cur uint64) uint64 { return max(cur, v) })
		case 8: // Min
			v := word()
			got, gotErr = m.Min(addr, v)
			want, wantErr = ref.rmw(addr, func(cur uint64) uint64 { return min(cur, v) })
		}
		if !sameErr(gotErr, wantErr) {
			t.Fatalf("call %d: op %d at %#x: error %v, model says %v", i, op, addr, gotErr, wantErr)
		}
		if got != want {
			t.Fatalf("call %d: op %d at %#x: returned %#x, model says %#x", i, op, addr, got, want)
		}
		if wantErr != nil {
			denied++
		}
	}
	if denied < calls/10 || denied > calls*9/10 {
		t.Fatalf("%d of %d calls denied: the address mix no longer covers both sides", denied, calls)
	}
	all, err := m.Read(1, size-1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all, ref[1:]) {
		t.Fatal("memory and model hold different bytes after the run")
	}
}

// A fresh memory reads zeros everywhere, whatever backs it.
func TestFreshMemoryReadsZeros(t *testing.T) {
	const size, chunk = 1 << 27, 1 << 20
	m := New(size)
	zeros, buf := make([]byte, chunk), make([]byte, chunk)
	for addr := uint64(0); addr < size; addr += chunk {
		from, dst := addr, buf
		if addr == 0 {
			from, dst = 1, buf[1:] // address 0 is not readable
		}
		if err := m.ReadInto(from, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, zeros[:len(dst)]) {
			t.Fatalf("fresh memory is not zero in [%#x, %#x)", from, addr+chunk)
		}
	}
}
