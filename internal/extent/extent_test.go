package extent

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

func TestArenaAllocFreeRecycle(t *testing.T) {
	m := mem.New(1 << 20)
	a := NewArena(m, 256)

	// Fill one segment exactly, then free it all: the segment must be
	// recycled, not leaked, and the next fill must reuse it.
	var addrs []uint64
	for i := 0; i < 4; i++ {
		addrs = append(addrs, a.Alloc(64, uint64(i)))
	}
	if got := a.LiveBytes(); got != 256 {
		t.Fatalf("live bytes %d, want 256", got)
	}
	// Start a second segment so the first seals.
	extra := a.Alloc(64, 99)
	if a.Stats().Segments != 2 {
		t.Fatalf("segments %d, want 2", a.Stats().Segments)
	}
	for _, ad := range addrs {
		if err := a.Free(ad); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats()
	if st.FreeSegments != 1 {
		t.Fatalf("free segments %d, want 1 after emptying a sealed segment", st.FreeSegments)
	}
	before := st.Footprint
	// Refill: the free segment must absorb the allocations with no new
	// carve.
	for i := 0; i < 7; i++ {
		a.Alloc(64, uint64(100+i))
	}
	st = a.Stats()
	if st.Footprint != before {
		t.Fatalf("footprint grew %d -> %d despite a free segment", before, st.Footprint)
	}
	if st.Recycles == 0 {
		t.Fatal("free segment was never recycled")
	}
	_ = extra
}

func TestArenaDoubleFreeAndBadFree(t *testing.T) {
	m := mem.New(1 << 20)
	a := NewArena(m, 512)
	ad := a.Alloc(64, 1)
	if err := a.Free(ad); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(ad); err == nil {
		t.Fatal("double free not detected")
	}
	if err := a.Free(0xdead0); err == nil {
		t.Fatal("free of a never-allocated address not detected")
	}
}

func TestArenaOversizeAlloc(t *testing.T) {
	m := mem.New(1 << 20)
	a := NewArena(m, 256)
	big := a.Alloc(1000, 7)
	if sz, ok := a.Size(big); !ok || sz < 1000 {
		t.Fatalf("oversize extent %d/%v", sz, ok)
	}
	if err := a.Free(big); err != nil {
		t.Fatal(err)
	}
}

func TestArenaCompactBelow(t *testing.T) {
	m := mem.New(1 << 20)
	a := NewArena(m, 256)
	// Two sealed segments, each kept alive by one 64B extent out of 4.
	var keep, drop []uint64
	for s := 0; s < 2; s++ {
		for i := 0; i < 4; i++ {
			ad := a.Alloc(64, uint64(s*4+i))
			if i == 0 {
				keep = append(keep, ad)
			} else {
				drop = append(drop, ad)
			}
		}
	}
	a.Alloc(64, 999) // third segment becomes active; first two seal
	for _, ad := range drop {
		if err := a.Free(ad); err != nil {
			t.Fatal(err)
		}
	}
	moved := map[uint64]uint64{} // cookie -> new addr
	n, bytes := a.CompactBelow(0.5, func(cookie, addr, size uint64) bool {
		moved[cookie] = a.Alloc(size, cookie)
		return true
	})
	if n != 2 || bytes != 128 {
		t.Fatalf("compaction moved %d extents / %d bytes, want 2/128", n, bytes)
	}
	for _, ad := range keep {
		if a.Live(ad) {
			t.Fatalf("old extent %#x still live after relocation", ad)
		}
	}
	st := a.Stats()
	if st.FreeSegments < 2 {
		t.Fatalf("evacuated segments not recycled (free %d)", st.FreeSegments)
	}
	if st.LiveExtents != 1+len(moved) {
		t.Fatalf("live extents %d, want %d", st.LiveExtents, 1+len(moved))
	}
}

// A freed extent's record serves the next Alloc, and answers only for
// the extent it describes now.
func TestArenaRecordReuse(t *testing.T) {
	a := NewArena(mem.New(1<<20), 256)
	x, y := a.Alloc(64, 1), a.Alloc(64, 2)
	rx := a.byAddr[x]
	if err := a.Free(x); err != nil {
		t.Fatal(err)
	}
	z := a.Alloc(24, 3)
	if a.byAddr[z] != rx || len(a.spare) != 0 {
		t.Fatalf("Alloc after Free made a new record (spare %d)", len(a.spare))
	}
	if a.Live(x) || a.Free(x) == nil {
		t.Fatalf("%#x still answers after its record moved to %#x", x, z)
	}
	if c, _ := a.Cookie(z); c != 3 {
		t.Fatalf("cookie of reused record %d, want 3", c)
	}
	if sz, _ := a.Size(z); sz != 24 {
		t.Fatalf("size of reused record %d, want 24", sz)
	}
	if c, ok := a.Cookie(y); !ok || c != 2 {
		t.Fatalf("neighbour extent disturbed: cookie %d/%v", c, ok)
	}
	// Churn at a fixed live set makes no further records.
	seen := map[*record]bool{a.byAddr[y]: true, a.byAddr[z]: true}
	for i := 0; i < 1000; i++ {
		n := a.Alloc(64, uint64(i))
		if err := a.Free(z); err != nil {
			t.Fatal(err)
		}
		z = n
		seen[a.byAddr[n]] = true
	}
	if len(seen) != 3 {
		t.Fatalf("%d records made for a live set of 2 (+1 in hand-over), want 3", len(seen))
	}
	if a.LiveBytes() != 128 || a.Stats().LiveExtents != 2 {
		t.Fatalf("live %d bytes / %d extents, want 128 / 2", a.LiveBytes(), a.Stats().LiveExtents)
	}
}

// A relocation that frees another survivor of the segment being
// evacuated: compaction must not surface the freed extent, whose record
// is by then the relocated copy's.
func TestArenaCompactBelowSkipsExtentsFreedUnderIt(t *testing.T) {
	a := NewArena(mem.New(1<<20), 256)
	var seg1 [4]uint64
	for i := range seg1 {
		seg1[i] = a.Alloc(64, uint64(i+1))
	}
	a.Alloc(64, 99) // seals the first segment
	if err := a.Free(seg1[3]); err != nil {
		t.Fatal(err)
	}
	var surfaced []uint64
	n, bytes := a.CompactBelow(0.8, func(cookie, addr, size uint64) bool {
		surfaced = append(surfaced, addr)
		if addr == seg1[0] {
			if err := a.Free(seg1[1]); err != nil {
				t.Fatal(err)
			}
		}
		a.Alloc(size, cookie)
		return true
	})
	if n != 2 || bytes != 128 || len(surfaced) != 2 || surfaced[0] != seg1[0] || surfaced[1] != seg1[2] {
		t.Fatalf("moved %d extents / %d bytes, surfaced %#x; want extents 0 and 2 of %#x", n, bytes, surfaced, seg1)
	}
	if st := a.Stats(); st.LiveExtents != 3 || st.LiveBytes != 192 || st.FreeSegments != 1 {
		t.Fatalf("after compaction: %d extents, %d bytes, %d free segments; want 3, 192, 1", st.LiveExtents, st.LiveBytes, st.FreeSegments)
	}
	for _, ad := range seg1 {
		if a.Live(ad) {
			t.Fatalf("old extent %#x still live", ad)
		}
	}
}

// Property: under a randomized alloc/free/compact interleaving the
// arena never double-frees, never hands a live extent's bytes to a new
// allocation, keeps live-byte accounting exact, and keeps its
// footprint bounded once frees keep pace with allocations.
func TestArenaPropertyRandomized(t *testing.T) {
	m := mem.New(64 << 20)
	a := NewArena(m, 1024)
	rng := rand.New(rand.NewSource(7))

	type ext struct{ addr, size uint64 }
	live := map[uint64]ext{} // model: addr -> extent
	overlaps := func(ad, sz uint64) bool {
		for _, e := range live {
			if ad < e.addr+e.size && e.addr < ad+sz {
				return true
			}
		}
		return false
	}
	liveBytes := uint64(0)

	for step := 0; step < 6000; step++ {
		switch r := rng.Intn(10); {
		case r < 5: // alloc
			sz := uint64(8 * (1 + rng.Intn(32)))
			ad := a.Alloc(sz, uint64(step))
			rounded := (sz + 7) &^ 7
			if overlaps(ad, rounded) {
				t.Fatalf("step %d: alloc %#x+%d overlaps a live extent", step, ad, rounded)
			}
			live[ad] = ext{ad, rounded}
			liveBytes += rounded
		case r < 9: // free a random live extent
			for ad, e := range live {
				if err := a.Free(ad); err != nil {
					t.Fatalf("step %d: free of live extent %#x failed: %v", step, ad, err)
				}
				// A second free of the same extent must fail.
				if err := a.Free(ad); err == nil {
					t.Fatalf("step %d: double free of %#x accepted", step, ad)
				}
				delete(live, ad)
				liveBytes -= e.size
				break
			}
		default: // compact, relocating into fresh extents
			a.CompactBelow(0.7, func(cookie, addr, size uint64) bool {
				if rng.Intn(4) == 0 {
					return false // model a declined (busy) relocation
				}
				e, ok := live[addr]
				if !ok {
					t.Fatalf("step %d: compaction surfaced non-live extent %#x", step, addr)
				}
				if rng.Intn(8) == 0 { // a relocation that retires some other extent
					for ad, e := range live {
						if ad == addr {
							continue
						}
						if err := a.Free(ad); err != nil {
							t.Fatalf("step %d: free of live extent %#x under compaction failed: %v", step, ad, err)
						}
						delete(live, ad)
						liveBytes -= e.size
						break
					}
				}
				nad := a.Alloc(size, cookie)
				if overlaps(nad, size) {
					t.Fatalf("step %d: relocation target %#x+%d overlaps a live extent", step, nad, size)
				}
				delete(live, addr)
				live[nad] = ext{nad, e.size}
				return true
			})
		}
		if a.LiveBytes() != liveBytes {
			t.Fatalf("step %d: arena live bytes %d, model %d", step, a.LiveBytes(), liveBytes)
		}
		if a.Stats().LiveExtents != len(live) {
			t.Fatalf("step %d: arena live extents %d, model %d", step, a.Stats().LiveExtents, len(live))
		}
	}
	// With steady-state churn (allocs roughly balancing frees plus
	// periodic compaction) the footprint must stay within a small
	// multiple of the live set, not track cumulative allocations.
	if fp, lb := a.Footprint(), a.LiveBytes(); lb > 0 && fp > 8*lb+16*1024 {
		t.Fatalf("footprint %d unbounded relative to %d live bytes", fp, lb)
	}
}

func TestFreeRingDrain(t *testing.T) {
	m := mem.New(1 << 16)
	r := NewFreeRing(m, 4)
	m.PutU64(r.SlotAddr(1), 0xAA01)
	m.PutU64(r.SlotAddr(1)+8, 0x5000)
	m.PutU64(r.SlotAddr(1)+16, 64)
	m.PutU64(r.SlotAddr(3), 0xAA02)
	m.PutU64(r.SlotAddr(3)+8, 0x6000)
	m.PutU64(r.SlotAddr(3)+16, 32)
	got := map[uint64][2]uint64{}
	if n := r.Drain(func(tag, ad, sz uint64) { got[ad] = [2]uint64{tag, sz} }); n != 2 {
		t.Fatalf("drained %d slots, want 2", n)
	}
	if got[0x5000] != [2]uint64{0xAA01, 64} || got[0x6000] != [2]uint64{0xAA02, 32} {
		t.Fatalf("drained triples %v", got)
	}
	if n := r.Drain(func(tag, ad, sz uint64) {}); n != 0 {
		t.Fatalf("second drain consumed %d slots, want 0 (slots re-zeroed)", n)
	}
}
