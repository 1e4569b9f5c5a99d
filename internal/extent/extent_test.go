package extent

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// Freed extents are the next allocations of their size, most recently
// freed first, and absorb them with no new carve.
func TestArenaAllocFreeRecycle(t *testing.T) {
	a := NewArena(mem.New(1<<20), 256)
	var addrs []uint64
	for i := 0; i < 4; i++ {
		addrs = append(addrs, a.Alloc(64, uint64(i)))
	}
	before := a.Stats().Footprint
	if before != 256 {
		t.Fatalf("footprint %d after filling one chunk, want 256", before)
	}
	for _, ad := range addrs {
		if err := a.Free(ad); err != nil {
			t.Fatal(err)
		}
	}
	for i := 3; i >= 0; i-- {
		if got := a.Alloc(64, uint64(100+i)); got != addrs[i] {
			t.Fatalf("Alloc reused %#x, want the most recently freed %#x", got, addrs[i])
		}
	}
	if st := a.Stats(); st.Footprint != before || st.LiveBytes != 256 {
		t.Fatalf("footprint %d live %d after refilling from the free stack, want %d / 256", st.Footprint, st.LiveBytes, before)
	}
	// Another size never takes a freed extent of this one.
	if err := a.Free(addrs[0]); err != nil {
		t.Fatal(err)
	}
	if got := a.Alloc(32, 7); got == addrs[0] {
		t.Fatalf("a 32-byte Alloc took the freed 64-byte extent %#x", got)
	}
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

// A freed extent's record serves the next Alloc of its size, and
// answers only while its extent is live.
func TestArenaRecordReuse(t *testing.T) {
	a := NewArena(mem.New(1<<20), 256)
	x, y := a.Alloc(64, 1), a.Alloc(64, 2)
	rx := a.byAddr[x]
	if err := a.Free(x); err != nil {
		t.Fatal(err)
	}
	if _, live := a.Size(x); live || a.Free(x) == nil {
		t.Fatalf("%#x still answers after its free", x)
	}
	z := a.Alloc(64, 3)
	if z != x || a.byAddr[z] != rx {
		t.Fatalf("Alloc after Free made a new record (%#x, want %#x)", z, x)
	}
	if sz, _ := a.Size(z); sz != 64 {
		t.Fatalf("size of reused record %d, want 64", sz)
	}
	if sz, ok := a.Size(y); !ok || sz != 64 {
		t.Fatalf("neighbour extent disturbed: size %d/%v", sz, ok)
	}
	// Churn at a fixed live set makes no further records.
	for i := 0; i < 1000; i++ {
		n := a.Alloc(64, uint64(i))
		if err := a.Free(z); err != nil {
			t.Fatal(err)
		}
		z = n
	}
	if len(a.byAddr) != 3 {
		t.Fatalf("%d records made for a live set of 2 (+1 in hand-over), want 3", len(a.byAddr))
	}
	if a.Stats().LiveBytes != 128 || a.Stats().LiveExtents != 2 {
		t.Fatalf("live %d bytes / %d extents, want 128 / 2", a.Stats().LiveBytes, a.Stats().LiveExtents)
	}
}

// Property: random Alloc/Free histories over three sizes, checked
// against a model. No address is live twice, Free of an address that
// is not live errors, live accounting is exact, and the footprint stays
// within each size's peak live bytes rounded up to a chunk. The same
// history on a NoReclaim arena never hands out an address twice.
func TestArenaPropertyRandomized(t *testing.T) {
	const chunk = 1024
	sizes := []uint64{24, 64, 200}
	for seed := int64(1); seed <= 20; seed++ {
		for _, noReclaim := range []bool{false, true} {
			a := NewArena(mem.New(64<<20), chunk)
			a.SetNoReclaim(noReclaim)
			rng := rand.New(rand.NewSource(seed))
			live := map[uint64]uint64{}   // model: addr -> size
			ever := map[uint64]bool{}     // every address handed out
			liveOf := map[uint64]uint64{} // per size: live bytes
			peakOf := map[uint64]uint64{} // per size: peak live bytes
			var liveBytes uint64
			var order []uint64 // live addresses, for picking one at random
			for step := 0; step < 3000; step++ {
				if len(order) == 0 || rng.Intn(100) < 52 {
					sz := sizes[rng.Intn(len(sizes))]
					ad := a.Alloc(sz, uint64(step))
					for la, ls := range live {
						if ad < la+ls && la < ad+sz {
							t.Fatalf("seed %d step %d: alloc %#x+%d overlaps live %#x+%d", seed, step, ad, sz, la, ls)
						}
					}
					if noReclaim && ever[ad] {
						t.Fatalf("seed %d step %d: NoReclaim reused %#x", seed, step, ad)
					}
					ever[ad] = true
					live[ad] = sz
					order = append(order, ad)
					liveBytes += sz
					liveOf[sz] += sz
					peakOf[sz] = max(peakOf[sz], liveOf[sz])
				} else {
					i := rng.Intn(len(order))
					ad := order[i]
					order[i] = order[len(order)-1]
					order = order[:len(order)-1]
					if err := a.Free(ad); err != nil {
						t.Fatalf("seed %d step %d: free of live %#x: %v", seed, step, ad, err)
					}
					if a.Free(ad) == nil {
						t.Fatalf("seed %d step %d: double free of %#x accepted", seed, step, ad)
					}
					sz := live[ad]
					delete(live, ad)
					liveBytes -= sz
					liveOf[sz] -= sz
				}
				if bad := uint64(8 * (1 + rng.Intn(1<<20))); live[bad] == 0 && a.Free(bad) == nil {
					t.Fatalf("seed %d step %d: free of non-live %#x accepted", seed, step, bad)
				}
				st := a.Stats()
				if st.LiveBytes != liveBytes || st.LiveExtents != len(live) {
					t.Fatalf("seed %d step %d: arena live %d bytes / %d extents, model %d / %d",
						seed, step, st.LiveBytes, st.LiveExtents, liveBytes, len(live))
				}
				if noReclaim {
					continue
				}
				var bound uint64
				for _, sz := range sizes {
					per := chunk / sz * sz
					bound += (peakOf[sz] + per - 1) / per * per
				}
				if st.Footprint > bound {
					t.Fatalf("seed %d step %d: footprint %d over the per-size peak live rounded up to a chunk (%d)", seed, step, st.Footprint, bound)
				}
			}
		}
	}
}

// Free tells a double free from a bad free: only an extent the arena
// issued and has freed since is ErrDoubleFree.
func TestArenaFreeNamesADoubleFree(t *testing.T) {
	a := NewArena(mem.New(1<<20), 512)
	ad := a.Alloc(64, 1)
	if err := a.Free(ad); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(ad); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("second free: %v, want ErrDoubleFree", err)
	}
	if err := a.Free(0xdead0); err == nil || errors.Is(err, ErrDoubleFree) {
		t.Fatalf("free of a never-issued address: %v, want a bad free that is not ErrDoubleFree", err)
	}
}
