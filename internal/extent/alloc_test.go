//go:build !race

package extent

import (
	"testing"

	"repro/internal/mem"
)

// An Alloc/Free churn that keeps carving fresh segments makes one Go
// object per segment, the segment itself: a live extent is indexed once,
// in a map that stays as large as the live set. (The sealed list's
// doubling amortizes below one object per run.) noReclaim keeps every
// filled segment from being reused, so each run carves afresh.
func TestArenaChurnAllocs(t *testing.T) {
	const segSize, extent = 4096, 64
	a := NewArena(mem.New(64<<20), segSize)
	a.SetNoReclaim(true)
	var ring [8]uint64 // a live set of eight extents, oldest freed first
	for i := range ring {
		ring[i] = a.Alloc(extent, uint64(i+1))
	}
	n := uint64(len(ring))
	carves := 0
	allocs := testing.AllocsPerRun(200, func() {
		for range segSize / extent {
			i := n % uint64(len(ring))
			if err := a.Free(ring[i]); err != nil {
				t.Fatal(err)
			}
			ring[i] = a.Alloc(extent, n+1)
			n++
		}
		carves++
	})
	if st := a.Stats(); st.Segments < carves {
		t.Fatalf("%d segments after %d runs: the churn did not carve one per run", st.Segments, carves)
	}
	if allocs > 1 {
		t.Fatalf("%.0f allocations per fresh segment, want at most 1", allocs)
	}
}
