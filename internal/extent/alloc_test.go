//go:build !race

package extent

import (
	"testing"

	"repro/internal/mem"
)

// An Alloc/Free churn that keeps carving fresh chunks makes one Go
// object per chunk, the records of its extents: an extent is indexed
// once, and under noReclaim a freed one is forgotten, so the index
// stays as large as the live set. noReclaim keeps every freed extent
// from being reused, so each run carves afresh.
func TestArenaChurnAllocs(t *testing.T) {
	const chunk, extent = 4096, 64
	a := NewArena(mem.New(64<<20), chunk)
	a.SetNoReclaim(true)
	var ring [8]uint64 // a live set of eight extents, oldest freed first
	for i := range ring {
		ring[i] = a.Alloc(extent, uint64(i+1))
	}
	n := uint64(len(ring))
	carves := 0
	allocs := testing.AllocsPerRun(200, func() {
		for range chunk / extent {
			i := n % uint64(len(ring))
			if err := a.Free(ring[i]); err != nil {
				t.Fatal(err)
			}
			ring[i] = a.Alloc(extent, n+1)
			n++
		}
		carves++
	})
	if st := a.Stats(); st.Footprint < uint64(carves)*chunk {
		t.Fatalf("footprint %d after %d runs: the churn did not carve a chunk per run", st.Footprint, carves)
	}
	if allocs > 1 {
		t.Fatalf("%.0f allocations per fresh chunk, want at most 1", allocs)
	}
}

// Steady-state reuse allocates nothing: a churn over a fixed live set
// of two sizes frees onto and allocates off the free stacks alone.
func TestArenaReuseAllocates(t *testing.T) {
	a := NewArena(mem.New(64<<20), 0)
	var ring [64]uint64
	for i := range ring {
		ring[i] = a.Alloc(uint64(64+64*(i%2)), uint64(i+1))
	}
	n := 0
	allocs := testing.AllocsPerRun(200, func() {
		for range len(ring) {
			i := n % len(ring)
			if err := a.Free(ring[i]); err != nil {
				t.Fatal(err)
			}
			ring[i] = a.Alloc(uint64(64+64*(i%2)), uint64(n))
			n++
		}
	})
	if allocs != 0 {
		t.Fatalf("%.0f allocations per churn run at a fixed live set, want 0", allocs)
	}
	if st := a.Stats(); st.Footprint != 2*defaultChunk {
		t.Fatalf("footprint %d, want one chunk per size (%d)", st.Footprint, 2*defaultChunk)
	}
}
