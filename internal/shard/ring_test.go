package shard

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func keys(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	return out
}

func mustLookup(t *testing.T, r *Ring, k uint64) string {
	t.Helper()
	id, err := r.Lookup(k)
	if err != nil {
		t.Fatalf("Lookup(%d): %v", k, err)
	}
	return id
}

func mustLookupN(t *testing.T, r *Ring, k uint64, n int) []string {
	t.Helper()
	owners, err := r.LookupN(k, n)
	if err != nil {
		t.Fatalf("LookupN(%d, %d): %v", k, n, err)
	}
	return owners
}

func TestLookupDeterministic(t *testing.T) {
	r1 := NewRing(0)
	r2 := NewRing(0)
	for i := 0; i < 4; i++ {
		r1.AddNode(fmt.Sprintf("s%d", i))
		r2.AddNode(fmt.Sprintf("s%d", i))
	}
	for _, k := range keys(1000) {
		if mustLookup(t, r1, k) != mustLookup(t, r2, k) {
			t.Fatalf("rings with identical membership disagree on key %d", k)
		}
	}
}

func TestAddRemoveErrors(t *testing.T) {
	r := NewRing(8)
	if err := r.AddNode("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddNode("a"); err == nil {
		t.Fatal("duplicate AddNode accepted")
	}
	if err := r.RemoveNode("b"); err == nil {
		t.Fatal("RemoveNode of unknown node accepted")
	}
	if err := r.RemoveNode("a"); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after removing the only node", r.Len())
	}
}

// Lookups on an empty ring must report ErrEmptyRing, not panic — a
// drain of the last node reaches this state and the service layer
// needs a typed error to refuse it gracefully.
func TestEmptyRingLookupError(t *testing.T) {
	r := NewRing(8)
	if _, err := r.Lookup(1); err != ErrEmptyRing {
		t.Fatalf("Lookup on empty ring: err = %v, want ErrEmptyRing", err)
	}
	if _, err := r.LookupN(1, 3); err != ErrEmptyRing {
		t.Fatalf("LookupN on empty ring: err = %v, want ErrEmptyRing", err)
	}
	// A ring emptied by removals behaves like a never-populated one.
	if err := r.AddNode("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveNode("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup(1); err != ErrEmptyRing {
		t.Fatalf("Lookup on drained ring: err = %v, want ErrEmptyRing", err)
	}
}

// The acceptance property: growing an N-node ring to N+1 nodes remaps
// at most 2/N of the keyspace (the expectation is 1/(N+1)).
func TestRebalanceBound(t *testing.T) {
	ks := keys(20000)
	for _, n := range []int{2, 4, 8} {
		r := NewRing(0)
		for i := 0; i < n; i++ {
			r.AddNode(fmt.Sprintf("s%d", i))
		}
		before := make([]string, len(ks))
		for i, k := range ks {
			before[i] = mustLookup(t, r, k)
		}
		r.AddNode("new")
		moved := 0
		for i, k := range ks {
			after := mustLookup(t, r, k)
			if after != before[i] {
				if after != "new" {
					t.Fatalf("key %d moved between pre-existing nodes (%s -> %s)", k, before[i], after)
				}
				moved++
			}
		}
		frac := float64(moved) / float64(len(ks))
		if frac > 2.0/float64(n) {
			t.Fatalf("n=%d: %.3f of keys moved, want <= %.3f", n, frac, 2.0/float64(n))
		}
		if moved == 0 {
			t.Fatalf("n=%d: no keys moved to the new node", n)
		}
	}
}

// Virtual nodes keep per-node load close to uniform.
func TestLoadBalance(t *testing.T) {
	const n = 8
	r := NewRing(0)
	for i := 0; i < n; i++ {
		r.AddNode(fmt.Sprintf("s%d", i))
	}
	counts := map[string]int{}
	ks := keys(40000)
	for _, k := range ks {
		counts[mustLookup(t, r, k)]++
	}
	want := float64(len(ks)) / n
	for id, c := range counts {
		if dev := math.Abs(float64(c)-want) / want; dev > 0.5 {
			t.Fatalf("node %s holds %d keys, %.0f%% off the fair share %v", id, c, dev*100, want)
		}
	}
}

func TestLookupNReplicas(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 5; i++ {
		r.AddNode(fmt.Sprintf("s%d", i))
	}
	for _, k := range keys(500) {
		owners := mustLookupN(t, r, k, 3)
		if len(owners) != 3 {
			t.Fatalf("LookupN returned %d owners", len(owners))
		}
		if owners[0] != mustLookup(t, r, k) {
			t.Fatalf("primary of LookupN disagrees with Lookup")
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("replica set repeats node %s", o)
			}
			seen[o] = true
		}
	}
	if got := mustLookupN(t, r, 1, 99); len(got) != 5 {
		t.Fatalf("LookupN over-asking returned %d, want node count 5", len(got))
	}
}

func TestRemoveRedistributesToSuccessors(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 4; i++ {
		r.AddNode(fmt.Sprintf("s%d", i))
	}
	ks := keys(8000)
	before := make([]string, len(ks))
	for i, k := range ks {
		before[i] = mustLookup(t, r, k)
	}
	r.RemoveNode("s2")
	for i, k := range ks {
		after := mustLookup(t, r, k)
		if before[i] != "s2" && after != before[i] {
			t.Fatalf("key %d moved (%s -> %s) though its owner survived", k, before[i], after)
		}
		if after == "s2" {
			t.Fatalf("key %d still routed to removed node", k)
		}
	}
}

// Regression for the remove-then-re-add bug: RemoveNode used to leave
// the removed id tombstoned in the index table, so AddNode of the same
// id appended a duplicate — Nodes() double-listed it and LookupN's
// dedup-by-index returned the same physical node twice as "distinct"
// replica owners, silently shrinking every quorum by one.
func TestRingReAdd(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 4; i++ {
		if err := r.AddNode(fmt.Sprintf("s%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.RemoveNode("s1"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddNode("s1"); err != nil {
		t.Fatalf("re-adding a removed node: %v", err)
	}
	if got := r.Nodes(); len(got) != 4 {
		t.Fatalf("Nodes() = %v after remove+re-add, want 4 distinct ids", got)
	}
	seen := map[string]bool{}
	for _, id := range r.Nodes() {
		if seen[id] {
			t.Fatalf("Nodes() double-lists %q after remove+re-add", id)
		}
		seen[id] = true
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	// Replica sets must still be physically distinct — the old
	// dedup-by-index bug produced [s1 s1 ...] here.
	for _, k := range keys(2000) {
		owners := mustLookupN(t, r, k, 3)
		if len(owners) != 3 {
			t.Fatalf("key %d: %d owners, want 3", k, len(owners))
		}
		dist := map[string]bool{}
		for _, o := range owners {
			if dist[o] {
				t.Fatalf("key %d: replica set %v repeats %s after remove+re-add", k, owners, o)
			}
			dist[o] = true
		}
	}
	// Placement must match a ring that never saw the churn: membership,
	// not history, determines ownership.
	fresh := NewRing(0)
	for _, id := range []string{"s0", "s2", "s3", "s1"} {
		if err := fresh.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys(2000) {
		if mustLookup(t, r, k) != mustLookup(t, fresh, k) {
			t.Fatalf("key %d: churned ring and fresh ring with identical membership disagree", k)
		}
	}
}

// Churn property test: a long random join/drain sequence must keep
// (a) Nodes() free of duplicates and len(r.nodes) bounded by the live
// count (no tombstone growth), (b) LookupN owners physically distinct,
// and (c) per-step key movement within the ≤2/N consistent-hashing
// bound — after *every* step, not just the single-add case.
func TestRingChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := NewRing(0)
	live := []string{}
	next := 0
	add := func() {
		id := fmt.Sprintf("s%d", next)
		next++
		if err := r.AddNode(id); err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	remove := func(i int) string {
		id := live[i]
		if err := r.RemoveNode(id); err != nil {
			t.Fatal(err)
		}
		live = append(live[:i], live[i+1:]...)
		return id
	}
	for i := 0; i < 3; i++ {
		add()
	}
	ks := keys(4000)
	owner := make(map[uint64]string, len(ks))
	for _, k := range ks {
		owner[k] = mustLookup(t, r, k)
	}
	for step := 0; step < 60; step++ {
		nBefore := len(live)
		joined := ""
		drained := ""
		// Re-adding a previously drained id is part of the property: the
		// historic bug only fired on remove-then-re-add.
		if nBefore <= 2 || (nBefore < 10 && rng.Intn(2) == 0) {
			if nBefore > 0 && rng.Intn(4) == 0 {
				old := fmt.Sprintf("s%d", rng.Intn(next))
				if !r.live[old] {
					if err := r.AddNode(old); err != nil {
						t.Fatal(err)
					}
					live = append(live, old)
					joined = old
				} else {
					add()
					joined = live[len(live)-1]
				}
			} else {
				add()
				joined = live[len(live)-1]
			}
		} else {
			drained = remove(rng.Intn(len(live)))
		}

		// (a) No duplicate ids; index table bounded by live membership.
		ids := r.Nodes()
		if len(ids) != len(live) {
			t.Fatalf("step %d: Nodes() has %d entries, %d nodes live", step, len(ids), len(live))
		}
		seen := map[string]bool{}
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("step %d: Nodes() double-lists %q", step, id)
			}
			seen[id] = true
		}
		if len(r.nodes) != len(r.live) {
			t.Fatalf("step %d: index table has %d slots for %d live nodes (tombstone leak)",
				step, len(r.nodes), len(r.live))
		}
		if r.Len() != len(live) {
			t.Fatalf("step %d: Len() = %d, want %d", step, r.Len(), len(live))
		}

		// (b) Physically distinct replica owners.
		for _, k := range ks[:400] {
			owners := mustLookupN(t, r, k, 3)
			want := 3
			if want > len(live) {
				want = len(live)
			}
			if len(owners) != want {
				t.Fatalf("step %d key %d: %d owners, want %d", step, k, len(owners), want)
			}
			dist := map[string]bool{}
			for _, o := range owners {
				if dist[o] {
					t.Fatalf("step %d key %d: replica set %v repeats %s", step, k, owners, o)
				}
				dist[o] = true
			}
		}

		// (c) Movement bound: only keys touching the churned node move,
		// and no more than 2/N of the keyspace does.
		moved := 0
		for _, k := range ks {
			after := mustLookup(t, r, k)
			if after != owner[k] {
				if joined != "" && after != joined {
					t.Fatalf("step %d (join %s): key %d moved between survivors (%s -> %s)",
						step, joined, k, owner[k], after)
				}
				if drained != "" && owner[k] != drained {
					t.Fatalf("step %d (drain %s): key %d moved though its owner survived (%s -> %s)",
						step, drained, k, owner[k], after)
				}
				moved++
			}
			owner[k] = after
		}
		if nBefore >= 2 {
			if frac := float64(moved) / float64(len(ks)); frac > 2.0/float64(nBefore) {
				t.Fatalf("step %d: %.3f of keys moved, want <= %.3f (N=%d)",
					step, frac, 2.0/float64(nBefore), nBefore)
			}
		}
	}
}

// Clone must be independent: churn on the copy cannot disturb the
// original's placement (the migration planner relies on the before
// snapshot staying frozen while the live ring changes).
func TestRingCloneIndependent(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 4; i++ {
		r.AddNode(fmt.Sprintf("s%d", i))
	}
	ks := keys(3000)
	before := make([]string, len(ks))
	for i, k := range ks {
		before[i] = mustLookup(t, r, k)
	}
	c := r.Clone()
	c.RemoveNode("s0")
	c.AddNode("s9")
	for i, k := range ks {
		if got := mustLookup(t, r, k); got != before[i] {
			t.Fatalf("key %d: original ring changed (%s -> %s) after clone churn", k, before[i], got)
		}
	}
	if c.Len() != 4 || r.Len() != 4 {
		t.Fatalf("Len: clone %d original %d, want 4 and 4", c.Len(), r.Len())
	}
	if mustLookup(t, c, 1) == "" {
		t.Fatal("clone lookup failed")
	}
}

// Property: LookupN returns distinct physical nodes — never the same
// node through two of its virtual points — for every cluster size,
// virtual-node count, and replica degree, including the degenerate
// small rings where consecutive circle points usually belong to one
// node. It must also survive node removal (failover re-routes through
// LookupN on the surviving ring).
func TestLookupNDistinctNodesProperty(t *testing.T) {
	for _, vnodes := range []int{1, 2, 3, DefaultVirtualNodes} {
		for size := 1; size <= 8; size++ {
			r := NewRing(vnodes)
			for i := 0; i < size; i++ {
				if err := r.AddNode(fmt.Sprintf("s%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			check := func(live int) {
				for _, k := range keys(200) {
					for n := 1; n <= live+2; n++ {
						owners := mustLookupN(t, r, k, n)
						want := n
						if want > live {
							want = live
						}
						if len(owners) != want {
							t.Fatalf("vnodes=%d size=%d live=%d n=%d: %d owners, want %d",
								vnodes, size, live, n, len(owners), want)
						}
						seen := map[string]bool{}
						for _, o := range owners {
							if seen[o] {
								t.Fatalf("vnodes=%d size=%d n=%d: node %s repeated in %v",
									vnodes, size, n, o, owners)
							}
							seen[o] = true
						}
					}
				}
			}
			check(size)
			// Remove a node and re-check on the survivors.
			if size > 1 {
				if err := r.RemoveNode("s0"); err != nil {
					t.Fatal(err)
				}
				check(size - 1)
			}
		}
	}
}

// walkLookupN is LookupN as it was before the owner table: walk the
// circle from key's successor collecting distinct node ids. Kept as the
// reference the table is compared against.
func walkLookupN(r *Ring, key uint64, n int) ([]string, error) {
	if len(r.points) == 0 {
		return nil, ErrEmptyRing
	}
	if n > len(r.live) {
		n = len(r.live)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	i := r.successor(KeyPoint(key))
	for len(out) < n {
		id := r.nodes[r.points[i].node]
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
		i++
		if i == len(r.points) {
			i = 0
		}
	}
	return out, nil
}

// checkOwnerTable compares LookupN and LookupNodes with the walk over
// nKeys seeded keys for n in {1, 2, 3, len+1}.
func checkOwnerTable(t *testing.T, r *Ring, rng *rand.Rand, nKeys int, when string) {
	t.Helper()
	nodes := r.Nodes()
	for _, n := range []int{1, 2, 3, r.Len() + 1} {
		for i := 0; i < nKeys; i++ {
			k := rng.Uint64()
			want, werr := walkLookupN(r, k, n)
			got, gerr := r.LookupN(k, n)
			if werr != gerr {
				t.Fatalf("%s: LookupN(%#x, %d) error %v, walk says %v", when, k, n, gerr, werr)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: LookupN(%#x, %d) = %v, walk says %v", when, k, n, got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("%s: LookupN(%#x, %d) has cap %d over len %d: an append would write into the table",
					when, k, n, cap(got), len(got))
			}
			idx, err := r.LookupNodes(k, n)
			if err != gerr || len(idx) != len(want) || cap(idx) != len(idx) {
				t.Fatalf("%s: LookupNodes(%#x, %d) = %v, %v; want %d owners", when, k, n, idx, err, len(want))
			}
			for j, ni := range idx {
				if nodes[ni] != want[j] {
					t.Fatalf("%s: LookupNodes(%#x, %d)[%d] names %q, walk says %q", when, k, n, j, nodes[ni], want[j])
				}
			}
		}
	}
}

func TestOwnerTableMatchesWalk(t *testing.T) {
	const nKeys = 10000
	rng := rand.New(rand.NewSource(17))
	r := NewRing(32)
	checkOwnerTable(t, r, rng, 1, "empty ring")
	next := 0
	var snapshots []*Ring
	for step := 0; step < 24; step++ {
		live := r.Nodes()
		switch {
		case len(live) < 2 || (len(live) < 9 && rng.Intn(3) > 0):
			id := fmt.Sprintf("n%d", next)
			if next > 3 && rng.Intn(4) == 0 {
				id = fmt.Sprintf("n%d", rng.Intn(next)) // maybe a re-add
			}
			if r.AddNode(id) == nil {
				next++
			}
		default:
			if err := r.RemoveNode(live[rng.Intn(len(live))]); err != nil {
				t.Fatal(err)
			}
		}
		checkOwnerTable(t, r, rng, nKeys, fmt.Sprintf("step %d (%v)", step, r.Nodes()))
		if step%6 == 0 {
			snapshots = append(snapshots, r.Clone())
		}
	}
	// A clone answered from the table it shared at Clone time; the
	// parent's later changes must not show through it, nor its through
	// the parent.
	for i, c := range snapshots {
		checkOwnerTable(t, c, rng, nKeys, fmt.Sprintf("clone %d (%v)", i, c.Nodes()))
		if err := c.AddNode("late"); err != nil {
			t.Fatal(err)
		}
		checkOwnerTable(t, c, rng, nKeys/10, fmt.Sprintf("clone %d after its own AddNode", i))
	}
	checkOwnerTable(t, r, rng, nKeys, "parent after the clones changed")
}

func TestLookupNResultIsReadOnlyView(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 5; i++ {
		r.AddNode(fmt.Sprintf("s%d", i))
	}
	const key = 12345
	before := append([]string(nil), mustLookupN(t, r, key, 3)...)
	two := mustLookupN(t, r, key, 2)
	grown := append(two, "intruder")
	if &grown[0] == &two[0] {
		t.Fatal("append to a LookupN result wrote in place")
	}
	if after := mustLookupN(t, r, key, 3); !slices.Equal(after, before) {
		t.Fatalf("owner table changed under an append: %v, was %v", after, before)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := r.LookupN(key, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := r.LookupNodes(key, 3); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("LookupN + LookupNodes allocate %.1f times per call, want 0", allocs)
	}
}
