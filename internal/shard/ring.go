// Package shard places 48-bit keys onto server nodes with a consistent
// hash ring, the routing layer of the scale-out RedN service. Each node
// projects many virtual points onto a 64-bit circle so load spreads
// evenly and adding or removing one node of N remaps only ~1/N of the
// keyspace — the property that lets a running service grow without
// re-sharding the world.
package shard

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// ErrEmptyRing reports a lookup against a ring with no nodes. Callers
// that can empty a ring (a drain of the last node) must check for it;
// the pre-fix behavior was a panic that took the whole simulation down.
var ErrEmptyRing = errors.New("shard: lookup on an empty ring")

// DefaultVirtualNodes is the points-per-node default. 128 keeps the
// per-node share within a few percent of 1/N for small clusters.
const DefaultVirtualNodes = 128

type point struct {
	hash uint64
	node int // index into nodes
}

// Ring is a consistent hash ring. Not safe for concurrent use; the
// simulation engine is single-threaded.
type Ring struct {
	vnodes int
	nodes  []string
	live   map[string]bool
	points []point // sorted by hash

	// The owner table: for every ring point, the first depth distinct
	// nodes clockwise from it, depth entries per point, as node ids and
	// as indexes into nodes. It is built by the first lookup after a
	// membership change and never written again — a change drops it and
	// the next lookup builds a fresh one — so LookupN hands out
	// sub-slices of it and a Clone shares it.
	depth    int
	ownerIDs []string
	ownerIdx []int32
}

// NewRing creates an empty ring with the given number of virtual nodes
// per physical node (<= 0 selects DefaultVirtualNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, live: make(map[string]bool)}
}

// splitmix64 is the avalanche finalizer used throughout the repo for
// deterministic, seed-free hashing.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// hashString folds a node id into 64 bits (FNV-1a, then avalanched).
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return splitmix64(h)
}

// KeyPoint maps a key onto the circle.
func KeyPoint(key uint64) uint64 { return splitmix64(key*0x9E3779B97F4A7C15 + 1) }

// AddNode inserts id with the ring's virtual-node count. Adding an
// existing id is an error (placement must stay deterministic).
func (r *Ring) AddNode(id string) error {
	if r.live[id] {
		return fmt.Errorf("shard: node %q already on the ring", id)
	}
	idx := len(r.nodes)
	r.nodes = append(r.nodes, id)
	r.live[id] = true
	base := hashString(id)
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, point{hash: splitmix64(base + uint64(v)*0xC2B2AE3D27D4EB4F), node: idx})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	r.ownerIDs, r.ownerIdx = nil, nil
	return nil
}

// RemoveNode deletes id's virtual points. Keys it owned redistribute to
// the clockwise successors. The node's slot in the index table is
// compacted away — not tombstoned: leaving the stale entry behind let a
// re-added id appear twice (Nodes() double-listed it and LookupN's old
// dedup-by-index returned the same physical node as two "distinct"
// replica owners), and tombstones accumulated without bound across
// join/drain cycles.
func (r *Ring) RemoveNode(id string) error {
	if !r.live[id] {
		return fmt.Errorf("shard: node %q not on the ring", id)
	}
	delete(r.live, id)
	idx := -1
	for i, n := range r.nodes {
		if n == id {
			idx = i
			break
		}
	}
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node == idx {
			continue
		}
		if p.node > idx {
			p.node--
		}
		kept = append(kept, p)
	}
	r.points = kept
	r.nodes = append(r.nodes[:idx], r.nodes[idx+1:]...)
	r.ownerIDs, r.ownerIdx = nil, nil
	return nil
}

// Nodes returns the live node ids in insertion order.
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}

// Clone returns an independent copy of the ring — the before-change
// snapshot a live resharding migration routes its fallback reads and
// dual writes through.
func (r *Ring) Clone() *Ring {
	c := &Ring{
		vnodes: r.vnodes,
		nodes:  append([]string(nil), r.nodes...),
		live:   make(map[string]bool, len(r.live)),
		points: append([]point(nil), r.points...),
		depth:  r.depth, ownerIDs: r.ownerIDs, ownerIdx: r.ownerIdx,
	}
	for id, v := range r.live {
		c.live[id] = v
	}
	return c
}

// Len returns the number of live nodes.
func (r *Ring) Len() int { return len(r.live) }

// successor returns the index into points of the first point at or
// after h, wrapping.
func (r *Ring) successor(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Lookup returns the node owning key (its clockwise successor on the
// circle), or ErrEmptyRing when no nodes remain.
func (r *Ring) Lookup(key uint64) (string, error) {
	if len(r.points) == 0 {
		return "", ErrEmptyRing
	}
	return r.nodes[r.points[r.successor(KeyPoint(key))].node], nil
}

// LookupN returns the first n distinct nodes clockwise from key —
// replica-aware placement: the primary followed by n-1 backup owners,
// each on a different physical node. n is clamped to the live node
// count; an empty ring returns ErrEmptyRing. The result is a read-only
// view of the owner table, good until the next membership change; its
// capacity equals its length, so appending to it copies.
func (r *Ring) LookupN(key uint64, n int) ([]string, error) {
	at, n, err := r.ownersAt(key, n)
	if err != nil {
		return nil, err
	}
	return r.ownerIDs[at : at+n : at+n], nil
}

// LookupNodes is LookupN by position: the same owners as indexes into
// Nodes(), for callers that keep per-node state in a slice of their own.
func (r *Ring) LookupNodes(key uint64, n int) ([]int32, error) {
	at, n, err := r.ownersAt(key, n)
	if err != nil {
		return nil, err
	}
	return r.ownerIdx[at : at+n : at+n], nil
}

// ownersAt locates key's row of the owner table, (re)building the table
// when a membership change dropped it or n asks for a deeper one.
func (r *Ring) ownersAt(key uint64, n int) (at, clamped int, err error) {
	if len(r.points) == 0 {
		return 0, 0, ErrEmptyRing
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	if r.ownerIDs == nil || n > r.depth {
		r.buildOwners(max(n, min(r.depth, len(r.nodes))))
	}
	return r.successor(KeyPoint(key)) * r.depth, n, nil
}

// buildOwners fills a fresh owner table depth entries deep by walking
// clockwise from every point. Distinctness is by slot in nodes, which
// RemoveNode keeps free of duplicates and tombstones.
func (r *Ring) buildOwners(depth int) {
	ids := make([]string, len(r.points)*depth)
	idx := make([]int32, len(r.points)*depth)
	for p := range r.points {
		row := idx[p*depth : p*depth : (p+1)*depth]
		for i := p; len(row) < depth; i++ {
			if i == len(r.points) {
				i = 0
			}
			node := int32(r.points[i].node)
			if !slices.Contains(row, node) {
				ids[p*depth+len(row)] = r.nodes[node]
				row = append(row, node)
			}
		}
	}
	r.depth, r.ownerIDs, r.ownerIdx = depth, ids, idx
}
