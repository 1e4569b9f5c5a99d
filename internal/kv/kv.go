// Package kv is the Memcached-like server of §5.4: a two-choice cuckoo
// index (MemC3 style; a hopscotch table with a neighborhood of 1) over
// values in the server's memory, its big-endian buckets laid out for
// the RedN offload to inject. It has no crash lifecycle of its own:
// Crash wires the node's failure.NodeCrash to the host-side service.
package kv

import (
	"repro/internal/fabric"
	"repro/internal/failure"
	"repro/internal/hopscotch"
)

// Store is one server's index and values. up gates host-side service.
type Store struct {
	Table *hopscotch.Table
	node  *fabric.Node
	up    bool
}

// New builds a store whose nBuckets-bucket index lives in node's memory.
func New(node *fabric.Node, nBuckets uint64) *Store {
	return &Store{Table: hopscotch.New(node.Mem, nBuckets, 1), node: node, up: true}
}

// Set stores key -> value: an overwrite reuses the old value's space
// when the new bytes fit, and a new key is placed by the kick walk.
func (s *Store) Set(key uint64, value []byte) error {
	n := uint64(len(value))
	va, vl, ok := s.Table.Lookup(key)
	if !ok || n > vl {
		va = s.node.Mem.Alloc(n, 8)
	}
	if err := s.node.Mem.Write(va, value); err != nil {
		return err
	}
	if ok {
		return s.Table.Insert(key, va, n)
	}
	_, _, err := s.Table.Place(key, va, n)
	return err
}

// Lookup is the host-CPU index lookup the two-sided servers run; it
// misses while the serving process is down.
func (s *Store) Lookup(key uint64) (valAddr, valLen uint64, ok bool) {
	if !s.up {
		return 0, 0, false
	}
	return s.Table.Lookup(key)
}

// Crash is a crash of the store's node whose OnDown and OnUp stop and
// restore host-side service.
func (s *Store) Crash(kind failure.Kind, hullParent bool) failure.NodeCrash {
	return failure.NodeCrash{Node: s.node, Kind: kind, HullParent: hullParent,
		OnDown: func() { s.up = false },
		OnUp:   func() { s.up = true },
	}
}
