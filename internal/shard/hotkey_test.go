package shard

import (
	"math/rand"
	"sort"
	"testing"
)

// A skewed stream's dominant keys must all be tracked, with counts in
// rank order.
func TestHotKeysTracksSkew(t *testing.T) {
	h := NewHotKeys(8)
	// 3 hot keys with distinct frequencies over a churning cold tail.
	for round := 0; round < 1000; round++ {
		h.Touch(1)
		h.Touch(1)
		h.Touch(1)
		h.Touch(2)
		h.Touch(2)
		h.Touch(3)
		h.Touch(uint64(1000 + round)) // cold, never repeats
	}
	for _, hot := range []uint64{1, 2, 3} {
		if !h.Tracked(hot) {
			t.Fatalf("hot key %d not tracked", hot)
		}
	}
	if !(h.Count(1) > h.Count(2) && h.Count(2) > h.Count(3)) {
		t.Fatalf("counts out of rank order: %d %d %d", h.Count(1), h.Count(2), h.Count(3))
	}
	// Space-saving overestimates but never undercounts a tracked key.
	if h.Count(1) < 3000 {
		t.Fatalf("count(1) = %d, want >= its 3000 true accesses", h.Count(1))
	}
	if h.Len() > h.Cap() {
		t.Fatalf("tracker grew past capacity: %d > %d", h.Len(), h.Cap())
	}
}

// Touch reports the displaced key exactly when the sketch is full and
// the touched key is new.
func TestHotKeysEviction(t *testing.T) {
	h := NewHotKeys(2)
	if _, ev := h.Touch(10); ev {
		t.Fatal("eviction from a non-full sketch")
	}
	h.Touch(10) // 10: 2
	if _, ev := h.Touch(20); ev {
		t.Fatal("eviction while filling")
	}
	evicted, ev := h.Touch(30) // must displace 20 (count 1), not 10 (count 2)
	if !ev || evicted != 20 {
		t.Fatalf("evicted %d (%v), want 20", evicted, ev)
	}
	// The newcomer inherits min+1, keeping it sticky against the tail.
	if h.Count(30) != 2 {
		t.Fatalf("count(30) = %d, want min+1 = 2", h.Count(30))
	}
	if h.Tracked(20) {
		t.Fatal("evicted key still tracked")
	}
}

// Eviction must be deterministic under count ties despite map order:
// the smallest key goes.
func TestHotKeysDeterministicTieBreak(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		h := NewHotKeys(4)
		for _, k := range []uint64{7, 3, 9, 5} {
			h.Touch(k) // all count 1
		}
		evicted, ev := h.Touch(100)
		if !ev || evicted != 3 {
			t.Fatalf("trial %d: evicted %d, want smallest tied key 3", trial, evicted)
		}
	}
}

// scanHotKeys is the tracker as it was first written — one map, and a
// linear scan for the (min count, smallest key) victim. It is the
// reference the heap must agree with, eviction for eviction.
type scanHotKeys struct {
	k      int
	counts map[uint64]uint64
}

func (h *scanHotKeys) Touch(key uint64) (evicted uint64, wasEvicted bool) {
	if _, ok := h.counts[key]; ok {
		h.counts[key]++
		return 0, false
	}
	if len(h.counts) < h.k {
		h.counts[key] = 1
		return 0, false
	}
	var minKey, minCount uint64
	first := true
	for k, c := range h.counts {
		if first || c < minCount || (c == minCount && k < minKey) {
			minKey, minCount, first = k, c, false
		}
	}
	delete(h.counts, minKey)
	h.counts[key] = minCount + 1
	return minKey, true
}

// The heap must pick the victim the scan picks on every touch — the
// cache hit ratio and every virtual-time fingerprint of a cached run
// hang on which keys are admitted — and agree on every count.
func TestHotKeysMatchesLinearScan(t *testing.T) {
	const touches = 50_000
	streams := []struct {
		name string
		over func(*rand.Rand) func() uint64
	}{
		{"zipf", func(r *rand.Rand) func() uint64 { return rand.NewZipf(r, 1.1, 1, 10_000).Uint64 }},
		{"uniform", func(r *rand.Rand) func() uint64 { return func() uint64 { return uint64(r.Intn(3000)) } }},
	}
	for _, stream := range streams {
		name := stream.name
		for _, k := range []int{1, 8, 64, 1024} {
			next := stream.over(rand.New(rand.NewSource(int64(k))))
			h, ref := NewHotKeys(k), &scanHotKeys{k: k, counts: map[uint64]uint64{}}
			evictions := 0
			for i := 0; i < touches; i++ {
				key := next()
				gotKey, got := h.Touch(key)
				wantKey, want := ref.Touch(key)
				if got != want || gotKey != wantKey {
					t.Fatalf("%s k=%d touch %d of key %d: evicted %d (%v), scan evicts %d (%v)",
						name, k, i, key, gotKey, got, wantKey, want)
				}
				if got {
					evictions++
				}
			}
			if h.Len() != len(ref.counts) {
				t.Fatalf("%s k=%d: %d tracked, scan tracks %d", name, k, h.Len(), len(ref.counts))
			}
			for key, c := range ref.counts {
				if h.Count(key) != c {
					t.Fatalf("%s k=%d: count(%d) = %d, scan has %d", name, k, key, h.Count(key), c)
				}
			}
			if evictions == 0 {
				t.Fatalf("%s k=%d: stream never evicted; the comparison is vacuous", name, k)
			}
			t.Logf("%s k=%d: %d evictions agree", name, k, evictions)
		}
	}
}

// The service sizes its tracker at four counters per cache entry
// because a k-counter sketch keeps only keys above ~1/k of the stream: a
// sketch the size of the cache loses half the hot set the cache should
// hold, and a cached value lives only while its key holds a counter.
// On a Zipf 1.1 stream over 10 K keys, 4·1024 counters track all of
// the true top-1024 and 1024 counters under 60 % of it (0.504 measured;
// 2·1024 hold 0.818).
func TestHotKeysSizedForTopC(t *testing.T) {
	const (
		draws = 400_000
		keys  = 10_000
		top   = 1024
	)
	z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, keys-1)
	stream := make([]uint64, draws)
	freq := make(map[uint64]int, keys)
	for i := range stream {
		stream[i] = z.Uint64()
		freq[stream[i]]++
	}
	ranked := make([]uint64, 0, len(freq))
	for k := range freq {
		ranked = append(ranked, k)
	}
	sort.Slice(ranked, func(i, j int) bool {
		a, b := ranked[i], ranked[j]
		return freq[a] > freq[b] || (freq[a] == freq[b] && a < b)
	})
	held := func(k int) float64 {
		h := NewHotKeys(k)
		for _, key := range stream {
			h.Touch(key)
		}
		n := 0
		for _, key := range ranked[:top] {
			if h.Tracked(key) {
				n++
			}
		}
		return float64(n) / top
	}
	if f := held(4 * top); f != 1 {
		t.Fatalf("a %d-counter sketch holds %.3f of the true top-%d, want all of it", 4*top, f, top)
	}
	if f := held(top); f >= 0.6 {
		t.Fatalf("a %d-counter sketch holds %.3f of the true top-%d, want under 0.6", top, f, top)
	} else {
		t.Logf("a %d-counter sketch holds %.3f of the true top-%d", top, f, top)
	}
}
