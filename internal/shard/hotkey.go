package shard

// HotKeys is a space-saving top-k frequency sketch (Metwally et al.)
// over the client's recent key accesses — the tracker behind hot-key
// read spreading and the client-side hot-value cache. It keeps at most
// k counters: a tracked key's access increments its counter; an
// untracked key replaces the minimum-count entry, inheriting its count
// plus one (the classic overestimate that guarantees every key with
// true frequency above min is tracked).
//
// A cached value lives only while its key holds a counter, and k
// counters keep only keys above ~1/k of the stream, so the service sizes
// the sketch from its cache: four counters per cache entry. k runs to
// the thousands (the benchmark's 1024-entry cache tracks 4096 keys),
// and under a uniform or long-tailed stream most accesses miss, so the
// counters are indexed by a min-heap on (count, key): the victim is the
// root, a miss costs O(log k) and a hit one sift. A counter stays in its
// slot of ents while its key is tracked and records its own heap index,
// so a sift writes two arrays and the map is touched once per hit,
// three times per eviction. Not safe for concurrent use; the simulation
// engine is single-threaded.
type HotKeys struct {
	k    int
	slot map[uint64]int // key -> its counter's index in ents
	ents []hotEntry
	heap []int // ents indices, min-heap on (count, key)
}

type hotEntry struct {
	key, count uint64
	at         int // index in heap
}

// DefaultHotKeys is the tracker capacity the service uses when hot-key
// routing or caching is enabled without an explicit size.
const DefaultHotKeys = 64

// NewHotKeys returns an empty tracker of capacity k (<= 0 selects
// DefaultHotKeys).
func NewHotKeys(k int) *HotKeys {
	if k <= 0 {
		k = DefaultHotKeys
	}
	return &HotKeys{k: k, slot: make(map[uint64]int, k), ents: make([]hotEntry, 0, k), heap: make([]int, 0, k)}
}

// Touch records one access to key. When the access displaces a tracked
// key (sketch full, key untracked), the evicted key is returned so
// dependent state — a cached value, say — can be dropped with it.
func (h *HotKeys) Touch(key uint64) (evicted uint64, wasEvicted bool) {
	if s, ok := h.slot[key]; ok {
		h.ents[s].count++
		h.down(h.ents[s].at)
		return 0, false
	}
	if s := len(h.ents); s < h.k {
		h.slot[key] = s
		h.ents = append(h.ents, hotEntry{key: key, count: 1})
		h.heap = append(h.heap, s) // while filling, heap index == slot
		h.up(s)
		return 0, false
	}
	// Replace the minimum-count entry, the smallest key among ties: the
	// newcomer takes over its slot and its count plus one.
	s := h.heap[0]
	evicted = h.ents[s].key
	delete(h.slot, evicted)
	h.slot[key] = s
	h.ents[s].key = key
	h.ents[s].count++
	h.down(0)
	return evicted, true
}

// less orders counters by count, ties on the smaller key, so the root
// is a deterministic victim whatever order the keys arrived in.
func (h *HotKeys) less(a, b int) bool {
	ea, eb := &h.ents[a], &h.ents[b]
	return ea.count < eb.count || (ea.count == eb.count && ea.key < eb.key)
}

// up sifts the counter at heap index i towards the root.
func (h *HotKeys) up(i int) {
	s := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(s, h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		h.ents[h.heap[i]].at = i
		i = p
	}
	h.heap[i] = s
	h.ents[s].at = i
}

// down sifts the counter at heap index i towards the leaves.
func (h *HotKeys) down(i int) {
	s := h.heap[i]
	for {
		c := 2*i + 1
		if c >= len(h.heap) {
			break
		}
		if r := c + 1; r < len(h.heap) && h.less(h.heap[r], h.heap[c]) {
			c = r
		}
		if !h.less(h.heap[c], s) {
			break
		}
		h.heap[i] = h.heap[c]
		h.ents[h.heap[i]].at = i
		i = c
	}
	h.heap[i] = s
	h.ents[s].at = i
}

// Tracked reports whether key currently holds one of the k counters —
// the top-k candidate set.
func (h *HotKeys) Tracked(key uint64) bool {
	_, ok := h.slot[key]
	return ok
}

// Count returns key's (over-)estimated access count, 0 if untracked.
func (h *HotKeys) Count(key uint64) uint64 {
	if s, ok := h.slot[key]; ok {
		return h.ents[s].count
	}
	return 0
}

// Len returns the number of tracked keys.
func (h *HotKeys) Len() int { return len(h.ents) }

// Cap returns the tracker capacity k.
func (h *HotKeys) Cap() int { return h.k }
