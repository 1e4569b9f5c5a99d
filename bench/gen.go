package main

import (
	"encoding/binary"
	"math/rand"
)

// opKind is what the generator asks the driver to issue.
type opKind uint8

const (
	kindGet opKind = iota
	kindSet
)

// valLen is the value size of every workload (the paper's 64 B IO).
const valLen = 64

// generator owns the only random source in the benchmark: the access
// pattern and the get/set mix derive from -seed, so the program under
// test sees nothing but generated inputs and the same seed replays the
// same op stream. The key set itself does not depend on the seed: which
// shards own the hot keys moves every virtual-time number by tens of per
// cent, and a seed is meant to vary the op sequence, not the placement.
type generator struct {
	rng    *rand.Rand
	keys   []uint64
	zipf   *rand.Zipf // nil: uniform
	setPct int
}

// newGenerator makes nKeys distinct 40-bit keys (nonzero, far below the
// table's reserved id bit) and the seeded access pattern over them:
// Zipf with exponent zipfS when > 1, uniform otherwise. Key index
// doubles as Zipf rank; the keys are hashes of their index, so rank
// carries no placement bias.
func newGenerator(seed int64, nKeys int, zipfS float64, setPct int) *generator {
	g := &generator{rng: rand.New(rand.NewSource(seed)), setPct: setPct}
	seen := make(map[uint64]bool, nKeys)
	for i := uint64(1); len(g.keys) < nKeys; i++ {
		k := splitmix64(i) & (1<<40 - 1)
		if k == 0 || seen[k] {
			continue
		}
		seen[k] = true
		g.keys = append(g.keys, k)
	}
	if zipfS > 1 {
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(nKeys-1))
	}
	return g
}

// next picks the next op: its kind and the index of its key. Gets
// follow the access pattern; sets are always uniform over the keys. A
// Zipf-distributed writer keeps the hottest key permanently mid-write,
// and the service's cache admits no key with a write in flight: on about
// one op sequence in twenty the hottest key then never enters the cache
// and the workload drops into a second regime (hit ratio 0.65, half the
// throughput) — a property of the op sequence, not of the code measured.
func (g *generator) next() (opKind, int) {
	if g.setPct > 0 && g.rng.Intn(100) < g.setPct {
		return kindSet, g.rng.Intn(len(g.keys))
	}
	if g.zipf != nil {
		return kindGet, int(g.zipf.Uint64())
	}
	return kindGet, g.rng.Intn(len(g.keys))
}

// splitmix64 is the value filler: cheap, stateless, and not shared with
// the repo's own workload.Value so the oracle cannot inherit its bugs.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// encodeValue fills dst (valLen bytes) with f(key, ver): the key, the
// version, then a stream keyed by both — every byte of a stored value
// is predictable from its first sixteen.
func encodeValue(dst []byte, key, ver uint64) {
	binary.LittleEndian.PutUint64(dst[0:], key)
	binary.LittleEndian.PutUint64(dst[8:], ver)
	x := key*0x9E3779B97F4A7C15 ^ ver
	for off := 16; off < valLen; off += 8 {
		x = splitmix64(x)
		binary.LittleEndian.PutUint64(dst[off:], x)
	}
}

// decodeValue returns the version b claims for key, and whether every
// byte of b is f(key, that version).
func decodeValue(b []byte, key uint64) (ver uint64, ok bool) {
	if len(b) != valLen || binary.LittleEndian.Uint64(b[0:]) != key {
		return 0, false
	}
	ver = binary.LittleEndian.Uint64(b[8:])
	x := key*0x9E3779B97F4A7C15 ^ ver
	for off := 16; off < valLen; off += 8 {
		x = splitmix64(x)
		if binary.LittleEndian.Uint64(b[off:]) != x {
			return ver, false
		}
	}
	return ver, true
}
