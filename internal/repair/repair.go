// Package repair holds the replica-convergence primitive behind the
// service's anti-entropy machinery: order-independent segment digests
// over (key, version) pairs — the Merkle-style summaries the sweeper
// diffs to find divergent key ranges without comparing every key.
//
// The package is mechanism only. Policy — which owner wins, what bytes
// to roll forward, what each comparison and copy costs — lives in the
// service layer, which owns the tables, the ring, the virtual clock and
// the pending repair records (each on its owner's per-key record).
package repair

// Mix hashes one (key, version) pair into a 64-bit contribution — a
// splitmix64-style avalanche over both words, so a single changed
// version flips about half the digest bits.
func Mix(key, ver uint64) uint64 {
	x := key*0x9E3779B97F4A7C15 ^ ver
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Digest is an order-independent accumulator over (key, version)
// pairs: contributions sum modulo 2^64, so two replicas scanning their
// tables in different bucket orders produce identical digests exactly
// when they hold identical (key, version) sets. This is the leaf level
// of a Merkle tree — one digest per bucket segment — which is all the
// sweeper needs: equal digests skip the segment, unequal digests fall
// back to a per-key walk.
type Digest uint64

// Add folds one (key, version) pair into the digest.
func (d *Digest) Add(key, ver uint64) { *d += Digest(Mix(key, ver)) }
