// Package repair holds the replica-convergence primitives behind the
// service's read-repair and anti-entropy machinery: a queue of pending
// per-(owner, key) repair records with supersession and backoff, and
// order-independent segment digests over (key, version) pairs — the
// Merkle-style summaries the anti-entropy sweeper diffs to find
// divergent key ranges without comparing every key.
//
// The package is mechanism only. Policy — which owner wins, what bytes
// to roll forward, what each comparison and copy costs — lives in the
// service layer, which owns the tables, the ring and the virtual clock.
package repair

import (
	"sort"

	"repro/internal/sim"
)

// Record is one pending repair: Owner's replica of Key is (or was, when
// the record was enqueued) missing everything up to sequence Seq. Seq
// is a floor, not the payload: the applier re-derives the winning state
// at apply time, so a record can only ever roll a replica forward.
type Record struct {
	Owner string
	Key   uint64
	// Seq is the newest version the owner was known to be missing when
	// the record was (last) pushed. A record whose owner has since
	// caught up to Seq or beyond is dropped as superseded at apply time.
	Seq uint64
	// Attempts counts delivery attempts; the service bounds it so a
	// permanently rejecting owner (capacity that never frees) cannot
	// spin the queue forever.
	Attempts int
	// NotBefore gates retries: the record is not due until this virtual
	// time (exponential backoff is the service's policy).
	NotBefore sim.Time
}

type recKey struct {
	owner string
	key   uint64
}

// Queue is a deterministic pending-repair queue: one record per
// (owner, key), newest sequence wins, FIFO among due records.
type Queue struct {
	recs  map[recKey]*Record
	order []recKey // push order; compacted lazily as records pop
}

// NewQueue returns an empty repair queue.
func NewQueue() *Queue {
	return &Queue{recs: make(map[recKey]*Record)}
}

// Len returns the number of pending records.
func (q *Queue) Len() int { return len(q.recs) }

// Push records that owner's replica of key lags seq. A record already
// pending for the (owner, key) pair is merged — the newer sequence
// stands, and its backoff clock resets so fresh evidence gets a fresh
// attempt. Returns true when a new record was created.
func (q *Queue) Push(owner string, key, seq uint64) bool {
	k := recKey{owner: owner, key: key}
	if r, ok := q.recs[k]; ok {
		if seq > r.Seq {
			r.Seq = seq
			r.Attempts = 0
			r.NotBefore = 0
		}
		return false
	}
	q.recs[k] = &Record{Owner: owner, Key: key, Seq: seq}
	q.order = append(q.order, k)
	return true
}

// Due pops up to max records due at now, in push order. Popped records
// are out of the queue; the caller re-queues what it cannot apply.
func (q *Queue) Due(now sim.Time, max int) []*Record {
	var out []*Record
	kept := q.order[:0]
	for _, k := range q.order {
		r, ok := q.recs[k]
		if !ok {
			continue // already popped or dropped; compact
		}
		if len(out) < max && r.NotBefore <= now {
			out = append(out, r)
			delete(q.recs, k)
			continue
		}
		kept = append(kept, k)
	}
	q.order = kept
	return out
}

// Requeue puts a popped record back with a retry gate. A newer push for
// the same (owner, key) that raced the attempt wins: the requeued
// record merges into it exactly like Push.
func (q *Queue) Requeue(r *Record, notBefore sim.Time) {
	k := recKey{owner: r.Owner, key: r.Key}
	if cur, ok := q.recs[k]; ok {
		if r.Seq > cur.Seq {
			cur.Seq = r.Seq
		}
		return
	}
	r.NotBefore = notBefore
	q.recs[k] = r
	q.order = append(q.order, k)
}

// NextDue reports the earliest NotBefore across pending records
// (ok=false when empty) — the service's tick scheduler hint.
func (q *Queue) NextDue() (sim.Time, bool) {
	if len(q.recs) == 0 {
		return 0, false
	}
	first := true
	var min sim.Time
	for _, r := range q.recs {
		if first || r.NotBefore < min {
			min = r.NotBefore
			first = false
		}
	}
	return min, true
}

// Keys returns the pending (owner, key) pairs in deterministic order —
// test and debugging surface.
func (q *Queue) Keys() []Record {
	out := make([]Record, 0, len(q.recs))
	for _, r := range q.recs {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Owner != out[j].Owner {
			return out[i].Owner < out[j].Owner
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// ---- segment digests ----

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
