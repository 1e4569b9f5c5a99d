package redn

import (
	"encoding/binary"
	"testing"

	"repro/internal/extent"
	"repro/internal/mem"
	"repro/internal/workload"
)

// A retired extent waits for exactly the gets issued before it was
// retired, however they finish: out of order, and across a growth of
// the queue's mark ring.
func TestRetiredExtentWaitsForEarlierGets(t *testing.T) {
	a := extent.NewArena(mem.New(1<<20), 0)
	rq := retireQueue{arena: a}
	live := func(addr uint64) bool { _, ok := a.Size(addr); return ok }

	x := a.Alloc(64, 1)
	rq.push(x)
	if live(x) {
		t.Fatal("an extent retired with no get in flight was not freed at once")
	}
	var marks []uint64
	for range 100 { // past the ring's first size
		marks = append(marks, rq.enter())
	}
	y := a.Alloc(64, 2)
	rq.push(y)
	late := rq.enter() // issued after y's retire: y must not wait for it
	for i := len(marks) - 1; i >= 1; i-- {
		rq.exit(marks[i])
	}
	if !live(y) {
		t.Fatal("freed while the first get issued before its retire was in flight")
	}
	rq.exit(marks[0])
	if live(y) {
		t.Fatal("not freed once every get issued before its retire had finished")
	}
	z := a.Alloc(64, 3)
	rq.push(z)
	if !live(z) {
		t.Fatal("freed while a get issued before its retire was in flight")
	}
	rq.exit(late)
	if live(z) || rq.q.Len() != 0 {
		t.Fatalf("live %v, %d still queued after every get finished", live(z), rq.q.Len())
	}
}

// A closed loop of 128 users over 64 hot keys at r=1, half of them
// overwriting: retired extents are reused at once, so a get still
// gathering through an old pointer would serve whatever key reused the
// extent. Every value encodes its key and version; every hit must be
// its own key's, at a version no older than the last one acked before
// the get was issued.
func TestRetiredExtentOutlivesItsReaders(t *testing.T) {
	if testing.Short() {
		t.Skip("100 K-op closed loop")
	}
	const (
		nKeys  = 64
		users  = 128
		ops    = 100_000
		valLen = 64
	)
	s := NewServiceWith(ServiceConfig{
		Shards: 4, ClientsPerShard: 2, Pipeline: 16, Mode: LookupSeq,
		Replicas: 1, Buckets: 1 << 12, MaxValLen: valLen,
	})
	value := func(k, ver uint64) []byte {
		b := make([]byte, valLen)
		for i := 0; i < valLen; i += 16 {
			binary.LittleEndian.PutUint64(b[i:], k)
			binary.LittleEndian.PutUint64(b[i+8:], ver)
		}
		return b
	}
	var issued, acked [nKeys + 1]uint64 // newest version submitted / acked per key
	for k := uint64(1); k <= nKeys; k++ {
		if err := s.Set(k, value(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	rng := workload.Rng(1)
	started, hits, bad := 0, 0, 0
	var next func()
	next = func() {
		if started == ops {
			return
		}
		started++
		k := uint64(1 + rng.Intn(nKeys))
		if rng.Intn(2) == 0 {
			issued[k]++
			ver := issued[k]
			s.SetAsync(k, value(k, ver), func(_ Duration, err error) {
				if err == nil {
					acked[k] = max(acked[k], ver)
				}
				next()
			})
		} else {
			floor := acked[k]
			s.GetAsync(k, valLen, func(b []byte, _ Duration, ok bool) {
				if ok {
					hits++
					for i := 0; i < valLen; i += 16 {
						gk, gv := binary.LittleEndian.Uint64(b[i:]), binary.LittleEndian.Uint64(b[i+8:])
						if gk != k || gv < floor || gv > issued[k] {
							if bad++; bad <= 5 {
								t.Errorf("get of key %d (acked v%d at issue) served key %d v%d", k, floor, gk, gv)
							}
							break
						}
					}
				}
				next()
			})
		}
		s.Flush()
	}
	for range users {
		next()
	}
	s.Run()
	if started != ops || hits < ops/4 {
		t.Fatalf("%d ops started, %d hits: the loop did not run", started, hits)
	}
	if bad > 0 {
		t.Fatalf("%d of %d hits served bytes no reader may see", bad, hits)
	}
}
