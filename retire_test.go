package redn

import (
	"encoding/binary"
	"errors"
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

// Retiring an extent the arena has freed already panics, whether the
// retire frees it at once or behind a get in flight: two owners were
// handed it. An address the arena never issued is dropped.
func TestRetireOfAFreedExtentPanics(t *testing.T) {
	a := extent.NewArena(mem.New(1<<20), 0)
	rq := retireQueue{arena: a}
	x := a.Alloc(64, 1)
	rq.push(x)
	rq.push(0xdead0) // never issued: dropped
	mustPanic := func(what string, retire func()) {
		t.Helper()
		defer func() {
			if err, _ := recover().(error); !errors.Is(err, extent.ErrDoubleFree) {
				t.Fatalf("%s: recovered %v, want a panic with ErrDoubleFree", what, err)
			}
		}()
		retire()
	}
	mustPanic("a retire with no get in flight", func() { rq.push(x) })
	m := rq.enter()
	rq.push(x)
	mustPanic("a retire behind a get", func() { rq.exit(m) })
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

// A get that misses gives its retire mark back as soon as its chain has
// run, not at the deadline that decides it: an extent retired while the
// miss waits out its MissTimeout is freed at once.
func TestRetiredExtentFreedBehindAMissWhoseChainRan(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(256)
	if err := table.Set(1, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	cli := tb.NewPipelinedClient(srv, LookupSeq, 4)
	cli.Bind(table)
	decided := false
	cli.GetAsync(2, 64, func(_ []byte, lat Duration, ok bool) {
		if ok || lat != cli.missTimeout {
			t.Errorf("get of an absent key: hit %v after %v, want a miss at %v", ok, lat, cli.missTimeout)
		}
		decided = true
	})
	cli.Flush()
	rq := &srv.retire
	if rq.issued-rq.oldest != 1 {
		t.Fatalf("%d marks held after one get issued, want 1", rq.issued-rq.oldest)
	}
	tb.RunFor(cli.missTimeout / 4)
	if decided || rq.issued != rq.oldest {
		t.Fatalf("a quarter deadline in: decided %v, %d marks held; want undecided, none held", decided, rq.issued-rq.oldest)
	}
	x := srv.valueArena().Alloc(64, 1)
	rq.push(x)
	if _, live := srv.valueArena().Size(x); live {
		t.Fatal("an extent retired behind a miss whose chain ran was not freed at once")
	}
	tb.Run()
	if !decided || rq.issued != rq.oldest {
		t.Fatalf("after the deadline: decided %v, %d marks held", decided, rq.issued-rq.oldest)
	}
}
