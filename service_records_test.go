package redn

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/extent"
	"repro/internal/failure"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/workload"
)

// recordsHome fails unless every op record the service — and every
// client connection it has, plus those in old of shards that left it —
// ever made is back on its free list in its released state: where a
// quiesced service must leave them.
func recordsHome(t *testing.T, s *Service, old ...*Client) {
	t.Helper()
	if s.gets.made+s.sets.made+s.runs.made == 0 {
		t.Fatal("the service made no op records: the test exercised nothing")
	}
	if len(s.gets.free) != s.gets.made {
		t.Fatalf("%d of %d get records back on the free list", len(s.gets.free), s.gets.made)
	}
	for _, g := range s.gets.free {
		if g.next != getFree || g.cb != nil {
			t.Fatalf("free list holds a get record at stage %d (callback kept: %v)", g.next, g.cb != nil)
		}
	}
	if len(s.sets.free) != s.sets.made {
		t.Fatalf("%d of %d write records back on the free list", len(s.sets.free), s.sets.made)
	}
	for _, op := range s.sets.free {
		if op.live || op.settleLeft != 0 || op.pins != 0 {
			t.Fatalf("free list holds a write record live=%v settleLeft=%d pins=%d", op.live, op.settleLeft, op.pins)
		}
	}
	if len(s.runs.free) != s.runs.made {
		for _, sh := range s.order {
			busy, queued := keySlots(sh)
			t.Logf("%s key slots busy %d queued %d hostDown %v down %v", sh.id, busy, queued, sh.hostDown, sh.down())
			for _, c := range sh.clients {
				st := c.pipelineStats(pipeSet)
				t.Logf("  %+v", st)
			}
		}
		t.Fatalf("%d of %d owner-apply records back on the free list", len(s.runs.free), s.runs.made)
	}
	for _, r := range s.runs.free {
		if r.next != runFree {
			t.Fatalf("free list holds an owner-apply record at stage %d", r.next)
		}
	}
	// No repair stands, and every missing-write record but the hints
	// standing for down owners is back in the pool.
	hints := 0
	for _, sh := range s.order {
		hints += sh.nHints
	}
	free := s.lacks.free
	if _, pending := s.pendingRecords(); pending != 0 || s.lacks.made-len(free) != hints {
		t.Fatalf("%d repairs pending at quiesce, %d of %d records back on the free list beside %d hints",
			pending, len(free), s.lacks.made, hints)
	}
	for _, l := range free {
		if *l != (lack{}) {
			t.Fatalf("free list holds a record still naming %+v", *l)
		}
	}
	// Every shard's records obey their lifetime rule, and its hint count
	// is the one its records hold.
	for _, sh := range s.order {
		for key, k := range sh.keys {
			if k.slot != nil || k.lack != nil && k.lack.op == nil || k.lack == nil && k.tomb == 0 {
				t.Fatalf("%s key %d: record at quiesce %+v, want a hint or tombstone, a free slot and no repair", sh.id, key, k)
			}
		}
		if len(sh.slots.free) != sh.slots.made {
			t.Fatalf("%s: %d of %d write-slot queues back in the pool", sh.id, len(sh.slots.free), sh.slots.made)
		}
		if n := hintsOn(sh); n != sh.nHints {
			t.Fatalf("%s: %d hints stand in its records, its count says %d", sh.id, n, sh.nHints)
		}
	}
	clients := old
	for _, sh := range s.order {
		clients = append(clients, sh.clients...)
	}
	for _, cli := range clients {
		for _, p := range cli.pipes {
			if len(p.reqs.free) != p.reqs.made {
				t.Fatalf("%s %s pipeline: %d of %d request records back on the free list",
					cli.node.Name, p.name, len(p.reqs.free), p.reqs.made)
			}
			for _, req := range p.reqs.free {
				if req.live {
					t.Fatalf("%s %s pipeline: free list holds a live request record", cli.node.Name, p.name)
				}
			}
		}
	}
	if err := requestsWhole(clients); err != nil {
		t.Fatal(err)
	}
}

// requestsWhole checks the request records and deadline queues of the
// clients' pipelines: every record out of a pipeline's pool is in a
// slot, waiting for one, or a slotless request its deadline dooms (a
// deadline entry of issue sequence 0), so a record an answered request
// held is home; each request in a slot, and each doomed one, has one
// outstanding deadline entry; and the pipeline's one deadline event is
// armed exactly while its queue holds an entry.
func requestsWhole(clients []*Client) error {
	for _, cli := range clients {
		for _, p := range cli.pipes {
			outstanding, doomed := 0, 0
			for i := p.deadlines.Len(); i > 0; i-- {
				d := p.deadlines.Pop()
				if d.req.seq == d.seq {
					outstanding++
				}
				if d.seq == 0 {
					doomed++
				}
				*p.deadlines.Push() = d
			}
			out := p.reqs.made - len(p.reqs.free)
			if want := p.inFlight + p.waiting.Len() + doomed; out != want {
				return fmt.Errorf("%s %s pipeline: %d request records out, want %d: %d in slots, %d waiting, %d doomed",
					cli.node.Name, p.name, out, want, p.inFlight, p.waiting.Len(), doomed)
			}
			if outstanding != p.inFlight+doomed {
				return fmt.Errorf("%s %s pipeline: %d outstanding deadlines, %d requests in slots and %d doomed",
					cli.node.Name, p.name, outstanding, p.inFlight, doomed)
			}
			if p.armed != (p.deadlines.Len() > 0) {
				return fmt.Errorf("%s %s pipeline: deadline event armed %v with %d entries queued",
					cli.node.Name, p.name, p.armed, p.deadlines.Len())
			}
		}
	}
	return nil
}

// keySlots counts the (owner, key) write slots held on sh and the runs
// queued behind them.
func keySlots(sh *serviceShard) (busy, queued int) {
	for _, k := range sh.keys {
		if k.slot != nil {
			busy++
			queued += k.slot.Len() - 1
		}
	}
	return busy, queued
}

// slotsWhole checks the write slots of s's shards, and of the shards in
// gone that left it, against the owner-apply records out: every record
// out holds one slot or waits in its queue, each holder (the queue's
// head) is a run past its grant on that shard and key, and each waiter
// a run in the slot stage on that shard and key. The missing-write
// records and those shards' client pipelines must be whole too
// (repairsWhole, requestsWhole).
func slotsWhole(s *Service, gone ...*serviceShard) error {
	held, queued := 0, 0
	var clients []*Client
	for _, sh := range withGone(s, gone) {
		clients = append(clients, sh.clients...)
		for key, k := range sh.keys {
			for i, r := range slotRuns(k.slot) {
				if r.sh != sh || r.m.key != key {
					return fmt.Errorf("%s key %d: entry %d is a run for %s key %d", sh.id, key, i, r.sh.id, r.m.key)
				}
				if i == 0 && (r.next == runFree || r.next == runSlot) || i > 0 && r.next != runSlot {
					return fmt.Errorf("%s key %d: entry %d is at stage %d", sh.id, key, i, r.next)
				}
			}
			if k.slot != nil {
				held, queued = held+1, queued+k.slot.Len()-1
			}
		}
	}
	if out := s.runs.made - len(s.runs.free); held+queued != out {
		return fmt.Errorf("%d slots held and %d runs queued on them, %d owner-apply records out", held, queued, out)
	}
	if err := requestsWhole(clients); err != nil {
		return err
	}
	return repairsWhole(s, gone...)
}

// withGone lists s's shards, then those in gone that left it.
func withGone(s *Service, gone []*serviceShard) []*serviceShard {
	shards := slices.Clone(s.order)
	for _, sh := range gone {
		if !slices.Contains(shards, sh) {
			shards = append(shards, sh)
		}
	}
	return shards
}

// repairsWhole checks the missing-write records of s's shards, and of
// the shards in gone that left it: each standing hint's write is live
// and its key's at the record's seq, each
// shard's counts are the records its keys hold, a record a replay
// carries is on a run in its key's slot, a queued record no replay
// carries waits in the drain queue or behind its key's replay, a parked
// repair waits for an armed retry tick, the records out of the pool are
// those standing and those replays carry, and no per-key entry is idle.
func repairsWhole(s *Service, gone ...*serviceShard) error {
	type at struct {
		sh  *serviceShard
		key uint64
	}
	standing, carried := 0, map[*lack]at{}
	for _, sh := range withGone(s, gone) {
		hints, repairs := 0, 0
		for key, k := range sh.keys {
			if k == (ownerKey{}) {
				return fmt.Errorf("%s key %d: idle per-key entry", sh.id, key)
			}
			replaying := false
			for _, r := range slotRuns(k.slot) {
				if r.h != nil {
					carried[r.h], replaying = at{sh, key}, true
				}
			}
			l := k.lack
			if l == nil {
				continue
			}
			standing++
			switch {
			case l.op == nil:
				repairs++
			case l.op.live && l.op.key == key && l.op.seq == l.seq && l.tries == 0:
				hints++
			default:
				return fmt.Errorf("%s key %d: a record neither a hint of a live write nor a repair: %+v", sh.id, key, *l)
			}
			if _, ok := carried[l]; l.draining && !ok {
				return fmt.Errorf("%s key %d: a draining record no replay carries", sh.id, key)
			}
			if l.queued && !l.draining && !replaying && !slices.Contains(sh.drainQ[sh.drainAt:], key) {
				return fmt.Errorf("%s key %d: a queued record waits for no lane", sh.id, key)
			}
			if l.tries > 0 && !l.queued && !s.retryArmed {
				return fmt.Errorf("%s key %d: a parked repair waits for no retry tick", sh.id, key)
			}
		}
		if hints != sh.nHints || repairs != sh.nRepairs {
			return fmt.Errorf("%s: %d hints and %d repairs stand, its counts say %d and %d",
				sh.id, hints, repairs, sh.nHints, sh.nRepairs)
		}
	}
	for l, at := range carried {
		if !l.draining {
			return fmt.Errorf("%s key %d: a replay carries a record not marked draining", at.sh.id, at.key)
		}
		if at.sh.lackAt(at.key) != l {
			standing++ // out of the pool until its replay ends
		}
	}
	if out := s.lacks.made - len(s.lacks.free); out != standing {
		return fmt.Errorf("%d records out of the pool, %d standing or carried by a replay", out, standing)
	}
	return nil
}

// runWhole runs s for d, checking its per-key records (slotsWhole)
// every step of virtual time while events are pending, and returns how
// many checks found a repair queued.
func runWhole(t *testing.T, s *Service, d, step Duration) int {
	t.Helper()
	eng := s.Testbed().Engine()
	end, withRepairs := eng.Now()+d, 0
	for eng.Now() < end && eng.Pending() > 0 {
		eng.RunUntil(min(eng.Now()+step, end))
		if err := slotsWhole(s); err != nil {
			t.Fatalf("at %v: %v", s.Now(), err)
		}
		if _, n := s.pendingRecords(); n > 0 {
			withRepairs++
		}
	}
	eng.RunUntil(end)
	return withRepairs
}

// slotRuns lists the runs of a write slot, the holder first; nil for a
// free slot.
func slotRuns(q *ring.Queue[*ownerRun]) []*ownerRun {
	if q == nil {
		return nil
	}
	runs := make([]*ownerRun, q.Len())
	for i := range runs {
		runs[i] = q.Pop()
		*q.Push() = runs[i]
	}
	return runs
}

// hintsOn counts the hints standing on sh by walking its records.
func hintsOn(sh *serviceShard) int {
	n := 0
	for _, k := range sh.keys {
		if k.lack != nil && k.lack.op != nil {
			n++
		}
	}
	return n
}

// The per-key records are whole at the quorum_write shape (4 shards x 2
// clients x 16 deep, r=3 W=2, 128 closed-loop users, half of them sets,
// uniform over 10 000 keys), through 50 000 ops. Between events every
// owner-apply record is either holding its (owner, key) write slot or
// queued on one (slotsWhole), and every held slot is one request in its
// owner's set pipeline, in flight or waiting; the unsettled counts add
// up to the live write records. After quiesce no owner keeps a record
// and no key is unsettled. The backlog the W < N trailing legs leave
// when the last op is issued is logged: set legs waiting in the
// pipelines, writes waiting on key slots, unsettled keys, and the legs
// of writes already past quorum, queued on a slot or holding one.
func TestKeyRecordsWholeAtQuorumWriteShape(t *testing.T) {
	const nKeys, users, total, valLen = 10_000, 128, 50_000, 64
	s := NewServiceWith(ServiceConfig{
		Shards: 4, ClientsPerShard: 2, Pipeline: 16, Mode: LookupSeq,
		Replicas: 3, WriteQuorum: 2, ReadPolicy: ReadPrimary,
		Buckets: 1 << 16, MaxValLen: valLen})
	for k := uint64(1); k <= nKeys; k++ {
		if err := s.Set(k, Value(k, valLen)); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	preload := s.Stats()
	rng := workload.Rng(1)
	issued := 0
	var user func()
	user = func() {
		if issued == total {
			return
		}
		issued++
		k := uint64(rng.Intn(nKeys) + 1)
		if rng.Intn(2) == 0 {
			s.SetAsync(k, Value(k+uint64(issued), valLen), func(_ Duration, err error) {
				if err != nil {
					t.Errorf("set %d: %v", k, err)
				}
				user()
				s.Flush()
			})
			return
		}
		s.GetAsync(k, valLen, func(_ []byte, _ Duration, ok bool) {
			if !ok {
				t.Errorf("get %d missed", k)
			}
			user()
			s.Flush()
		})
	}
	for u := 0; u < users; u++ {
		user()
	}
	s.Flush()

	// backlog reads the slots and pipelines: held slots, work queued on
	// them, and set requests in flight and waiting in the pipelines.
	backlog := func() (busy, slotQueued, inFlight, waiting int) {
		for _, sh := range s.order {
			b, q := keySlots(sh)
			busy, slotQueued = busy+b, slotQueued+q
			for _, cli := range sh.clients {
				st := cli.pipelineStats(pipeSet)
				inFlight, waiting = inFlight+st.InFlight, waiting+st.Queued
			}
		}
		return
	}
	unsettled := func() (sum, keys int) {
		for _, rec := range s.keys {
			sum += rec.unsettled
			if rec.unsettled != 0 {
				keys++
			}
		}
		return
	}
	eng := s.Testbed().Engine()
	checks, peakLegs := 0, 0
	logged := false
	for eng.Pending() > 0 {
		eng.RunUntil(eng.Now() + 20*sim.Microsecond)
		busy, slotQueued, inFlight, waiting := backlog()
		if err := slotsWhole(s); err != nil {
			t.Fatalf("at %v: %v", s.Now(), err)
		}
		if busy != inFlight+waiting {
			t.Fatalf("at %v: %d slots held, the set pipelines carry %d in flight and %d waiting",
				s.Now(), busy, inFlight, waiting)
		}
		sum, keys := unsettled()
		if live := s.sets.made - len(s.sets.free); sum != live || keys > live {
			t.Fatalf("at %v: %d writes unsettled over %d keys, %d write records live", s.Now(), sum, keys, live)
		}
		peakLegs = max(peakLegs, waiting)
		if issued == total && !logged {
			logged = true
			t.Logf("backlog at op %d: %d set legs waiting in the pipelines, %d writes on key slots, %d keys unsettled",
				total, waiting, slotQueued, keys)
			queued, holding := pastQuorumLegs(s)
			t.Logf("legs of writes past quorum at op %d: %d queued on key slots, %d holding one", total, queued, holding)
		}
		checks++
	}
	t.Logf("%d checks; at most %d set legs waited in the pipelines", checks, peakLegs)
	if st := s.Stats(); st.SetOps-preload.SetOps < total/3 || st.HostSets != preload.HostSets || st.QuorumFails != 0 {
		t.Fatalf("setup: %d sets, %d legs on the host path, %d quorum failures",
			st.SetOps-preload.SetOps, st.HostSets-preload.HostSets, st.QuorumFails)
	}
	for _, sh := range s.order {
		if len(sh.keys) != 0 || sh.nHints != 0 {
			t.Fatalf("%s keeps %d owner records (%d hints) after quiesce", sh.id, len(sh.keys), sh.nHints)
		}
	}
	for k, rec := range s.keys {
		if rec.unsettled != 0 {
			t.Fatalf("key %d: %d writes unsettled after quiesce", k, rec.unsettled)
		}
	}
	recordsHome(t, s)
}

// pastQuorumLegs counts the owner runs that are legs of writes already
// past quorum (setOp.done): those queued on a key slot, and those
// holding one.
func pastQuorumLegs(s *Service) (queued, holding int) {
	for _, sh := range s.order {
		for _, k := range sh.keys {
			for i, r := range slotRuns(k.slot) {
				switch {
				case r.op == nil || !r.op.done:
				case i == 0:
					holding++
				default:
					queued++
				}
			}
		}
	}
	return queued, holding
}

// churn keeps users closed loops of mixed gets (present and absent
// keys), sets and deletes running over keys until total ops have
// completed, same-key writes back to back included, and returns how
// many completed. A non-nil check runs between events, every
// microsecond of virtual time.
func churn(s *Service, keys []uint64, users, total int, check func()) int {
	issued, done := 0, 0
	var user func()
	user = func() {
		if issued >= total {
			return
		}
		i := issued
		issued++
		k := keys[i*7%len(keys)]
		next := func() {
			done++
			user()
			s.Flush()
		}
		switch i % 8 {
		case 0, 1:
			s.SetAsync(k, Value(k+uint64(i), 48), func(Duration, error) { next() })
		case 2:
			// The same key again while the previous write may still hold
			// its (owner, key) slots.
			s.SetAsync(keys[(i-1)*7%len(keys)], Value(k, 48), func(Duration, error) { next() })
		case 3:
			s.DeleteAsync(k, func(Duration, error) { next() })
		case 4:
			s.GetAsync(k|1<<40, 48, func([]byte, Duration, bool) { next() }) // absent everywhere
		default:
			s.GetAsync(k, 48, func([]byte, Duration, bool) { next() })
		}
	}
	for u := 0; u < users; u++ {
		user()
	}
	s.Flush()
	if check == nil {
		s.Run()
		return done
	}
	for eng := s.Testbed().Engine(); eng.Pending() > 0; {
		eng.RunUntil(eng.Now() + sim.Microsecond)
		check()
	}
	return done
}

func preloadKeys(t *testing.T, s *Service, n int) []uint64 {
	t.Helper()
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i + 1)
		if err := s.Set(keys[i], Value(keys[i], 48)); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

func TestOpRecordsReturnAtQuiesce(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 4, ClientsPerShard: 2, Pipeline: 4, Mode: LookupSeq,
		Replicas: 3, WriteQuorum: 2, ReadPolicy: ReadRoundRobin, ReadRepair: true,
		AntiEntropyEvery: sim.Millisecond, HotKeyCache: 8,
		Buckets: 1 << 12, MaxValLen: 64})
	keys := preloadKeys(t, s, 64)
	const total = 4000
	if done := churn(s, keys, 24, total, nil); done != total {
		t.Fatalf("%d of %d ops completed", done, total)
	}
	recordsHome(t, s)
	st := s.Stats()
	if st.Probes == 0 || st.CacheHits == 0 || st.Misses == 0 || st.DelOps == 0 {
		t.Fatalf("churn missed a path: %d probes, %d cache hits, %d misses, %d deletes",
			st.Probes, st.CacheHits, st.Misses, st.DelOps)
	}
	// 24 users never need more records than that at once (a probe keeps
	// its get's record a little longer): the records were reused.
	if s.gets.made > 2*24 || s.sets.made > 2*24 || s.runs.made > 4*24 {
		t.Fatalf("%d get, %d write and %d owner-apply records for %d ops of 24 users: records are not reused",
			s.gets.made, s.sets.made, s.runs.made, total)
	}
}

// A queued leg of a write already past its quorum is settled unapplied
// once a newer write to the same key queues its leg to that owner: the
// owner goes from the older value straight to the newer one, and the
// write's record goes home without waiting for the slot. A leg whose
// write still counts acks stays queued and applies.
func TestQueuedLegPastQuorumCoalesces(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 3, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq,
		Replicas: 3, WriteQuorum: 2, Buckets: 1 << 10, MaxValLen: 64})
	const key = 7
	owners := s.Owners(key)
	slow := s.shards[owners[2]]
	applied := map[string][]uint64{}
	s.applyHook = func(id string, k, seq uint64) {
		if k == key {
			applied[id] = append(applied[id], seq)
		}
	}
	seqs := func() []uint64 {
		var out []uint64
		for _, r := range slotRuns(slow.keys[key].slot) {
			out = append(out, r.m.seq)
		}
		return out
	}
	live := func() int { return s.sets.made - len(s.sets.free) }
	acked := 0
	set := func(i uint64) {
		s.SetAsync(key, Value(key+i, 48), func(_ Duration, err error) {
			if err != nil {
				t.Errorf("write %d: %v", i, err)
			}
			acked++
		})
		s.Flush()
	}
	awaitAcks := func(n int) {
		for eng := s.Testbed().Engine(); acked < n; {
			if eng.Pending() == 0 {
				t.Fatalf("%d of %d writes acked", acked, n)
			}
			eng.RunUntil(eng.Now() + sim.Microsecond)
		}
	}

	// The slow owner's NIC stalls: write 1's leg holds its slot there,
	// write 2's queues behind it, and both reach quorum on the others.
	slow.srv.node.Dev.Freeze()
	set(1)
	set(2)
	awaitAcks(2)
	if got := seqs(); !slices.Equal(got, []uint64{1, 2}) || live() != 2 {
		t.Fatalf("setup: slow owner's slot holds seqs %v with %d write records live, want [1 2] and 2", got, live())
	}
	// Write 3 queues behind them: write 2's leg is settled unapplied.
	set(3)
	if got := seqs(); !slices.Equal(got, []uint64{1, 3}) || live() != 2 || s.keys[key].unsettled != 2 {
		t.Fatalf("write 3 queued: slot seqs %v, %d write records live, %d writes unsettled; want [1 3], 2 and 2",
			got, live(), s.keys[key].unsettled)
	}
	// Write 4 queues while write 3 still counts acks: nothing settles.
	set(4)
	if got := seqs(); !slices.Equal(got, []uint64{1, 3, 4}) {
		t.Fatalf("write 4 queued behind a write short of quorum: slot seqs %v, want [1 3 4]", got)
	}
	slow.srv.node.Dev.Unfreeze()
	s.Run()
	if acked != 4 {
		t.Fatalf("%d of 4 writes acked", acked)
	}
	for _, id := range owners {
		want := []uint64{1, 2, 3, 4}
		if id == slow.id {
			want = []uint64{1, 3, 4}
		}
		if !slices.Equal(applied[id], want) {
			t.Errorf("owner %s applied seqs %v, want %v", id, applied[id], want)
		}
		if v, ok := ownerValue(t, s, id, key); !ok || !bytes.Equal(v, Value(key+4, 48)) {
			t.Errorf("owner %s does not hold the newest write", id)
		}
	}
	s.applyHook = nil
	recordsHome(t, s)
}

// Through a crash: writes hint while the owner is down, the hints drain
// at recovery — one of them dropped by DropHints while its replay is in
// flight — and the connections the crash desequenced are reset with
// requests on them.
func TestOpRecordsReturnAcrossCrashAndHints(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 3, ClientsPerShard: 2, Pipeline: 4, Mode: LookupSeq,
		Replicas: 3, WriteQuorum: 2, ReadPolicy: ReadRoundRobin, ReadRepair: true,
		AntiEntropyEvery: sim.Millisecond,
		Buckets:          1 << 12, MaxValLen: 64})
	keys := preloadKeys(t, s, 48)
	victim := s.order[0]
	s.CrashShard(0, failure.ProcessCrash, s.Now()+200*sim.Microsecond)

	// Load across the crash and into the outage: the victim's legs time
	// out into hints.
	issued, done := 0, 0
	const total = 3000
	var user func()
	user = func() {
		if issued >= total {
			return
		}
		i := issued
		issued++
		k := keys[i*5%len(keys)]
		next := func() {
			done++
			user()
			s.Flush()
		}
		if i%3 == 0 {
			s.SetAsync(k, Value(k+uint64(i), 48), func(Duration, error) { next() })
		} else {
			s.GetAsync(k, 48, func([]byte, Duration, bool) { next() })
		}
	}
	for u := 0; u < 12; u++ {
		user()
	}
	s.Flush()
	s.Testbed().RunFor(20 * sim.Millisecond)
	if hintsOn(victim) == 0 {
		t.Fatal("setup: no hints queued on the crashed owner")
	}
	// Step to the recovery, then drop every hint the moment the replays
	// are in flight, and put the write records that frees straight back
	// to work: each replay must still apply — and report — its own
	// write's mutation, not the one that took the record over.
	eng := s.Testbed().Engine()
	type apply struct{ key, seq uint64 }
	replaying := map[apply]bool{}
	for len(replaying) == 0 && eng.Pending() > 0 {
		eng.RunUntil(eng.Now() + 10*sim.Microsecond)
		for key, k := range victim.keys {
			if h := k.lack; h != nil && h.draining {
				replaying[apply{key, h.seq}] = true
			}
		}
	}
	if len(replaying) == 0 {
		t.Fatal("setup: recovery never started replaying a hint")
	}
	s.applyHook = func(id string, key, seq uint64) {
		if id == victim.id {
			delete(replaying, apply{key, seq})
		}
	}
	dropped := s.DropHints()
	if dropped == 0 {
		t.Fatal("setup: nothing to drop")
	}
	for i := 0; i < dropped; i++ {
		s.SetAsync(uint64(1000+i), Value(uint64(i), 48), nil)
	}
	s.Flush()
	s.Run()
	if done != total {
		t.Fatalf("%d of %d ops completed", done, total)
	}
	if len(replaying) != 0 {
		t.Fatalf("%d replays in flight when their hints were dropped never applied their own write: %v",
			len(replaying), replaying)
	}
	s.applyHook = nil
	st := s.Stats()
	if st.HintsQueued == 0 || st.HintsPending != 0 || st.Shards[0].Rebuilds != 1 {
		t.Fatalf("crash did not run its course: %d hints queued, %d pending, %d rebuilds",
			st.HintsQueued, st.HintsPending, st.Shards[0].Rebuilds)
	}
	recordsHome(t, s)
	// And once more with the hints left to drain.
	s.CrashShard(1, failure.ProcessCrash, s.Now()+200*sim.Microsecond)
	issued, done = 0, 0
	for u := 0; u < 12; u++ {
		user()
	}
	s.Flush()
	s.Run()
	if st := s.Stats(); done != total || st.HintsApplied == 0 || st.HintsPending != 0 {
		t.Fatalf("second crash: %d of %d ops, %d hints applied, %d pending", done, total, st.HintsApplied, st.HintsPending)
	}
	recordsHome(t, s)
}

// A leg's hint can settle its write before the leg's failure is counted:
// the leg of an older write times out on an owner that is draining (or
// has left), so its hint is redirected to an owner already holding a
// newer write's hint (or has nowhere to go) and is dropped — the
// write's last settle — and only then does the quorum count the
// failure. The record must still be the write's own at that point.
func TestWriteRecordOutlivesItsOwnLastSettle(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 3, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq,
		Replicas: 2, WriteQuorum: 1, Buckets: 1 << 12, MaxValLen: 64})
	const key = 77
	if err := s.Set(key, Value(key, 48)); err != nil {
		t.Fatal(err)
	}
	owners := s.Owners(key)
	leaving, staying := s.shards[owners[0]], s.shards[owners[1]]
	// The leaving owner's process dies (its NIC drops triggers, its host
	// answers nothing); the staying one is merely suspected, so its legs
	// fail at once into hints.
	s.CrashShard(crashIdx(t, s, leaving.id), failure.ProcessCrash, s.Now()+sim.Microsecond)
	s.Testbed().RunFor(10 * sim.Microsecond)
	staying.suspectUntil = s.Now() + 10*sim.Second

	var errs [2]error
	s.SetAsync(key, Value(key+1, 48), func(_ Duration, err error) { errs[0] = err })
	s.SetAsync(key, Value(key+2, 48), func(_ Duration, err error) { errs[1] = err })
	s.Flush()
	s.Testbed().RunFor(20 * sim.Microsecond)
	if h := staying.lackAt(key); h == nil || h.op == nil || h.seq != s.keys[key].seq {
		t.Fatal("setup: the newer write's hint does not stand on the staying owner")
	}
	if err := s.DrainShard(leaving.id); err != nil {
		t.Fatal(err)
	}
	// Both legs on the leaving owner now time out, oldest first.
	s.Testbed().RunFor(sim.Millisecond)
	for i, err := range errs {
		if _, ok := err.(*QuorumError); !ok {
			t.Fatalf("write %d: %v, want a quorum failure (no owner reachable)", i+1, err)
		}
	}
	// Let the staying owner take its hint, and everything settle.
	staying.suspectUntil = 0
	s.drainHints(staying, false)
	s.Run()
	if v, ok := ownerValue(t, s, staying.id, key); !ok || !bytes.Equal(v, Value(key+2, 48)) {
		t.Fatal("the newest write did not reach the staying owner")
	}
	recordsHome(t, s, leaving.clients...)
}

// Through a join and a drain with load on: dual writes add auxiliary
// legs, the migrator's copies and the load's writes queue on the same
// (owner, key) slots, and the drained shard leaves with its
// connections. Between events the write slots account for every
// owner-apply record out (slotsWhole), the drained shard's included.
func TestOpRecordsReturnAcrossMigration(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 3, ClientsPerShard: 2, Pipeline: 4, Mode: LookupSeq,
		Replicas: 2, WriteQuorum: 1, ReadPolicy: ReadRoundRobin, ReadRepair: true,
		Buckets: 1 << 12, MaxValLen: 64})
	keys := preloadKeys(t, s, 200)
	if err := s.AddShard("shard3"); err != nil {
		t.Fatal(err)
	}
	if !s.resharding() {
		t.Fatal("setup: the join finished before any load")
	}
	made := s.runs.made
	checks, withRepairs := 0, 0
	whole := func(gone ...*serviceShard) func() {
		return func() {
			if err := slotsWhole(s, gone...); err != nil {
				t.Fatalf("at %v: %v", s.Now(), err)
			}
			checks++
			if _, n := s.pendingRecords(); n > 0 {
				withRepairs++
			}
		}
	}
	if done := churn(s, keys, 16, 2000, whole()); done != 2000 {
		t.Fatalf("%d of 2000 ops completed across the join", done)
	}
	if s.resharding() {
		t.Fatal("join never finished")
	}
	recordsHome(t, s)
	if s.runs.made == made {
		t.Fatal("the join's load and copies took no owner-apply record")
	}
	gone := s.shards["shard0"]
	if err := s.DrainShard("shard0"); err != nil {
		t.Fatal(err)
	}
	if done := churn(s, keys, 16, 2000, whole(gone)); done != 2000 {
		t.Fatalf("%d of 2000 ops completed across the drain", done)
	}
	t.Logf("%d checks of the write slots, %d with repairs queued", checks, withRepairs)
	if s.resharding() || s.NumShards() != 3 {
		t.Fatal("drain never finished")
	}
	recordsHome(t, s, gone.clients...)
	if st := s.Stats(); st.Migrations != 2 || st.MigKeysMoved == 0 {
		t.Fatalf("%d migrations, %d keys moved", st.Migrations, st.MigKeysMoved)
	}
}

// An answered request's record goes back at its answer, and the next
// request may take it at once: the answered request's deadline, still
// due, does not end the request that took its record, whose own
// deadline is one missTimeout after its own issue.
func TestAnsweredRequestRecordIsReusedAtOnce(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1024)
	if err := table.Set(1, Value(1, 64)); err != nil {
		t.Fatal(err)
	}
	cli := tb.NewPipelinedClient(srv, LookupSeq, 4)
	cli.Bind(table)
	cli.missTimeout = 100 * sim.Microsecond
	eng := tb.Engine()

	var hitAt, lateIssued, lateDone sim.Time
	cli.GetAsync(1, 64, func(_ []byte, _ Duration, ok bool) {
		if !ok {
			t.Error("present key missed")
		}
		hitAt = eng.Now()
		if len(cli.get.reqs.free) != 0 {
			t.Error("inside the hit's callback its record is already free")
		}
		// An absent key: nothing answers it, so only a deadline ends it.
		eng.After(sim.Microsecond, func() {
			if got, made := len(cli.get.reqs.free), cli.get.reqs.made; got != 1 || made != 1 {
				t.Errorf("1us after the hit's answer %d of %d records are free, want its record back", got, made)
			}
			lateIssued = eng.Now()
			cli.GetAsync(999, 64, func(_ []byte, lat Duration, ok bool) {
				lateDone = eng.Now()
				if ok || lat != cli.missTimeout {
					t.Errorf("absent key: ok=%v lat=%v, want a miss after exactly the timeout", ok, lat)
				}
			})
			cli.Flush()
		})
	})
	cli.Flush()
	tb.Run()
	if hitAt == 0 || hitAt >= cli.missTimeout/2 {
		t.Fatalf("setup: the hit landed at %v, want well before its deadline", hitAt)
	}
	if cli.get.reqs.made != 1 {
		t.Fatalf("%d records made, want 1: the absent-key get reuses the hit's", cli.get.reqs.made)
	}
	if want := lateIssued + cli.missTimeout; lateDone != want {
		t.Fatalf("the absent-key get ended at %v, want %v, its own deadline (the hit's was %v)",
			lateDone, want, cli.missTimeout)
	}
	if len(cli.get.reqs.free) != 1 {
		t.Fatal("the record is not home at quiesce")
	}
}

// The request records are whole at the read_uniform shape (4 shards x
// 2 clients x 16 deep, r=1, 128 closed-loop users, 98 % gets uniform
// over 10 000 keys), through 20 000 ops: between events every record
// out of a pipeline's pool is a request in a slot or waiting for one
// (requestsWhole), so no pipeline ever makes more records than there
// are users.
func TestRequestRecordsWholeAtReadUniformShape(t *testing.T) {
	const nKeys, users, total, valLen = 10_000, 128, 20_000, 64
	s := NewServiceWith(ServiceConfig{
		Shards: 4, ClientsPerShard: 2, Pipeline: 16, Mode: LookupSeq,
		Buckets: 1 << 16, MaxValLen: valLen})
	for k := uint64(1); k <= nKeys; k++ {
		if err := s.Set(k, Value(k, valLen)); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	var clients []*Client
	for _, sh := range s.order {
		clients = append(clients, sh.clients...)
	}
	rng := workload.Rng(1)
	issued, done := 0, 0
	var user func()
	user = func() {
		if issued == total {
			return
		}
		issued++
		k := uint64(rng.Intn(nKeys) + 1)
		next := func() {
			done++
			user()
			s.Flush()
		}
		if rng.Intn(50) == 0 {
			s.SetAsync(k, Value(k+uint64(issued), valLen), func(_ Duration, err error) {
				if err != nil {
					t.Errorf("set %d: %v", k, err)
				}
				next()
			})
			return
		}
		s.GetAsync(k, valLen, func(_ []byte, _ Duration, ok bool) {
			if !ok {
				t.Errorf("get %d missed", k)
			}
			next()
		})
	}
	for u := 0; u < users; u++ {
		user()
	}
	s.Flush()
	eng := s.Testbed().Engine()
	checks := 0
	for eng.Pending() > 0 {
		eng.RunUntil(eng.Now() + sim.Microsecond)
		if err := requestsWhole(clients); err != nil {
			t.Fatalf("at %v: %v", s.Now(), err)
		}
		checks++
	}
	if done != total {
		t.Fatalf("%d of %d ops completed", done, total)
	}
	made, most := 0, 0
	for _, cli := range clients {
		made, most = made+cli.get.reqs.made, max(most, cli.get.reqs.made)
	}
	t.Logf("%d checks; %d get-pipeline records made, at most %d by one pipeline", checks, made, most)
	if most > users {
		t.Fatalf("a get pipeline made %d records for %d users", most, users)
	}
	recordsHome(t, s)
}

// Waiting queues drop what they pop: a finished request stays reachable
// from neither the pipeline's queue nor an (owner, key) slot's.
func TestWaitingQueuesDropPoppedRequests(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 1, ClientsPerShard: 1, Pipeline: 2, Mode: LookupSeq,
		Buckets: 1 << 12, MaxValLen: 64})
	keys := preloadKeys(t, s, 8)
	sh := s.order[0]
	p := sh.clients[0].get
	for i := 0; i < 64; i++ {
		s.GetAsync(keys[i%len(keys)], 48, func([]byte, Duration, bool) {})
		s.SetAsync(keys[0], Value(uint64(i), 48), nil) // all on one (owner, key) slot
	}
	if p.waiting.Len() != 62 {
		t.Fatalf("%d gets queued behind a 2-deep pipeline, want 62", p.waiting.Len())
	}
	if q := sh.keys[keys[0]].slot; q.Len()-1 != 63 {
		t.Fatalf("%d writes queued behind the key's slot, want 63", q.Len())
	}
	s.Flush()
	s.Run()
	if busy, _ := keySlots(sh); p.waiting.Len() != 0 || busy != 0 {
		t.Fatalf("after quiesce %d gets wait and %d key slots are held", p.waiting.Len(), busy)
	}
	recordsHome(t, s)
}

func TestReleasedOpRecordsPanic(t *testing.T) {
	mustPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) {
				t.Fatalf("%s: recovered %q, want a panic mentioning %q", name, msg, want)
			}
		}()
		fn()
	}
	s := NewServiceWith(ServiceConfig{
		Shards: 2, ClientsPerShard: 1, Pipeline: 2, Mode: LookupSeq,
		Replicas: 2, Buckets: 1 << 12, MaxValLen: 64})
	keys := preloadKeys(t, s, 4)
	if _, _, ok := s.Get(keys[0], 48); !ok {
		t.Fatal("setup: get missed")
	}
	s.Run()
	recordsHome(t, s)
	cli := s.shards[s.Owners(keys[0])[0]].clients[0] // served the get

	req := cli.get.reqs.free[0]
	mustPanic("submitting a released request record", "used after its release", func() { cli.get.submit(req) })
	g := s.gets.free[0]
	mustPanic("routing a released get record", "get record routed", func() { s.tryGet(g) })
	mustPanic("an attempt answering a released get record", "get continuation", func() { g.attemptFn(nil, 0, false) })
	mustPanic("releasing a get record twice", "released twice", g.release)
	op := s.sets.free[0]
	mustPanic("settling a released write record", "write record used after", func() { op.settleOne(s) })
	mustPanic("acking a released write record", "write record used after", func() { op.ack(s) })
	r := s.runs.free[0]
	mustPanic("a slot grant on a released owner-apply record", "owner-apply continuation", r.granted)
	mustPanic("an ack on a released owner-apply record", "owner-apply continuation", func() { r.ackFn(0, true) })

	// A record taken again is not its previous user's either: the old
	// get's attempt callback finds the record in another stage.
	s.GetAsync(keys[1], 48, func([]byte, Duration, bool) {})
	s.Flush()
	s.Testbed().RunFor(2 * sim.Microsecond) // in flight
	taken := s.gets.made - len(s.gets.free)
	if taken != 1 {
		t.Fatalf("setup: %d get records in use, want 1", taken)
	}
	s.Run()
	mustPanic("a stale attempt on a re-taken, re-released record", "get continuation", func() { g.attemptFn(nil, 0, false) })
}

// rewriteKeys runs users closed loops that set the keys, in order, to
// Value(key+delta, 48), and returns at once.
func rewriteKeys(s *Service, keys []uint64, users int, delta uint64) {
	i := 0
	var user func()
	user = func() {
		if i == len(keys) {
			return
		}
		k := keys[i]
		i++
		s.SetAsync(k, Value(k+delta, 48), func(Duration, error) {
			user()
			s.Flush()
		})
	}
	for u := 0; u < users; u++ {
		user()
	}
	s.Flush()
}

// hintedOutage preloads n keys on three r=3 shards, each served by two
// 4-deep client connections (eight write slots per owner), crashes the
// first shard, and rewrites every key to Value(key+1) through users
// closed loops while it is down, so n hints wait for it. A write waits
// for all three owners (W=3), so with all of them up a user never has
// more than one write's legs in flight; while one is down its writes
// fail, and hint all the same. It returns once the hints are queued,
// with the owner and the virtual time its host comes back.
func hintedOutage(t *testing.T, n, users int) (*Service, *serviceShard, sim.Time) {
	t.Helper()
	s := NewServiceWith(ServiceConfig{
		Shards: 3, ClientsPerShard: 2, Pipeline: 4, Mode: LookupSeq,
		Replicas: 3, WriteQuorum: 3, Buckets: 1 << 12, MaxValLen: 64})
	keys := preloadKeys(t, s, n)
	victim := s.order[0]
	crashAt := s.Now() + sim.Microsecond
	s.CrashShard(0, failure.ProcessCrash, crashAt)
	s.Testbed().RunFor(10 * sim.Microsecond)
	// With the breaker open the owner's legs hint at once, not after a
	// MissTimeout each; the reconnect at recovery closes it.
	victim.suspectUntil = s.Now() + 10*sim.Second
	rewriteKeys(s, keys, users, 1)
	s.Testbed().RunFor(sim.Second)
	if hintsOn(victim) != n || !victim.hostDown {
		t.Fatalf("setup: %d of %d hints wait for the owner (down: %v)", hintsOn(victim), n, victim.hostDown)
	}
	return s, victim, crashAt + failure.BootstrapTime + failure.RebuildTime
}

// A recovery drains its hints through the owner's drain lanes — one
// per write slot of its clients — not all at once: however many hints
// the outage left, the drain holds no more owner applies, and puts no
// more requests in the reset set pipelines, than the owner has write
// slots, beside what the users themselves have in flight. Each replay
// is an owner run that waits for or holds its key's write slot, so
// between events the slots account for every run out (slotsWhole). The
// users rewrite the hinted keys during the drain, so some hints are
// superseded in the queue and some replays meet a newer write at the
// key's write slot; every key still ends at its newest value.
func TestHintDrainIsBounded(t *testing.T) {
	const n, users = 256, 4
	s, victim, up := hintedOutage(t, n, users)
	lanes := s.cfg.ClientsPerShard * s.cfg.Pipeline
	if victim.lanes != lanes || lanes != 8 {
		t.Fatalf("setup: %d idle drain lanes, want all %d of 8", victim.lanes, lanes)
	}
	// Count the owner-apply records the recovery makes. The outage's
	// writes failed while their live legs still ran, so its users grew
	// the pool past what they hold with every owner up.
	if len(s.runs.free) != s.runs.made {
		t.Fatalf("setup: %d of %d owner-apply records home before the recovery", len(s.runs.free), s.runs.made)
	}
	s.runs = recordPool[ownerRun]{}
	eng := s.Testbed().Engine()
	eng.RunUntil(up)
	if victim.hostDown || hintsOn(victim) == 0 {
		t.Fatalf("setup: at recovery the owner is down=%v with %d hints", victim.hostDown, hintsOn(victim))
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(n - i)
	}
	rewriteKeys(s, keys, users, 2)
	busy, held := 0, 0
	for eng.Pending() > 0 {
		if err := slotsWhole(s); err != nil {
			t.Fatalf("at %v: %v", s.Now(), err)
		}
		busy = max(busy, lanes-victim.lanes)
		h := 0
		for _, cli := range victim.clients {
			st := cli.pipelineStats(pipeSet)
			h += st.InFlight + st.Queued
		}
		held = max(held, h)
		eng.RunUntil(eng.Now() + sim.Microsecond)
	}
	st := s.Stats().Shards[0]
	if busy == 0 || busy > lanes {
		t.Fatalf("at most %d drain lanes were busy at once, want 1 to %d", busy, lanes)
	}
	// A busy lane holds one owner-apply record, its replay's run, and a
	// user's write three, one per leg. One record more can be live: a
	// leg's finish returns its record only after its done has run, and
	// that done can complete its write, whose user then starts the next
	// write's three legs before the record is back. A replay's record is
	// back before its lane moves on, and no done finishes another record
	// synchronously (every apply completes from an engine event, and the
	// next run is granted the slot only after the put), so only one
	// record at a time is in that hand-off.
	if s.runs.made > lanes+3*users+1 {
		t.Fatalf("the recovery made %d owner-apply records: more than %d lanes, %d users and one hand-off need",
			s.runs.made, lanes, users)
	}
	if held > lanes+users {
		t.Fatalf("the reset set pipelines held %d requests at once: more than %d lanes and %d users",
			held, lanes, users)
	}
	if st.HintsApplied == 0 || st.HintsDropped == 0 || st.HintsQueued != st.HintsApplied+st.HintsDropped ||
		hintsOn(victim) != 0 {
		t.Fatalf("hints: %d queued, %d applied, %d dropped, %d pending", st.HintsQueued, st.HintsApplied,
			st.HintsDropped, hintsOn(victim))
	}
	for _, k := range keys {
		if v, ok := ownerValue(t, s, victim.id, k); !ok || !bytes.Equal(v, Value(k+2, 48)) {
			t.Fatalf("key %d: the recovered owner does not hold its newest value", k)
		}
	}
	recordsHome(t, s)
}

// A second crash mid-drain leaves the hints not yet applied queued on
// the owner — none lost, none applied twice — and the next recovery
// drains them.
func TestHintDrainSurvivesSecondCrash(t *testing.T) {
	const n = 400
	s, victim, up := hintedOutage(t, n, 4)
	applied := map[uint64]int{}
	s.applyHook = func(id string, key, seq uint64) {
		if id == victim.id {
			applied[key]++
		}
	}
	eng := s.Testbed().Engine()
	eng.RunUntil(up)
	for len(applied) == 0 {
		eng.RunUntil(eng.Now() + sim.Microsecond)
	}
	s.CrashShard(0, failure.ProcessCrash, s.Now())
	eng.RunUntil(s.Now() + sim.Microsecond)
	if !victim.hostDown || hintsOn(victim) < 100 {
		t.Fatalf("setup: the second crash found %d hints queued (down: %v), want >= 100",
			hintsOn(victim), victim.hostDown)
	}
	// Through the second outage: the replays in flight fail, and nothing
	// else starts.
	eng.RunUntil(s.Now() + 100*sim.Millisecond)
	st := s.Stats().Shards[0]
	if victim.lanes != s.cfg.ClientsPerShard*s.cfg.Pipeline {
		t.Fatalf("%d drain lanes still busy with the owner down", s.cfg.ClientsPerShard*s.cfg.Pipeline-victim.lanes)
	}
	if int(st.HintsApplied)+hintsOn(victim) != n || st.HintsDropped != 0 {
		t.Fatalf("mid-outage: %d applied + %d pending of %d hints (%d dropped)",
			st.HintsApplied, hintsOn(victim), n, st.HintsDropped)
	}
	for k, c := range applied {
		if c != 1 || victim.lackAt(k) != nil {
			t.Fatalf("key %d: applied %d times, still pending: %v", k, c, victim.lackAt(k) != nil)
		}
	}
	s.Run()
	st = s.Stats().Shards[0]
	if st.Rebuilds != 2 || st.HintsApplied != n || hintsOn(victim) != 0 || len(applied) != n {
		t.Fatalf("after the second recovery: %d rebuilds, %d of %d hints applied to %d keys, %d pending",
			st.Rebuilds, st.HintsApplied, n, len(applied), hintsOn(victim))
	}
	for k, c := range applied {
		if c != 1 {
			t.Fatalf("key %d applied %d times", k, c)
		}
		if v, ok := ownerValue(t, s, victim.id, k); !ok || !bytes.Equal(v, Value(k+1, 48)) {
			t.Fatalf("key %d: the recovered owner does not hold the hinted value", k)
		}
	}
	recordsHome(t, s)
}

// residentBytes sums the arena extents sh's table names, their headers
// included: what its arena holds live once a quiesce has returned every
// retired extent.
func residentBytes(sh *serviceShard) uint64 {
	t := sh.table.Table()
	var n uint64
	for i := uint64(0); i < t.NumBuckets(); i++ {
		if _, va, _, ok := t.EntryAt(i); ok {
			size, _ := sh.srv.arena.Size(va)
			n += extent.HeadBytes + size
		}
	}
	return n
}

// A restarted shard's connections are reset in place, not rebuilt:
// through 40 process crashes of one shard — each with a set and a get
// of every key issued as it goes down, and again once it is back — the
// shard's server node and both its client nodes allocate no node
// memory after the first recovery, its NIC's QP table stays the size it
// was, and its arena holds exactly the extents its table names: the
// staging extents of the set slots the crash wedged went back.
func TestServiceReconnectReusesConnections(t *testing.T) {
	const cycles = 40
	s := NewServiceWith(ServiceConfig{
		Shards: 4, ClientsPerShard: 2, Pipeline: 16, Mode: LookupSeq,
		Replicas: 3, WriteQuorum: 2, Buckets: 1 << 12, MaxValLen: 64})
	keys := preloadKeys(t, s, 64)
	sh := s.order[0]
	failed, r := 0, 0
	// round sets every key to its next value and gets it.
	round := func() {
		r++
		for _, k := range keys {
			s.SetAsync(k, Value(k+uint64(r), 48), func(_ Duration, err error) {
				if err != nil {
					failed++
				}
			})
			s.GetAsync(k, 48, func(_ []byte, _ Duration, ok bool) {
				if !ok {
					failed++
				}
			})
		}
		s.Flush()
	}
	type cursors [3]uint64
	cursorsNow := func() (c cursors) {
		c[0] = sh.srv.node.Mem.Alloc(0, 1)
		for i, cli := range sh.clients {
			c[1+i] = cli.node.Mem.Alloc(0, 1)
		}
		return c
	}
	qps := func() (n uint32) {
		for sh.srv.node.Dev.QPByNum(n) != nil {
			n++
		}
		return n
	}
	// A few rounds first take the arena to its working set.
	for i := 0; i < 4; i++ {
		round()
		s.Run()
	}
	var flat cursors
	var nQP uint32
	for c := 1; c <= cycles; c++ {
		// The NIC freezes at a different point of the round's first
		// chains each cycle — WAITs parked on triggers it will drop,
		// chains cut short mid-way — and later ones wedge.
		s.CrashShard(0, failure.ProcessCrash, s.Now()+sim.Time(c*347%9000)*sim.Nanosecond)
		round()
		s.Run() // through the recovery and the hint drain
		// One at a time, each get is answered by its first owner: no
		// context of the reset connections waits on a trigger from
		// before the crash.
		retries := s.Stats().Retries
		for _, k := range keys {
			if _, _, ok := s.Get(k, 48); !ok {
				t.Fatalf("cycle %d: get %d missed", c, k)
			}
		}
		if n := s.Stats().Retries - retries; n != 0 {
			t.Fatalf("cycle %d: %d gets retried on the recovered shard's connections", c, n)
		}
		round()
		s.Run()
		if failed != 0 {
			t.Fatalf("cycle %d: %d ops failed", c, failed)
		}
		if live, res := sh.srv.arena.Stats().LiveBytes, residentBytes(sh); live != res {
			t.Fatalf("cycle %d: arena holds %d live bytes, its table names %d", c, live, res)
		}
		for _, cli := range sh.clients {
			for _, p := range cli.pipes {
				if p.inFlight != 0 || p.nWedged != 0 || len(p.free) != p.depth {
					t.Fatalf("cycle %d: %s %s pipeline quiesced with %d in flight, %d wedged, %d of %d free",
						c, cli.node.Name, p.name, p.inFlight, p.nWedged, len(p.free), p.depth)
				}
			}
		}
		if c == 1 {
			flat, nQP = cursorsNow(), qps()
			continue
		}
		if now := cursorsNow(); now != flat {
			t.Fatalf("cycle %d: node memory cursors moved from %v to %v", c, flat, now)
		}
		if n := qps(); n != nQP {
			t.Fatalf("cycle %d: the shard's NIC has %d QPs, %d after the first recovery", c, n, nQP)
		}
	}
	st := s.Stats()
	if st.Shards[0].Rebuilds != cycles || st.HintsApplied == 0 {
		t.Fatalf("%d reconnects for %d crashes, %d hints applied", st.Shards[0].Rebuilds, cycles, st.HintsApplied)
	}
	recordsHome(t, s)
}

// An owner's missing write is one record per (owner, key), a hint or a
// repair, and these are its rules at the service. Merge: the newer seq
// stands and a tie goes to the record with bytes — two repairs merge in
// place, a newer hint supersedes a repair and takes its place in the
// drain, an older hint loses to a repair and its write settles, a repair
// newer than a hint drops it. The owner-live gate: a record whose replay
// finds the owner's breaker open stays, with no retry of its own, until
// the owner proves live (drainHints, what a hit, a probe's answer or a
// recovery calls). A repair that cannot land yet — a capacity rejection,
// or a write to its key still in flight — parks for the retry tick,
// which retries it under backoff until it lands or, after
// repairMaxTries, drops it, counted; and a leaving owner's repairs are
// dropped.
// The records stay whole (repairsWhole) after every step.
func TestMissingWriteRecordMergesGatesAndDrops(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 3, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq,
		Replicas: 2, WriteQuorum: 1, Buckets: 1 << 12, MaxValLen: 64})
	keys := preloadKeys(t, s, 48)
	whole := func(step string) {
		t.Helper()
		if err := repairsWhole(s); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	a := s.shards[s.owners(keys[0])[1]]
	var mine []uint64 // keys a owns
	for _, k := range keys {
		if s.isOwner(a.id, k) {
			mine = append(mine, k)
		}
	}
	k0, k1 := mine[0], mine[1]
	stat := func() ShardStats { return a.stats }
	record := func(key uint64) (seq uint64, hint bool) {
		t.Helper()
		l := a.lackAt(key)
		if l == nil {
			t.Fatalf("no record stands for key %d", key)
		}
		return l.seq, l.op != nil
	}

	// Merge, with every drain lane of a busy so the records stand.
	lanes := a.lanes
	a.lanes = 0
	if !s.queueRepair(a, k0, 5) || s.queueRepair(a, k0, 7) || s.queueRepair(a, k0, 6) {
		t.Fatal("a second repair for the pair made a record, or the first did not")
	}
	whole("two repairs")
	if seq, hint := record(k0); seq != 7 || hint || stat().RepairsQueued != 1 {
		t.Fatalf("record at seq %d (hint %v), %d queued: want one repair at seq 7", seq, hint, stat().RepairsQueued)
	}
	// a's breaker opens: its write legs fail into hints at the key's
	// next seq, 2. On k0 the hint is older than the repair and loses; on
	// k1 it supersedes a repair at seq 1 and keeps its drain place.
	s.queueRepair(a, k1, 1)
	a.suspectUntil = s.Now() + 100*sim.Second
	before := stat()
	for _, k := range []uint64{k0, k1} {
		s.SetAsync(k, Value(k+2, 48), nil)
	}
	s.Flush()
	s.Testbed().RunFor(100 * sim.Microsecond)
	whole("hints against repairs")
	now := stat()
	if seq, hint := record(k0); seq != 7 || hint || !s.settled(k0) {
		t.Fatalf("k0: record at seq %d (hint %v), write settled %v: want the repair standing, the hint's write settled",
			seq, hint, s.settled(k0))
	}
	if seq, hint := record(k1); seq != 2 || !hint || !a.lackAt(k1).queued || s.settled(k1) {
		t.Fatalf("k1: record at seq %d (hint %v, queued %v): want the queued hint at seq 2", seq, hint, a.lackAt(k1).queued)
	}
	if now.HintsQueued-before.HintsQueued != 1 || now.HintsDropped-before.HintsDropped != 1 ||
		now.RepairsSuperseded-before.RepairsSuperseded != 1 {
		t.Fatalf("%d hints queued, %d dropped, %d repairs superseded: want 1, 1, 1", now.HintsQueued-before.HintsQueued,
			now.HintsDropped-before.HintsDropped, now.RepairsSuperseded-before.RepairsSuperseded)
	}
	// A repair at the hint's seq merges into it; a newer one drops it,
	// settling its write.
	if s.queueRepair(a, k1, 2) {
		t.Fatal("a repair tied with a hint made a record")
	}
	if !s.queueRepair(a, k1, 3) {
		t.Fatal("a repair newer than the hint made no record")
	}
	whole("a repair against a hint")
	if seq, hint := record(k1); seq != 3 || hint || !s.settled(k1) || stat().HintsDropped-now.HintsDropped != 1 {
		t.Fatal("a repair newer than the hint did not replace it and settle its write")
	}

	// The owner-live gate: lanes free, breaker open. Each replay finds
	// the owner unreachable and its record stays, queued for nothing,
	// through any stretch of time.
	a.lanes = lanes
	s.pumpDrain(a)
	s.Testbed().RunFor(50 * sim.Millisecond)
	whole("gated")
	for _, k := range []uint64{k0, k1} {
		if l := a.lackAt(k); l == nil || l.queued || l.draining {
			t.Fatalf("key %d: the record of an unreachable owner did not wait for it", k)
		}
	}
	if a.nRepairs != 2 || stat().RepairsApplied != now.RepairsApplied {
		t.Fatalf("%d repairs pending, %d applied while the owner was unreachable", a.nRepairs, stat().RepairsApplied-now.RepairsApplied)
	}
	a.markLive()
	s.drainHints(a, false)
	s.Run()
	whole("live")
	for _, k := range []uint64{k0, k1} {
		if v, ok := ownerValue(t, s, a.id, k); !ok || !bytes.Equal(v, Value(k+2, 48)) {
			t.Fatalf("key %d: the owner proved live and was not rolled forward", k)
		}
	}
	if a.nRepairs != 0 || stat().RepairsApplied-now.RepairsApplied != 2 {
		t.Fatalf("%d repairs pending, %d applied once the owner proved live: want 0 and 2",
			a.nRepairs, stat().RepairsApplied-now.RepairsApplied)
	}

	// A repair that meets a write in flight parks for the retry tick,
	// and the retry after the write settles finds the owner caught up.
	kb := mine[2]
	rec := s.keys[kb]
	rec.unsettled++
	s.keys[kb] = rec
	superseded := stat().RepairsSuperseded
	s.queueRepair(a, kb, 3)
	if l := a.lackAt(kb); l == nil || l.tries != 1 || l.queued || !s.retryArmed {
		t.Fatal("a repair of an unsettled key did not park for the retry tick")
	}
	whole("parked")
	rec.unsettled--
	s.keys[kb] = rec
	s.Run()
	if a.lackAt(kb) != nil || stat().RepairsSuperseded != superseded+1 {
		t.Fatal("a parked repair was not retried once its key settled")
	}

	// A capacity rejection parks the repair too: a probe or sweep that
	// finds the divergence again merges into it, and the retry tick tries
	// it under backoff until it lands once capacity frees. diverge
	// returns a new key a owns that only its other owner holds, at seq 2,
	// with a's table full.
	kr := uint64(10_000)
	diverge := func() []uint64 {
		t.Helper()
		for kr++; !s.isOwner(a.id, kr); kr++ {
		}
		other := s.shards[s.owners(kr)[0]]
		if other == a {
			other = s.shards[s.owners(kr)[1]]
		}
		rec := s.keys[kr]
		rec.seq = 2
		s.keys[kr] = rec
		if err := other.set(kr, Value(kr+2, 48), 2); err != nil {
			t.Fatal(err)
		}
		return fillTable(t, a)
	}
	full := diverge()
	queued, applied := stat().RepairsQueued, stat().RepairsApplied
	s.queueRepair(a, kr, 2)
	if runWhole(t, s, sim.Millisecond, sim.Microsecond) == 0 {
		t.Fatal("no check saw the refused repair standing")
	}
	if l := a.lackAt(kr); l == nil || l.tries < 2 || s.queueRepair(a, kr, 2) || stat().RepairsQueued != queued+1 {
		t.Fatal("a refused repair did not stand through its retries")
	}
	for _, k := range full {
		a.table.table.Delete(k)
	}
	runWhole(t, s, 20*sim.Millisecond, sim.Microsecond)
	if v, ok := ownerValue(t, s, a.id, kr); !ok || !bytes.Equal(v, Value(kr+2, 48)) || stat().RepairsApplied != applied+1 {
		t.Fatal("a refused repair did not roll the owner forward once capacity freed")
	}
	// A table that stays full drops it, counted, after repairMaxTries,
	// and nothing retries it further: the engine drains.
	full = diverge()
	dropped := stat().RepairsDropped
	s.queueRepair(a, kr, 2)
	s.Run()
	whole("dropped")
	if a.lackAt(kr) != nil || stat().RepairsDropped != dropped+1 {
		t.Fatalf("a repair refused %d times: still standing %v, %d dropped", repairMaxTries,
			a.lackAt(kr) != nil, stat().RepairsDropped-dropped)
	}
	for _, k := range full {
		a.table.table.Delete(k)
	}

	// A leaving owner's repairs are dropped, counted, when its drain
	// starts.
	a.lanes = 0
	s.queueRepair(a, mine[4], 1)
	dropped = stat().RepairsDropped
	if err := s.DrainShard(a.id); err != nil {
		t.Fatal(err)
	}
	if a.nRepairs != 0 || stat().RepairsDropped != dropped+1 {
		t.Fatalf("%d repairs left on the leaving owner, %d dropped", a.nRepairs, stat().RepairsDropped-dropped)
	}
	s.Run()
	if err := repairsWhole(s, a); err != nil {
		t.Fatal(err)
	}
	recordsHome(t, s, a.clients...)
}

// fillTable fills every empty bucket of sh's table with filler keys, so
// an insert there is rejected, and returns the fillers. Each lands in
// its first candidate's neighborhood, where Delete finds it.
func fillTable(t *testing.T, sh *serviceShard) []uint64 {
	t.Helper()
	tb := sh.table.table
	n, empty := tb.NumBuckets(), 0
	for i := range n {
		if _, _, _, ok := tb.EntryAt(i); !ok {
			empty++
		}
	}
	var fill []uint64
	for k := uint64(500_000); len(fill) < empty; k++ {
		for d := range uint64(tb.Neighborhood()) {
			i := (tb.Hash(k, 0) + d) % n
			if _, _, _, ok := tb.EntryAt(i); ok {
				continue
			}
			if err := tb.WriteBucket(i, k, 0x2000+i*8, 8); err != nil {
				t.Fatal(err)
			}
			fill = append(fill, k)
			break
		}
	}
	return fill
}
