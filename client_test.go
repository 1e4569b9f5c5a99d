package redn

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/wqe"
)

// A 16-deep pipelined client must land every in-flight get in its own
// response buffer, demultiplexed per request, including duplicate keys.
func TestPipelinedClientDemux(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(4096)
	const n = 64
	for k := uint64(1); k <= n; k++ {
		if err := table.Set(k, Value(k, 64)); err != nil {
			t.Fatal(err)
		}
	}
	cli := tb.NewPipelinedClient(srv, LookupSingle, 16)
	cli.Bind(table)

	done := 0
	issue := func(key uint64) {
		cli.GetAsync(key, 64, func(val []byte, lat Duration, ok bool) {
			done++
			if !ok {
				t.Errorf("get(%d) missed", key)
				return
			}
			if !bytes.Equal(val, Value(key, 64)) {
				t.Errorf("get(%d): wrong value", key)
			}
			if lat <= 0 {
				t.Errorf("get(%d): latency %v", key, lat)
			}
		})
	}
	// 2x the pipeline depth, with duplicate keys in flight.
	for i := 0; i < 32; i++ {
		issue(uint64(i%12 + 1))
	}
	cli.Flush()
	tb.Run()
	if done != 32 {
		t.Fatalf("completed %d of 32 gets", done)
	}
	if st := cli.pipelineStats(pipeGet); st.InFlight != 0 {
		t.Fatalf("%d gets still in flight after drain", st.InFlight)
	}
	if cli.get.maxInFlight != 16 {
		t.Fatalf("pipeline high-water %d, want 16", cli.get.maxInFlight)
	}
}

// Pipelining must overlap request latencies: 32 gets 16-deep should
// finish in far less virtual time than 32 blocking gets.
func TestPipelineOverlapsLatency(t *testing.T) {
	run := func(depth int) sim.Time {
		tb := NewTestbed()
		srv := tb.NewServer()
		table := srv.NewHashTable(4096)
		for k := uint64(1); k <= 64; k++ {
			table.Set(k, Value(k, 64))
		}
		cli := tb.NewPipelinedClient(srv, LookupSingle, depth)
		cli.Bind(table)
		var last sim.Time
		issued := 0
		var next func()
		next = func() {
			if issued >= 32 {
				return
			}
			issued++
			cli.GetAsync(uint64(issued%64+1), 64, func(_ []byte, _ Duration, ok bool) {
				if !ok {
					t.Fatal("miss")
				}
				last = tb.Now()
				next()
			})
		}
		for i := 0; i < depth && issued < 32; i++ {
			next()
		}
		cli.Flush()
		tb.Run()
		return last
	}
	blocking := run(1)
	pipelined := run(16)
	if pipelined*2 >= blocking {
		t.Fatalf("16-deep pipeline took %v vs blocking %v; expected >2x overlap", pipelined, blocking)
	}
}

// A blocking Get issued while the pipeline is saturated must still
// complete (queued behind the in-flight window), not report a false
// miss after one timeout window.
func TestBlockingGetOnBusyPipeline(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(4096)
	for k := uint64(1); k <= 64; k++ {
		table.Set(k, Value(k, 64))
	}
	cli := tb.NewPipelinedClient(srv, LookupSingle, 4)
	cli.Bind(table)
	// Saturate every slot plus the client-side queue without flushing.
	async := 0
	for i := 0; i < 12; i++ {
		cli.GetAsync(uint64(i%64+1), 64, func(_ []byte, _ Duration, ok bool) {
			if !ok {
				t.Error("async get missed")
			}
			async++
		})
	}
	val, lat, ok := cli.Get(33, 64)
	if !ok {
		t.Fatal("blocking Get reported a false miss behind a busy pipeline")
	}
	if !bytes.Equal(val, Value(33, 64)) {
		t.Fatal("blocking Get returned wrong value")
	}
	if lat <= 0 {
		t.Fatalf("latency %v", lat)
	}
	tb.Run()
	if async != 12 {
		t.Fatalf("only %d of 12 queued async gets completed", async)
	}
}

// Misses complete via the configurable timeout and report exactly the
// elapsed-to-timeout latency.
func TestMissTimeoutConfigurable(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1024)
	table.Set(1, Value(1, 64))
	cli := tb.NewClient(srv, LookupSingle)
	cli.Bind(table)

	cli.MissTimeout = 50 * sim.Microsecond
	before := tb.Now()
	_, lat, ok := cli.Get(999, 64)
	if ok {
		t.Fatal("absent key reported found")
	}
	if lat != 50*sim.Microsecond {
		t.Fatalf("miss latency %v, want exactly the 50us timeout", lat)
	}
	if tb.Now()-before != 50*sim.Microsecond {
		t.Fatalf("sync Get advanced %v, want 50us", tb.Now()-before)
	}

	// A hit still works with the shorter deadline and reports real latency.
	val, lat, ok := cli.Get(1, 64)
	if !ok || !bytes.Equal(val, Value(1, 64)) {
		t.Fatal("hit failed under short timeout")
	}
	if lat <= 0 || lat >= 50*sim.Microsecond {
		t.Fatalf("hit latency %v out of range", lat)
	}
}

// A miss inside a full pipeline must not wedge the other slots.
func TestMissDoesNotStallPipeline(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(4096)
	for k := uint64(1); k <= 32; k++ {
		table.Set(k, Value(k, 64))
	}
	cli := tb.NewPipelinedClient(srv, LookupSeq, 8)
	cli.Bind(table)
	cli.MissTimeout = 30 * sim.Microsecond

	hits, misses := 0, 0
	for i := 0; i < 24; i++ {
		key := uint64(i%8 + 1)
		if i%6 == 5 {
			key = 40000 + uint64(i) // absent
		}
		cli.GetAsync(key, 64, func(_ []byte, _ Duration, ok bool) {
			if ok {
				hits++
			} else {
				misses++
			}
		})
	}
	cli.Flush()
	tb.Run()
	if hits != 20 || misses != 4 {
		t.Fatalf("hits=%d misses=%d, want 20/4", hits, misses)
	}
}

// A frozen server NIC drops trigger SENDs, so armed instances never
// execute. The client must quarantine those slots instead of stacking
// fresh instances on dead contexts (which would overflow the offload's
// chain rings), fail fast once every slot is wedged, and never strand
// a queued get without its callback.
func TestClientWedgesOnFrozenServer(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1024)
	for k := uint64(1); k <= 8; k++ {
		table.Set(k, Value(k, 64))
	}
	cli := tb.NewPipelinedClient(srv, LookupSeq, 4)
	cli.Bind(table)
	cli.MissTimeout = 50 * sim.Microsecond

	// Sanity: hits flow while the NIC is alive.
	if _, _, ok := cli.Get(1, 64); !ok {
		t.Fatal("get missed on a healthy server")
	}

	srv.node.Dev.Freeze()
	// Far more gets than slots: every present key now times out, slots
	// wedge one by one, and the overflow fails fast instead of queueing
	// forever. No ring overflow panic may occur.
	results := 0
	for i := 0; i < 64; i++ {
		cli.GetAsync(uint64(i%8+1), 64, func(_ []byte, lat Duration, ok bool) {
			results++
			if ok {
				t.Error("hit from a frozen NIC")
			}
			if lat != cli.MissTimeout {
				t.Errorf("miss latency %v, want the %v timeout", lat, cli.MissTimeout)
			}
		})
	}
	cli.Flush()
	tb.Run()
	if results != 64 {
		t.Fatalf("%d of 64 gets completed against a frozen NIC", results)
	}
	st := cli.pipelineStats(pipeGet)
	if st.Wedged != cli.depth {
		t.Fatalf("%d of %d slots wedged; the dead connection was re-armed", st.Wedged, cli.depth)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("stranded requests: inflight=%d queued=%d", st.InFlight, st.Queued)
	}
}

// Genuine misses on a live NIC execute their chains (the CAS fails,
// the response stays a NOOP), so timeouts must NOT quarantine slots.
func TestClientMissesDoNotWedge(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1024)
	table.Set(1, Value(1, 64))
	cli := tb.NewPipelinedClient(srv, LookupSeq, 4)
	cli.Bind(table)
	cli.MissTimeout = 50 * sim.Microsecond

	for i := 0; i < 20; i++ {
		if _, _, ok := cli.Get(5000+uint64(i), 64); ok {
			t.Fatal("absent key found")
		}
	}
	if w := cli.pipelineStats(pipeGet).Wedged; w != 0 {
		t.Fatalf("%d slots wedged by ordinary misses", w)
	}
	// And the connection still serves hits.
	if _, _, ok := cli.Get(1, 64); !ok {
		t.Fatal("hit failed after a run of misses")
	}
}

// A NIC-claimed set round-trips: the claim chain installs the key, a
// pipelined offloaded get returns the staged bytes, and the set's
// latency is a real fabric round trip — never zero.
func TestClientSetRoundTrip(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(4096)
	cli := tb.NewPipelinedClient(srv, LookupSeq, 8)
	cli.Bind(table)

	for k := uint64(1); k <= 32; k++ {
		lat, ok := cli.Set(k, Value(k, 64))
		if !ok {
			t.Fatalf("set(%d) not acknowledged", k)
		}
		if lat <= 0 {
			t.Fatalf("set(%d) completed in zero virtual time — not a fabric write", k)
		}
	}
	for k := uint64(1); k <= 32; k++ {
		val, _, ok := cli.Get(k, 64)
		if !ok {
			t.Fatalf("get(%d) missed after NIC set", k)
		}
		if !bytes.Equal(val, Value(k, 64)) {
			t.Fatalf("get(%d): wrong bytes", k)
		}
	}
	if cli.set.acks != 32 || cli.set.fails != 0 {
		t.Fatalf("acks=%d fails=%d, want 32/0", cli.set.acks, cli.set.fails)
	}
}

// Overwriting through the fabric repoints the bucket at the fresh
// staging extent: the get returns the new bytes, not the old.
func TestClientSetOverwrite(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1024)
	cli := tb.NewPipelinedClient(srv, LookupSeq, 4)
	cli.Bind(table)

	const key = 9
	if _, ok := cli.Set(key, Value(key, 64)); !ok {
		t.Fatal("first set failed")
	}
	if _, ok := cli.Set(key, Value(key+100, 64)); !ok {
		t.Fatal("overwrite set failed")
	}
	val, _, ok := cli.Get(key, 64)
	if !ok || !bytes.Equal(val, Value(key+100, 64)) {
		t.Fatal("get returned stale bytes after an overwrite")
	}
}

// A claim whose CAS expectation is stale must be refused by the NIC —
// the bucket keeps its resident — and surface as ok=false one fabric
// round trip later (the ack carries the verdict; nothing waits out the
// miss deadline), with the chain counted as executed (a refusal is not
// a dead connection) and its receipt an observed latency, not a
// censored one.
func TestClientSetClaimRefused(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1024)
	cli := tb.NewPipelinedClient(srv, LookupSeq, 4)
	cli.Bind(table)
	cli.enableProvenance()

	const key = 5
	if _, ok := cli.Set(key, Value(key, 64)); !ok {
		t.Fatal("setup set failed")
	}
	// Forge a claim that believes the key's bucket is empty: the CAS
	// compare (expect 0) fails against the resident key.
	ht := table.Table()
	bucket := uint64(0)
	for fn := 0; fn < 2; fn++ {
		if k, _, _, ok := ht.EntryAt(ht.Hash(key, fn)); ok && k == key {
			bucket = ht.BucketAddr(ht.Hash(key, fn))
		}
	}
	if bucket == 0 {
		t.Fatal("key not at a candidate bucket")
	}
	var executed bool
	var refusedLat Duration
	doneOK := true
	cli.setAsyncClaim(777, Value(777, 64),
		// Claim key's bucket for key 777 expecting it empty.
		coreSetClaim(bucket, 0, 777), 1,
		func(lat Duration, ok bool) {
			doneOK, refusedLat = ok, lat
			executed = cli.lastExecuted(pipeSet)
			if r := cli.lastReceipt(pipeSet); r.Censored || r.Total != lat || r.Total != r.PhaseSum() {
				t.Errorf("refusal receipt %+v, want uncensored with Total == PhaseSum == %v", r, lat)
			}
		})
	cli.Flush()
	tb.Run()
	if doneOK {
		t.Fatal("stale claim was acknowledged")
	}
	if !executed {
		t.Fatal("refused claim reported as never-executed (would trip the crash detector)")
	}
	if refusedLat <= 0 || refusedLat >= 20*sim.Microsecond {
		t.Fatalf("refusal took %v, want one fabric round trip", refusedLat)
	}
	if st := cli.Stats(); st.SetFails != 1 || st.SetsWedged != 0 {
		t.Fatalf("refusal counted as %d fails, %d wedged slots; want 1, 0", st.SetFails, st.SetsWedged)
	}
	// The resident survived the refused claim, bit-exact.
	val, _, ok := cli.Get(key, 64)
	if !ok || !bytes.Equal(val, Value(key, 64)) {
		t.Fatal("resident corrupted by a refused claim")
	}
}

// Pipelined sets overlap on the fabric: 32 sets through an 8-deep
// write pipeline must beat 32 blocking sets by a wide margin.
func TestClientSetPipelineOverlaps(t *testing.T) {
	elapsed := func(depth int) Duration {
		tb := NewTestbed()
		srv := tb.NewServer()
		table := srv.NewHashTable(4096)
		cli := tb.NewPipelinedClient(srv, LookupSeq, depth)
		cli.Bind(table)
		start := tb.Now()
		done := 0
		var lastDone Duration
		for k := uint64(1); k <= 32; k++ {
			key := k
			cli.SetAsync(key, Value(key, 64), func(_ Duration, ok bool) {
				if !ok {
					t.Errorf("set(%d) failed", key)
				}
				done++
				lastDone = tb.Now()
			})
		}
		cli.Flush()
		// Run drains the per-set timeout no-ops too, so measure the
		// last acknowledgement, not the post-drain clock.
		tb.Run()
		if done != 32 {
			t.Fatalf("completed %d of 32 sets", done)
		}
		if depth > 1 && cli.set.maxInFlight < depth {
			t.Fatalf("write pipeline never filled: high-water %d of %d", cli.set.maxInFlight, depth)
		}
		return lastDone - start
	}
	blocking := elapsed(1)
	piped := elapsed(8)
	if piped*3 > blocking {
		t.Fatalf("8-deep sets took %v vs blocking %v — no overlap", piped, blocking)
	}
}
func coreSetClaim(bucket, expect, key uint64) core.SetClaim {
	return core.SetClaim{BucketAddr: bucket, Expect: expect, New: core.ClaimCtrl(key)}
}

// Regression: a single-probe client's gets only ever read H1, so its
// set path must refuse a key whose H1 is taken rather than claim H2 —
// an acknowledged write the client could never read back.
func TestClientSetSingleModeRefusesUnreachableClaim(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(256)
	cli := tb.NewPipelinedClient(srv, LookupSingle, 4)
	cli.Bind(table)
	ht := table.Table()

	const key = 1
	var blocker uint64
	for b := uint64(2); ; b++ {
		if ht.Hash(b, 0) == ht.Hash(key, 0) {
			blocker = b
			break
		}
	}
	if err := table.Set(blocker, Value(blocker, 16)); err != nil {
		t.Fatal(err)
	}
	if _, ok := cli.Set(key, Value(key, 16)); ok {
		t.Fatal("single-mode client acked a set at a bucket its own gets never probe")
	}
	if _, _, ok := cli.Get(blocker, 16); !ok {
		t.Fatal("blocker lost after the refused claim")
	}
}

// A NIC-claimed delete round-trips: the claim chain tombstones the
// bucket, a subsequent get misses, the unlinked extent returns to the
// server arena through the to-free ring, and the delete's latency is a
// real fabric round trip — never zero.
func TestClientDeleteRoundTrip(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(4096)
	cli := tb.NewPipelinedClient(srv, LookupSeq, 8)
	cli.Bind(table)

	for k := uint64(1); k <= 16; k++ {
		if _, ok := cli.Set(k, Value(k, 64)); !ok {
			t.Fatalf("set(%d) failed", k)
		}
	}
	liveBefore := srv.valueArena().LiveBytes()
	for k := uint64(1); k <= 16; k++ {
		lat, ok := cli.Delete(k)
		if !ok {
			t.Fatalf("delete(%d) not acknowledged", k)
		}
		if lat <= 0 {
			t.Fatalf("delete(%d) completed in zero virtual time — not a fabric delete", k)
		}
	}
	for k := uint64(1); k <= 16; k++ {
		if _, _, ok := cli.Get(k, 64); ok {
			t.Fatalf("get(%d) hit after NIC delete", k)
		}
	}
	// The chain installs tombstone words directly in bucket memory (the
	// host-side Len/Tombstones counters only see CPU-path mutations):
	// every deleted key's bucket must now hold the tombstone.
	ht := table.Table()
	tombs := 0
	for k := uint64(1); k <= 16; k++ {
		for fn := 0; fn < 2; fn++ {
			if ht.TombstoneAt(ht.Hash(k, fn)) {
				tombs++
				break
			}
		}
	}
	if tombs != 16 {
		t.Fatalf("%d tombstoned buckets after 16 NIC deletes", tombs)
	}
	// Every deleted value extent came back to the arena.
	if st := cli.Stats(); st.GCFreed != 16 || st.GCStale != 0 {
		t.Fatalf("gc freed=%d stale=%d, want 16/0", st.GCFreed, st.GCStale)
	}
	if live := srv.valueArena().LiveBytes(); live >= liveBefore {
		t.Fatalf("arena live bytes %d did not drop from %d after deletes", live, liveBefore)
	}
}

// Deleting an absent (or already-deleted) key refuses the claim before
// any chain runs; a forged claim against a live bucket of a DIFFERENT
// key is refused BY the chain — executed, resident intact.
func TestClientDeleteRefused(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1024)
	cli := tb.NewPipelinedClient(srv, LookupSeq, 4)
	cli.Bind(table)

	// Absent key: fails with a zero-cost hop, no chain armed.
	if _, ok := cli.Delete(404); ok {
		t.Fatal("delete of an absent key acknowledged")
	}

	const key = 5
	if _, ok := cli.Set(key, Value(key, 64)); !ok {
		t.Fatal("setup set failed")
	}
	ht := table.Table()
	var bucket uint64
	for fn := 0; fn < 2; fn++ {
		if k, _, _, ok := ht.EntryAt(ht.Hash(key, fn)); ok && k == key {
			bucket = ht.BucketAddr(ht.Hash(key, fn))
		}
	}
	if bucket == 0 {
		t.Fatal("key not at a candidate bucket")
	}
	// A delete claim for key 777 against key 5's bucket: the claim CAS
	// expects NOOP|777 and must fail against NOOP|5.
	var executed, acked bool
	var refusedLat Duration
	done := false
	cli.deleteAsyncClaim(777, bucket, 1,
		func(lat Duration, ok bool) {
			acked, executed, done, refusedLat = ok, cli.lastExecuted(pipeDelete), true, lat
		})
	cli.Flush()
	tb.Run()
	if !done {
		t.Fatal("forged delete never completed")
	}
	if acked {
		t.Fatal("forged delete was acknowledged")
	}
	if !executed {
		t.Fatal("refused delete reported as never-executed (would trip the crash detector)")
	}
	if refusedLat <= 0 || refusedLat >= 20*sim.Microsecond {
		t.Fatalf("refusal took %v, want one fabric round trip", refusedLat)
	}
	// The resident survived, bit-exact, and a double delete of the now
	// genuinely-deleted key is refused by the tombstone.
	if val, _, ok := cli.Get(key, 64); !ok || !bytes.Equal(val, Value(key, 64)) {
		t.Fatal("resident corrupted by a refused delete claim")
	}
	if _, ok := cli.Delete(key); !ok {
		t.Fatal("genuine delete failed")
	}
	if _, ok := cli.Delete(key); ok {
		t.Fatal("second delete of the same key acknowledged")
	}
}

// Pipelined deletes overlap on the fabric like sets and gets.
func TestClientDeletePipelineOverlaps(t *testing.T) {
	elapsed := func(depth int) Duration {
		tb := NewTestbed()
		srv := tb.NewServer()
		table := srv.NewHashTable(4096)
		cli := tb.NewPipelinedClient(srv, LookupSeq, depth)
		cli.Bind(table)
		for k := uint64(1); k <= 32; k++ {
			if _, ok := cli.Set(k, Value(k, 64)); !ok {
				t.Fatalf("set(%d) failed", k)
			}
		}
		start := tb.Now()
		done := 0
		var lastDone Duration
		for k := uint64(1); k <= 32; k++ {
			key := k
			cli.DeleteAsync(key, func(_ Duration, ok bool) {
				if !ok {
					t.Errorf("delete(%d) failed", key)
				}
				done++
				lastDone = tb.Now()
			})
		}
		cli.Flush()
		tb.Run()
		if done != 32 {
			t.Fatalf("completed %d of 32 deletes", done)
		}
		if depth > 1 && cli.del.maxInFlight < depth {
			t.Fatalf("delete pipeline never filled: high-water %d of %d", cli.del.maxInFlight, depth)
		}
		return lastDone - start
	}
	blocking := elapsed(1)
	piped := elapsed(8)
	if piped*3 > blocking {
		t.Fatalf("8-deep deletes took %v vs blocking %v — no overlap", piped, blocking)
	}
}

// A refused set claim hands its staging extent straight back to the
// arena; churning refusals must not grow the arena. Nor do they shrink
// an adaptive window: a refusal is an answer that says nothing about
// load, and counts toward additive increase like an ack.
func TestClientRefusedSetReleasesStaging(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1024)
	cli := tb.NewPipelinedClient(srv, LookupSeq, 4)
	cli.Bind(table)
	cli.configureWindow(windowConfig{Adaptive: true, Start: 2, EcnBacklog: -1})

	const key = 5
	if _, ok := cli.Set(key, Value(key, 64)); !ok {
		t.Fatal("setup set failed")
	}
	ht := table.Table()
	var bucket uint64
	for fn := 0; fn < 2; fn++ {
		if k, _, _, ok := ht.EntryAt(ht.Hash(key, fn)); ok && k == key {
			bucket = ht.BucketAddr(ht.Hash(key, fn))
		}
	}
	live := srv.valueArena().LiveBytes()
	for i := 0; i < 20; i++ {
		done := false
		cli.setAsyncClaim(777, Value(777, 64), coreSetClaim(bucket, 0, 777), 1,
			func(_ Duration, ok bool) {
				if ok {
					t.Error("stale claim acknowledged")
				}
				done = true
			})
		cli.Flush()
		tb.Run()
		if !done {
			t.Fatal("refused set never completed")
		}
	}
	if got := srv.valueArena().LiveBytes(); got != live {
		t.Fatalf("arena grew %d -> %d live bytes across 20 refused claims", live, got)
	}
	if cuts, w := cli.Stats().WindowCuts, cli.pipelineStats(pipeSet).Window; cuts != 0 || w != 4 {
		t.Fatalf("%d window cuts, window %d after 20 refusals from start 2; want 0 cuts and the full depth 4", cuts, w)
	}
}

// Silence still means a dead NIC: a frozen server drops the trigger, no
// ack ever comes, and a set or delete fails at exactly the miss
// deadline with its chain unexecuted and its slot quarantined.
func TestClientWritesTimeOutOnFrozenServer(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1024)
	cli := tb.NewPipelinedClient(srv, LookupSeq, 2)
	cli.Bind(table)
	cli.MissTimeout = 50 * sim.Microsecond
	const key = 5
	if _, ok := cli.Set(key, Value(key, 64)); !ok {
		t.Fatal("setup set failed")
	}
	srv.node.Dev.Freeze()
	check := func(op pipeOp) func(Duration, bool) {
		return func(lat Duration, ok bool) {
			if ok || lat != cli.MissTimeout || cli.lastExecuted(op) {
				t.Errorf("op %d on a frozen NIC: ok=%v lat=%v executed=%v, want a %v timeout of an unexecuted chain",
					op, ok, lat, cli.lastExecuted(op), cli.MissTimeout)
			}
		}
	}
	cli.SetAsync(key, Value(key+1, 64), check(pipeSet))
	cli.DeleteAsync(key, check(pipeDelete))
	cli.Flush()
	tb.Run()
	if st := cli.Stats(); st.SetFails != 1 || st.DelFails != 1 || st.SetsWedged != 1 || st.DelsWedged != 1 {
		t.Fatalf("fails %d/%d wedged %d/%d (set/del), want 1/1 and 1/1", st.SetFails, st.DelFails, st.SetsWedged, st.DelsWedged)
	}
}

// An ack completes the request it answers and no other. A set whose
// deadline ran first still executes; its late ack reclaims the slot but
// completes nothing. An ack stamped with another key — whatever it left
// in the slot's ack buffer — is dropped, and the request in flight reads
// its own verdict: acks on one QP land in order, so its own word has
// replaced the straggler's by the time its completion is delivered.
func TestClientStragglerAckCompletesNothing(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1024)
	cli := tb.NewPipelinedClient(srv, LookupSeq, 1)
	cli.Bind(table)

	// A deadline shorter than the chain: the set times out unexecuted.
	cli.MissTimeout = 3 * sim.Microsecond
	results := make(map[uint64]int)
	cli.SetAsync(1, Value(1, 64), func(lat Duration, ok bool) {
		results[1]++
		if ok || lat != 3*sim.Microsecond || cli.lastExecuted(pipeSet) {
			t.Errorf("short-deadline set: ok=%v lat=%v executed=%v", ok, lat, cli.lastExecuted(pipeSet))
		}
	})
	cli.Flush()
	tb.RunFor(4 * sim.Microsecond)
	if results[1] != 1 || cli.Stats().SetsWedged != 1 {
		t.Fatalf("short-deadline set: %d callbacks, %d wedged slots; want 1 and 1", results[1], cli.Stats().SetsWedged)
	}
	// The straggler's ack lands: nothing completes, the slot is back in
	// service with the straggler's verdict still in its ack buffer, and
	// the next request on it gets its own answer.
	cli.MissTimeout = DefaultMissTimeout
	tb.RunFor(20 * sim.Microsecond)
	if w, _ := cli.node.Mem.U64(cli.set.resp[0]); w != wqe.MakeCtrl(wqe.OpWrite, 1) || cli.Stats().SetsWedged != 0 {
		t.Fatalf("after the straggler: ack buffer %#x, %d wedged slots; want WRITE|1 and 0", w, cli.Stats().SetsWedged)
	}
	cli.SetAsync(2, Value(2, 64), func(_ Duration, ok bool) {
		results[2]++
		if !ok {
			t.Error("set behind a straggler failed")
		}
	})
	cli.Flush()
	tb.Run()
	if results[1] != 1 || results[2] != 1 {
		t.Fatalf("callbacks per key %v, want one each", results)
	}
	if st := cli.Stats(); st.SetAcks != 1 || st.SetFails != 1 || st.SetsWedged != 0 {
		t.Fatalf("acks %d fails %d wedged %d, want 1/1/0", st.SetAcks, st.SetFails, st.SetsWedged)
	}
	// The straggler ran to the end: both keys are installed.
	for _, k := range []uint64{1, 2} {
		if v, _, ok := cli.Get(k, 64); !ok || !bytes.Equal(v, Value(k, 64)) {
			t.Fatalf("key %d not installed", k)
		}
	}

	// A foreign ack arriving while a request is in flight: an "applied"
	// word for key 9 in the slot's buffer, completion stamped key 9.
	done, acked := false, false
	cli.SetAsync(3, Value(3, 64), func(_ Duration, ok bool) { done, acked = true, ok })
	cli.Flush()
	cli.node.Mem.PutU64(cli.set.resp[0], wqe.MakeCtrl(wqe.OpWrite, 9))
	cli.set.onAck(0, 9, tb.Now(), 0)
	if done || cli.pipelineStats(pipeSet).InFlight != 1 {
		t.Fatal("an ack for another key completed the request in flight")
	}
	tb.Run()
	if !done || !acked {
		t.Fatalf("request in flight after a foreign ack: done=%v ok=%v, want its own applied verdict", done, acked)
	}
}

// The probe path end to end: fabric sets publish monotonically
// increasing versions into their buckets, probeAsync reads them back
// through the NIC chain in one round trip, and a probe of an absent key
// times out with its chain executed (a genuine conditional miss, not a
// dead connection).
func TestClientProbeRoundTrip(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1 << 10)
	cli := tb.NewPipelinedClient(srv, LookupSeq, 4)
	cli.Bind(table)

	const key = 42
	if _, ok := cli.Set(key, Value(key, 64)); !ok {
		t.Fatal("set failed")
	}
	ver, lat, ok := cli.probe(key)
	if !ok {
		t.Fatal("probe of a resident key missed")
	}
	if ver != 1 {
		t.Fatalf("probe returned version %d after the first set, want 1", ver)
	}
	if lat <= 0 || lat >= cli.MissTimeout {
		t.Fatalf("probe latency %v not fabric-real", lat)
	}
	// The version word advances with every overwrite — written by the
	// set chain's repoint WRITE, read back by the probe chain.
	if _, ok := cli.Set(key, Value(key+1, 64)); !ok {
		t.Fatal("overwrite failed")
	}
	if ver, _, ok = cli.probe(key); !ok || ver != 2 {
		t.Fatalf("probe after overwrite = %d,%v want 2,true", ver, ok)
	}
	// Ground truth: the bucket's version word matches what probes see.
	if v, resident := table.Table().VersionOf(key); !resident || v != 2 {
		t.Fatalf("bucket version word = %d,%v want 2,true", v, resident)
	}

	// An absent key: the probe target cannot even be computed — the
	// client fails it after a zero-cost hop.
	if _, _, ok := cli.probe(9999); ok {
		t.Fatal("probe of an absent key answered")
	}

	// A stale target (key deleted between computing the target and the
	// chain running): conditional miss on a live NIC.
	target, okT := cli.residentBucket(key)
	if !okT {
		t.Fatal("no probe target for a resident key")
	}
	if _, delOK := cli.Delete(key); !delOK {
		t.Fatal("delete failed")
	}
	var executed, answered bool
	done := false
	cli.probeAsyncTarget(key, target, func(_ uint64, _ Duration, ok bool) {
		answered, executed, done = ok, cli.lastExecuted(pipeProbe), true
	})
	cli.Flush()
	tb.Run()
	if !done {
		t.Fatal("stale probe never completed")
	}
	if answered {
		t.Fatal("probe of a tombstoned bucket was answered")
	}
	if !executed {
		t.Fatal("conditional miss reported as never-executed (would trip the crash detector)")
	}
}

// The delete chain stamps the tombstone's version word: after a
// fabric delete, the bucket carries the delete's sequence — the
// ordering evidence the repair subsystem reads.
func TestClientDeleteStampsTombstoneVersion(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1 << 10)
	cli := tb.NewPipelinedClient(srv, LookupSeq, 4)
	cli.Bind(table)

	const key = 7
	if _, ok := cli.Set(key, Value(key, 64)); !ok {
		t.Fatal("set failed")
	}
	ht := table.Table()
	var bucket uint64
	found := false
	for fn := 0; fn < 2; fn++ {
		if k, _, _, ok := ht.EntryAt(ht.Hash(key, fn)); ok && k == key {
			bucket, found = ht.Hash(key, fn), true
		}
	}
	if !found {
		t.Fatal("key not at a candidate bucket")
	}
	if _, ok := cli.Delete(key); !ok {
		t.Fatal("delete failed")
	}
	if !ht.TombstoneAt(bucket) {
		t.Fatal("no tombstone after fabric delete")
	}
	// Set was seq 1, delete seq 2 on the client's per-key counter.
	if v := ht.VersionAt(bucket); v != 2 {
		t.Fatalf("tombstone version = %d, want 2", v)
	}
}
