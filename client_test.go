package redn

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/failure"
	"repro/internal/hopscotch"
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

// A fabric get lends its callback the bytes in its slot's own piece of
// the client's value buffer: K gets in flight on K slots each see their
// own key, and since no slot is reissued, each piece still holds its key
// after the last callback. The blocking Gets, whose answers outlive any
// callback, hand back copies that later gets on the same slots leave
// alone.
func TestGetValueIsBorrowedGetIsOwned(t *testing.T) {
	const k, valLen = 8, 64
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(4096)
	for key := uint64(1); key <= 64; key++ {
		if err := table.Set(key, Value(key, valLen)); err != nil {
			t.Fatal(err)
		}
	}
	cli := tb.NewPipelinedClient(srv, LookupSingle, k)
	cli.Bind(table)
	lent := make([][]byte, k+1)
	for key := uint64(1); key <= k; key++ {
		cli.GetAsync(key, valLen, func(val []byte, _ Duration, ok bool) {
			if !ok || !bytes.Equal(val, Value(key, valLen)) {
				t.Errorf("get(%d) delivered %x", key, val)
			}
			lent[key] = val
		})
	}
	cli.Flush()
	tb.Run()
	if cli.get.maxInFlight != k {
		t.Fatalf("%d gets in flight at once, want %d on distinct slots", cli.get.maxInFlight, k)
	}
	for key := uint64(1); key <= k; key++ {
		if !bytes.Equal(lent[key], Value(key, valLen)) {
			t.Errorf("slot piece of get(%d) now holds %x: slots share a buffer", key, lent[key])
		}
	}

	owned, _, ok := cli.Get(1, valLen)
	s := NewServiceWith(ServiceConfig{Shards: 1, ClientsPerShard: 1, Pipeline: 2,
		Buckets: 1 << 10, MaxValLen: valLen})
	for key := uint64(1); key <= 33; key++ {
		if err := s.Set(key, Value(key, valLen)); err != nil {
			t.Fatal(err)
		}
	}
	svcOwned, _, svcOK := s.Get(1, valLen)
	if !ok || !svcOK {
		t.Fatal("blocking get of a present key missed")
	}
	for key := uint64(2); key <= 33; key++ {
		cli.GetAsync(key, valLen, func([]byte, Duration, bool) {})
		s.GetAsync(key, valLen, func([]byte, Duration, bool) {})
	}
	cli.Flush()
	s.Flush()
	tb.Run()
	s.Run()
	if !bytes.Equal(owned, Value(1, valLen)) {
		t.Errorf("Client.Get's value changed to %x under later gets", owned)
	}
	if !bytes.Equal(svcOwned, Value(1, valLen)) {
		t.Errorf("Service.Get's value changed to %x under later gets", svcOwned)
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

	cli.missTimeout = 50 * sim.Microsecond
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
	cli.missTimeout = 30 * sim.Microsecond

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
	cli.missTimeout = 50 * sim.Microsecond

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
			if lat != cli.missTimeout {
				t.Errorf("miss latency %v, want the %v timeout", lat, cli.missTimeout)
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
	cli.missTimeout = 50 * sim.Microsecond

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
		coreSetClaim(bucket, 0, 777), 1, 0,
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
	if st := cli.pipelineStats(pipeSet); st.Fails != 1 || st.Wedged != 0 {
		t.Fatalf("refusal counted as %d fails, %d wedged slots; want 1, 0", st.Fails, st.Wedged)
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

// deleteAt issues a delete of key's extent ext at bucket through the set
// pipeline: the pointer CAS swapping ext for the key's freed pointer, as
// the Service's router issues it.
func deleteAt(cli *Client, key, bucket, ext uint64, cb func(lat Duration, ok bool)) {
	claim := core.SetClaim{BucketAddr: bucket, Extent: ext, New: hopscotch.FreedPtr(key)}
	cli.setAsyncClaim(key, nil, claim, 0, 0, cb)
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

// claimResident issues a delete (probe false) or a version probe of key
// through the claim entry points the Service drives, at the bucket its
// router would find: residentBucket over the bound table. A key with no
// NIC-reachable bucket fails after a zero-cost hop with no chain armed.
func claimResident(cli *Client, key uint64, probe bool, cb func(ver uint64, lat Duration, ok bool)) {
	bucket, ext, ok := residentBucket(cli.table.Table(), cli.mode, key)
	switch {
	case !ok:
		cli.tb.clu.Eng.After(0, func() { cb(0, 0, false) })
	case probe:
		cli.probeAsyncTarget(key, bucket, ext, 0, cb)
	default:
		deleteAt(cli, key, bucket, ext, func(lat Duration, ok bool) { cb(0, lat, ok) })
	}
}

// awaitResident is claimResident run to completion.
func awaitResident(cli *Client, key uint64, probe bool) (ver uint64, lat Duration, ok bool) {
	done := false
	claimResident(cli, key, probe, func(v uint64, l Duration, answered bool) { ver, lat, ok, done = v, l, answered, true })
	cli.Flush()
	cli.tb.stepUntil(&done)
	return ver, lat, ok
}

// A NIC-claimed delete round-trips: the pointer CAS frees the bucket,
// the key is no longer resident, the delete's release retires exactly
// the extent the key's last set installed (its prevVal entry) back to
// the server arena, and the delete's latency is a real fabric round
// trip — never zero.
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
	before := srv.valueArena().Stats()
	for k := uint64(1); k <= 16; k++ {
		_, lat, ok := awaitResident(cli, k, false)
		if !ok {
			t.Fatalf("delete(%d) not acknowledged", k)
		}
		if lat <= 0 {
			t.Fatalf("delete(%d) completed in zero virtual time — not a fabric delete", k)
		}
	}
	// A two-probe get never meets a fabric-deleted key outside a test:
	// the service posts none, and the standalone client has no delete.
	// Its claim would gather from the freed pointer, so the host's view
	// checks the miss: no key is resident beside a freed pointer.
	ht := table.Table()
	for k := uint64(1); k <= 16; k++ {
		if _, _, ok := ht.Lookup(k); ok {
			t.Fatalf("key %d resident after NIC delete", k)
		}
	}
	// The chain frees the pointer directly in bucket memory (the
	// host-side Len counter only sees CPU-path mutations): every deleted
	// key's bucket must now hold the key's word beside its freed pointer.
	freed := 0
	for k := uint64(1); k <= 16; k++ {
		for fn := 0; fn < 2; fn++ {
			if kk, va, _, _ := ht.EntryAt(ht.Hash(k, fn)); kk == k && va == hopscotch.FreedPtr(k) {
				freed++
				break
			}
		}
	}
	if freed != 16 {
		t.Fatalf("%d freed buckets after 16 NIC deletes", freed)
	}
	// Every deleted value extent came back to the arena, exactly once.
	after := srv.valueArena().Stats()
	if before.LiveExtents-after.LiveExtents != 16 || len(cli.prevVal) != 0 {
		t.Fatalf("live extents %d -> %d, %d keys still tracked; want 16 fewer and none",
			before.LiveExtents, after.LiveExtents, len(cli.prevVal))
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
	if _, _, ok := awaitResident(cli, 404, false); ok {
		t.Fatal("delete of an absent key acknowledged")
	}

	const key = 5
	if _, ok := cli.Set(key, Value(key, 64)); !ok {
		t.Fatal("setup set failed")
	}
	ht := table.Table()
	bucket, _, ok := residentBucket(ht, LookupSeq, key)
	if !ok {
		t.Fatal("key not at a candidate bucket")
	}
	// A delete claim for key 777 against key 5's bucket: the pointer CAS
	// expects an extent the bucket does not name and must fail.
	var executed, acked bool
	var refusedLat Duration
	done := false
	deleteAt(cli, 777, bucket, 0x777000,
		func(lat Duration, ok bool) {
			acked, executed, done, refusedLat = ok, cli.lastExecuted(pipeSet), true, lat
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
	// genuinely-deleted key is refused: nothing is resident to delete.
	if val, _, ok := cli.Get(key, 64); !ok || !bytes.Equal(val, Value(key, 64)) {
		t.Fatal("resident corrupted by a refused delete claim")
	}
	if _, _, ok := awaitResident(cli, key, false); !ok {
		t.Fatal("genuine delete failed")
	}
	if _, _, ok := awaitResident(cli, key, false); ok {
		t.Fatal("second delete of the same key acknowledged")
	}
}

// A delete on the set pipeline stages nothing, so the slot it runs on
// forgets the extent the slot's last set staged: that extent is
// decided (here it is the key's value, which the delete unlinks and
// retires), and neither a connection reset that finds the slot's next
// delete unexecuted nor a refused delete on the slot may free it again.
// Each round a second client on the same server takes the freed extent
// for another key's value, so a second free would take that key's live
// value: the arena would hold less than the table names.
func TestClientDeleteDropsTheSlotsStaging(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1024)
	cli := tb.NewPipelinedClient(srv, LookupSeq, 1) // one slot
	other := tb.NewPipelinedClient(srv, LookupSeq, 1)
	cli.Bind(table)
	other.Bind(table)
	arena, ht := srv.valueArena(), table.Table()

	// round runs an applied set of key on cli's slot, an applied delete
	// of it, and other's set of reuser into the extent the delete freed;
	// it returns key's bucket and that extent.
	round := func(key, reuser uint64) (bucket, ext uint64) {
		t.Helper()
		if _, ok := cli.Set(key, Value(key, 64)); !ok {
			t.Fatalf("set(%d) failed", key)
		}
		bucket, ext, _ = residentBucket(ht, LookupSeq, key)
		if _, _, ok := awaitResident(cli, key, false); !ok {
			t.Fatalf("delete(%d) not acknowledged", key)
		}
		if _, live := arena.Size(ext); live {
			t.Fatalf("delete(%d) left its extent %#x live", key, ext)
		}
		if _, ok := other.Set(reuser, Value(reuser, 64)); !ok || other.staged != ext {
			t.Fatalf("set(%d) staged %#x, want the freed %#x", reuser, other.staged, ext)
		}
		return bucket, ext
	}
	deleted := func(what string, executed bool) func(Duration, bool) {
		return func(_ Duration, ok bool) {
			if ok || cli.lastExecuted(pipeSet) != executed {
				t.Errorf("%s: ok=%v executed=%v, want a failure with executed=%v", what, ok, cli.lastExecuted(pipeSet), executed)
			}
		}
	}

	// A process crash freezes the NIC; a delete issued meanwhile never
	// runs, and the reconnect finds it armed on the slot.
	bucket, ext := round(1, 2)
	failure.NodeCrash{Node: srv.node, Kind: failure.ProcessCrash,
		OnUp: func() { cli.reset(); other.reset() }}.InjectAt(tb.clu.Eng, tb.Now())
	tb.RunFor(sim.Microsecond)
	deleteAt(cli, 1, bucket, ext, deleted("delete on a frozen NIC", false))
	cli.Flush()
	tb.Run()
	checkArenaNamesTable(t, srv, table, "a reset", ext)

	// A second delete of a deleted key: the chain runs and refuses.
	bucket, ext = round(3, 4)
	deleteAt(cli, 3, bucket, ext, deleted("second delete", true))
	cli.Flush()
	tb.Run()
	checkArenaNamesTable(t, srv, table, "a refused delete", ext)
}

// checkArenaNamesTable checks that the extent ext is live and that the
// server's arena holds exactly the live bytes the table names.
func checkArenaNamesTable(t *testing.T, srv *Server, table *HashTable, after string, ext uint64) {
	t.Helper()
	arena, ht := srv.valueArena(), table.Table()
	var named uint64
	for i := uint64(0); i < ht.NumBuckets(); i++ {
		if _, va, _, ok := ht.EntryAt(i); ok {
			size, _ := arena.Size(va)
			named += extent.HeadBytes + size
		}
	}
	if _, live := arena.Size(ext); !live || arena.Stats().LiveBytes != named {
		t.Fatalf("after %s: extent %#x live=%v, arena holds %d live bytes, the table names %d",
			after, ext, live, arena.Stats().LiveBytes, named)
	}
}

// A version probe on the set pipeline stages nothing either, so the
// slot it runs on forgets the extent the slot's last set staged, as a
// delete does. Each round one slot runs an applied set of key, a second
// client overwrites key — retiring that extent — and takes the freed
// extent for another key's value; then the slot's probe of key is
// reset unexecuted by a reconnect, or runs and misses at the retired
// extent. Neither may free the extent again: the arena would hold less
// than the table names.
func TestClientProbeDropsTheSlotsStaging(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1024)
	cli := tb.NewPipelinedClient(srv, LookupSeq, 1) // one slot
	other := tb.NewPipelinedClient(srv, LookupSeq, 1)
	cli.Bind(table)
	other.Bind(table)
	ht := table.Table()

	// round runs the applied set of key on cli's slot, a probe that hits
	// it, and other's overwrite of key and set of reuser into the extent
	// the overwrite retired; it returns key's bucket and that extent.
	round := func(key, reuser uint64) (bucket, ext uint64) {
		t.Helper()
		if _, ok := cli.Set(key, Value(key, 64)); !ok {
			t.Fatalf("set(%d) failed", key)
		}
		bucket, ext, _ = residentBucket(ht, LookupSeq, key)
		if ver, _, ok := awaitResident(cli, key, true); !ok || ver != 1 {
			t.Fatalf("probe(%d) = %d,%v, want 1,true", key, ver, ok)
		}
		if _, ok := other.Set(key, Value(key+1, 64)); !ok {
			t.Fatalf("overwrite(%d) failed", key)
		}
		if _, ok := other.Set(reuser, Value(reuser, 64)); !ok || other.staged != ext {
			t.Fatalf("set(%d) staged %#x, want the retired %#x", reuser, other.staged, ext)
		}
		return bucket, ext
	}
	probed := func(what string, executed bool) func(uint64, Duration, bool) {
		return func(_ uint64, _ Duration, ok bool) {
			if ok || cli.lastExecuted(pipeSet) != executed {
				t.Errorf("%s: ok=%v executed=%v, want a failure with executed=%v", what, ok, cli.lastExecuted(pipeSet), executed)
			}
		}
	}

	// A process crash freezes the NIC; a probe issued meanwhile never
	// runs, and the reconnect finds it armed on the slot.
	_, ext := round(1, 2)
	failure.NodeCrash{Node: srv.node, Kind: failure.ProcessCrash,
		OnUp: func() { cli.reset(); other.reset() }}.InjectAt(tb.clu.Eng, tb.Now())
	tb.RunFor(sim.Microsecond)
	claimResident(cli, 1, true, probed("probe on a frozen NIC", false))
	cli.Flush()
	tb.Run()
	checkArenaNamesTable(t, srv, table, "a reset", ext)

	// A probe at the extent the overwrite retired: the chain runs and
	// misses.
	bucket, ext := round(3, 4)
	cli.probeAsyncTarget(3, bucket, ext, 0, probed("stale probe", true))
	cli.Flush()
	tb.Run()
	checkArenaNamesTable(t, srv, table, "a missed probe", ext)
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
			claimResident(cli, key, false, func(_ uint64, _ Duration, ok bool) {
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
		if depth > 1 && cli.set.maxInFlight < depth {
			t.Fatalf("set pipeline never filled with deletes: high-water %d of %d", cli.set.maxInFlight, depth)
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
// the window: a refusal is an answer that says nothing about
// load, and counts toward additive increase like an ack.
func TestClientRefusedSetReleasesStaging(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1024)
	cli := tb.NewPipelinedClient(srv, LookupSeq, 4)
	cli.Bind(table)
	openWindow(cli, 2, -1)

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
	live := srv.valueArena().Stats().LiveBytes
	for i := 0; i < 20; i++ {
		done := false
		cli.setAsyncClaim(777, Value(777, 64), coreSetClaim(bucket, 0, 777), 1, 0,
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
	if got := srv.valueArena().Stats().LiveBytes; got != live {
		t.Fatalf("arena grew %d -> %d live bytes across 20 refused claims", live, got)
	}
	cuts, _, _ := cli.cuts()
	if w := cli.pipelineStats(pipeSet).Window; cuts != 0 || w != 4 {
		t.Fatalf("%d window cuts, window %d after 20 refusals from start 2; want 0 cuts and the full depth 4", cuts, w)
	}
}

// Silence still means a dead NIC: a frozen server drops the trigger, no
// ack ever comes, and a set or delete fails at exactly the miss
// deadline with its chain unexecuted and its slot quarantined — both
// slots of the set pipeline the two share.
func TestClientWritesTimeOutOnFrozenServer(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1024)
	cli := tb.NewPipelinedClient(srv, LookupSeq, 2)
	cli.Bind(table)
	cli.missTimeout = 50 * sim.Microsecond
	const key = 5
	if _, ok := cli.Set(key, Value(key, 64)); !ok {
		t.Fatal("setup set failed")
	}
	srv.node.Dev.Freeze()
	check := func(what string) func(Duration, bool) {
		return func(lat Duration, ok bool) {
			if ok || lat != cli.missTimeout || cli.lastExecuted(pipeSet) {
				t.Errorf("%s on a frozen NIC: ok=%v lat=%v executed=%v, want a %v timeout of an unexecuted chain",
					what, ok, lat, cli.lastExecuted(pipeSet), cli.missTimeout)
			}
		}
	}
	cli.SetAsync(key, Value(key+1, 64), check("set"))
	claimResident(cli, key, false, func(_ uint64, lat Duration, ok bool) { check("delete")(lat, ok) })
	cli.Flush()
	tb.Run()
	if set := cli.pipelineStats(pipeSet); set.Fails != 2 || set.Wedged != 2 {
		t.Fatalf("set pipeline: %d fails, %d wedged; want 2 and 2", set.Fails, set.Wedged)
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
	cli.missTimeout = 3 * sim.Microsecond
	results := make(map[uint64]int)
	cli.SetAsync(1, Value(1, 64), func(lat Duration, ok bool) {
		results[1]++
		if ok || lat != 3*sim.Microsecond || cli.lastExecuted(pipeSet) {
			t.Errorf("short-deadline set: ok=%v lat=%v executed=%v", ok, lat, cli.lastExecuted(pipeSet))
		}
	})
	cli.Flush()
	tb.RunFor(4 * sim.Microsecond)
	if w := cli.pipelineStats(pipeSet).Wedged; results[1] != 1 || w != 1 {
		t.Fatalf("short-deadline set: %d callbacks, %d wedged slots; want 1 and 1", results[1], w)
	}
	// The straggler's ack lands: nothing completes, the slot is back in
	// service with the straggler's verdict still in its ack buffer, and
	// the next request on it gets its own answer. The deadline changes
	// only with every deadline queue empty: a queue relies on its
	// deadlines falling due in issue order.
	for _, p := range cli.pipes {
		if p.deadlines.Len() != 0 || p.armed {
			t.Fatalf("%s pipeline: %d deadlines queued (event armed: %v) where the deadline changes",
				p.name, p.deadlines.Len(), p.armed)
		}
	}
	cli.missTimeout = DefaultMissTimeout
	tb.RunFor(20 * sim.Microsecond)
	// A fresh claim's applied verdict is the free pointer its pointer CAS
	// found, in the bucket where the key now is.
	_, _, landed := table.Table().Lookup(1)
	if w, _ := cli.node.Mem.U64(cli.set.resp[0]); w != hopscotch.FreePtr || !landed || cli.set.nWedged != 0 {
		t.Fatalf("after the straggler: ack buffer %#x, key landed %v, %d wedged slots; want the free pointer, true and 0",
			w, landed, cli.set.nWedged)
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
	if st := cli.pipelineStats(pipeSet); st.Acks != 1 || st.Fails != 1 || st.Wedged != 0 {
		t.Fatalf("acks %d fails %d wedged %d, want 1/1/0", st.Acks, st.Fails, st.Wedged)
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
// increasing versions in their values' headers, a probe reads them back
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
	ver, lat, ok := awaitResident(cli, key, true)
	if !ok {
		t.Fatal("probe of a resident key missed")
	}
	if ver != 1 {
		t.Fatalf("probe returned version %d after the first set, want 1", ver)
	}
	if lat <= 0 || lat >= cli.missTimeout {
		t.Fatalf("probe latency %v not fabric-real", lat)
	}
	// The version advances with every overwrite — staged in the value's
	// header by the set's WRITE, read back by the probe chain.
	if _, ok := cli.Set(key, Value(key+1, 64)); !ok {
		t.Fatal("overwrite failed")
	}
	if ver, _, ok = awaitResident(cli, key, true); !ok || ver != 2 {
		t.Fatalf("probe after overwrite = %d,%v want 2,true", ver, ok)
	}
	// Ground truth: the header of the value the bucket names matches
	// what probes see.
	va, _, resident := table.Table().Lookup(key)
	if v, _ := extent.Head(srv.node.Mem, va); !resident || v != 2 {
		t.Fatalf("value header version = %d,%v want 2,true", v, resident)
	}

	// An absent key: the probe target cannot even be computed — the
	// client fails it after a zero-cost hop.
	if _, _, ok := awaitResident(cli, 9999, true); ok {
		t.Fatal("probe of an absent key answered")
	}

	// A stale target (key deleted between computing the target and the
	// chain running): conditional miss on a live NIC.
	target, ext, okT := residentBucket(table.Table(), cli.mode, key)
	if !okT {
		t.Fatal("no probe target for a resident key")
	}
	if _, _, delOK := awaitResident(cli, key, false); !delOK {
		t.Fatal("delete failed")
	}
	var executed, answered bool
	done := false
	cli.probeAsyncTarget(key, target, ext, 0, func(_ uint64, _ Duration, ok bool) {
		answered, executed, done = ok, cli.lastExecuted(pipeSet), true
	})
	cli.Flush()
	tb.Run()
	if !done {
		t.Fatal("stale probe never completed")
	}
	if answered {
		t.Fatal("probe of a deleted bucket was answered")
	}
	if !executed {
		t.Fatal("conditional miss reported as never-executed (would trip the crash detector)")
	}
}

// A version probe runs no program: the server's NIC posts nothing and
// fetches no managed WQE for it, and the client posts its two READs —
// bucket, then header — on its set slot's response connection, the
// signaled second one stamped with the key. This is the probe's row of
// the offload shape tables (core's TestProgramShapes), 0 + 0 WRs and 0
// managed fetches on the server.
func TestProbeWRBudget(t *testing.T) {
	t.Run("probe", func(t *testing.T) {
		tb := NewTestbed()
		srv := tb.NewServer()
		table := srv.NewHashTable(1 << 10)
		cli := tb.NewPipelinedClient(srv, LookupSeq, 1)
		cli.Bind(table)
		const key = 42
		if _, ok := cli.Set(key, Value(key, 64)); !ok {
			t.Fatal("set failed")
		}
		tb.Run()
		dev := srv.node.Dev
		var posted []uint64
		for n := uint32(0); dev.QPByNum(n) != nil; n++ {
			posted = append(posted, dev.QPByNum(n).SQ().Producer())
		}
		var fetches uint64
		for _, p := range dev.Ports() {
			fetches += p.FetchUnit().Grants()
		}
		bucket, ext, _ := residentBucket(table.Table(), cli.mode, key)
		reads := cli.set.reads[0].SQ().Producer()
		if ver, _, ok := awaitResident(cli, key, true); !ok || ver != 1 {
			t.Fatalf("probe = %d,%v, want 1,true", ver, ok)
		}
		for n, before := range posted {
			if q := dev.QPByNum(uint32(n)); q.SQ().Producer() != before {
				t.Errorf("the probe posted %d WRs on server QP %d", q.SQ().Producer()-before, n)
			}
		}
		for _, p := range dev.Ports() {
			fetches -= p.FetchUnit().Grants()
		}
		if fetches != 0 {
			t.Errorf("the probe took %d managed fetches on the server", -fetches)
		}
		q := cli.set.reads[0]
		if got := q.SQ().Producer() - reads; got != 2 {
			t.Fatalf("the probe posted %d WRs on its READ queue, want 2", got)
		}
		for i, want := range []struct {
			src     uint64
			id      uint64
			signals bool
		}{{bucket, 0, false}, {ext - extent.HeadBytes, key, true}} {
			var w wqe.WQE
			buf, _ := cli.node.Mem.Read(q.SQSlotAddr(reads+uint64(i)), wqe.Size)
			w.Decode(buf)
			if w.Op != wqe.OpRead || w.Src != want.src || w.Len != 16 || w.ID != want.id || w.Signaled() != want.signals {
				t.Errorf("READ %d: %v of %d B at %#x, id %d, signaled %v; want 16 B at %#x, id %d, signaled %v",
					i, w.Op, w.Len, w.Src, w.ID, w.Signaled(), want.src, want.id, want.signals)
			}
		}
	})
}

// A fabric delete changes one word of its bucket: the pointer, from the
// key's extent to the key's freed pointer. The key word stays, so the
// bucket reads as free and as no resident, and the key's next write is
// the one-CAS re-insert; the length word and the fourth stay as they
// were.
func TestClientDeleteLeavesAFreeTombstone(t *testing.T) {
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
	addr, _, ok := residentBucket(ht, LookupSeq, key)
	if !ok {
		t.Fatal("key not at a candidate bucket")
	}
	bucket := (addr - ht.Base()) / hopscotch.BucketSize
	m := srv.node.Mem
	var before [4]uint64
	for i := range before {
		before[i], _ = m.U64(addr + uint64(8*i))
	}
	if _, _, ok := awaitResident(cli, key, false); !ok {
		t.Fatal("delete failed")
	}
	if _, _, _, resident := ht.EntryAt(bucket); resident || !ht.FreeAt(bucket) {
		t.Fatal("no free bucket after fabric delete")
	}
	want := before
	want[1] = hopscotch.FreedPtr(key)
	for off := range want {
		if w, _ := m.U64(addr + uint64(8*off)); w != want[off] {
			t.Fatalf("bucket word %d = %#x, want %#x", off, w, want[off])
		}
	}
	if claim, ok := cli.setClaim(key); !ok || claim.BucketAddr != addr || claim.Extent != hopscotch.FreedPtr(key) {
		t.Fatalf("next write of the key claims %+v (%v), want the re-insert at %#x", claim, ok, addr)
	}
}

// A reset returns the staging extent of every set whose chain it
// killed before the chain could land it, and keeps the one a crash cut
// short after its value WRITE landed: that extent is the bucket's value
// now, and the reset connection serves it.
func TestClientResetReturnsUnlandedStaging(t *testing.T) {
	tb := NewTestbed()
	srv := tb.NewServer()
	table := srv.NewHashTable(1024)
	cli := tb.NewPipelinedClient(srv, LookupSeq, 2)
	cli.Bind(table)
	for k := uint64(1); k <= 2; k++ {
		if _, ok := cli.Set(k, Value(k, 64)); !ok {
			t.Fatalf("setup set %d failed", k)
		}
	}
	staging := func(key uint64) uint64 {
		for _, req := range cli.set.slots {
			if req != nil && req.key == key {
				return req.staging
			}
		}
		t.Fatalf("no set of %d in flight", key)
		return 0
	}
	failed := 0
	cb := func(_ Duration, ok bool) {
		if !ok {
			failed++
		}
	}
	// Key 1's chain freezes the instant its value WRITE repoints the
	// bucket, before its ack; key 2's trigger is dropped by the frozen NIC.
	cli.SetAsync(1, Value(11, 64), cb)
	cli.Flush()
	landed := staging(1)
	for end := tb.Now() + 20*sim.Microsecond; ; tb.RunFor(sim.Nanosecond) {
		if va, _, _ := table.Table().Lookup(1); va == landed {
			break
		}
		if tb.Now() > end {
			t.Fatal("setup: the set's value WRITE never landed")
		}
	}
	srv.node.Dev.Freeze()
	cli.SetAsync(2, Value(12, 64), cb)
	cli.Flush()
	dropped := staging(2)
	tb.RunFor(10 * sim.Microsecond)
	srv.node.Dev.Unfreeze()
	cli.reset()
	arena := srv.valueArena()
	if _, live := arena.Size(landed); !live || failed != 2 {
		t.Fatalf("the landed set's extent live=%v, %d of 2 sets failed at the reset", live, failed)
	}
	if _, live := arena.Size(dropped); live {
		t.Fatal("the dropped set's staging extent was not returned")
	}
	tb.Run()
	for k, want := range map[uint64][]byte{1: Value(11, 64), 2: Value(2, 64)} {
		if v, _, ok := cli.Get(k, 64); !ok || !bytes.Equal(v, want) {
			t.Fatalf("get %d after the reset: ok=%v", k, ok)
		}
	}
}
