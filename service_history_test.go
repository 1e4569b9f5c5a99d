package redn

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"repro/internal/failure"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
	"repro/internal/wqe"
)

// exactHistoryHash is the FNV-64a fold of every completion of the seeded
// history below: op, key, verdict and virtual completion time. Virtual
// time is deterministic for a seed, so any change that moves one WR,
// one QP's PU placement or one event's order moves this value. It moved
// when every client window became AIMD: the frozen NIC's and the
// crashed shard's unexecuted timeouts now cut the affected clients'
// windows, which reorders their later issues. It moved again when a
// get of a key whose owner's last fabric claim placed it began arming
// one probe of that bucket instead of two: those gets answer sooner
// and their WRs leave the fetch units earlier. It moved again when each
// shard began serving its second client connection on its NIC's second
// port (its own PUs and fetch unit), a version probe became one WRITE
// of the whole bucket (two managed fetches, and a probe miss answers
// at once), and windows began opening at 72. It moved again when a
// hinted get stopped deciding on the NIC: its chain lost the CAS (three
// managed fetches, not four), and a stale hint's miss answers at once.
// It moved again when a hinted get began gathering the extent its
// writer installed instead of READing the bucket's pointer first: its
// chain lost the READ (two managed fetches, not three), and a get whose
// bucket names another extent re-aims there. It moved again for two
// changes, each of which moves it alone: a fabric delete began keeping
// its key's placement hint, so a get of a deleted key reads the
// tombstone in one round trip instead of two probes and a silent miss
// (alone, on the previous tree: 0xbc849837c8ce3b07); and writes began
// publishing by one pointer CAS — an overwrite is RECV + CAS (two
// managed fetches, not four), a fresh claim's CAS arms its publishing
// WRITE (three, not five), a delete tombstones at its claim (six, not
// seven) and values carry their [version, length] header (alone, with
// every delete still dropping its key's hint: 0x41a91baf1cd9a1f8). It
// moved again for two changes: a get with no standing hint began
// locating its key (one hinted-shape WRITE answering both candidates'
// words) instead of probing both buckets, so a get of an absent or
// unhinted key, and the breaker's liveness probe, answer in round trips
// instead of a silent MissTimeout (alone: 0x606f704fdfede3d7); and a
// version probe's WRITE began running from an unmanaged queue behind
// its own WAIT, one managed fetch instead of two. It moved again when
// the resharding migrator stopped copying keys itself and began
// standing repair records on the lagging new owners: the history's
// join now moves its keys on the owners' drain lanes, where a key with
// a write in flight parks like any repair, instead of as one converge
// per key started at the migrator's tick. It moved again for two
// changes: the bucket's version word went, so a fabric delete's trigger
// and its free WRITE are each 8 B shorter (alone: 0xa202019d1f46791f);
// and a hint standing on a shard that lost its key to the join goes to
// the key's new owner when the key's segment seals, and the seal purges
// a former owner's copy whenever that owner holds no work for the key,
// not only once every write to the key settled (alone:
// 0x2c86427db0ac033c). It moved again when a fabric delete became the
// set chain's key claim installing the tombstone: the delete chain's
// unlink to a to-free ring and the READ that armed its free WRITE went,
// so a delete is four managed fetches, not six, and its extent retires
// on the applied ack instead of from a ring drain (0x954dee9f90276f72).
// It moved again when a delete became a request on the client's set
// pipeline: deletes and sets now share one connection's slots and AIMD
// window, so a delete waits behind the sets in flight (and they behind
// it), and each client's doorbell rings one trigger QP fewer
// (0x730a3be386a816d3). It moved again when a version probe became a
// request on the client's set pipeline: the history's read-repair
// probes now share the sets' trigger QP, slots and window, so a probe
// waits behind the writes in flight (and they behind it), and its
// WRITE runs on a set context's answer queue, on that queue's PU; and
// a probe takes the partner's next connection, as a get attempt does,
// advancing the rotation the gets share (0x8d6a2cbd3647f32e). It moved
// again when a service get's answer WRITE became final when posted, one
// managed fetch instead of two, and a version probe became two READs
// on the client end of its set slot's response connection, no managed
// fetch on the partner's NIC (0x4201692cb62362b8). It moved again when
// every set CAS became final when posted, run from an unmanaged ring
// behind a WAIT on the trigger: a hinted overwrite takes one managed
// fetch instead of two, a fresh claim two instead of three, and the
// history's deletes two instead of four (0xa5a12fcc53a1fc47). It moved
// again when a delete became the hinted overwrite's one pointer CAS,
// swapping the key's extent for its freed pointer (3 + 4 WRs and one
// managed fetch, not 5 + 8 and two), and a deleted key's re-insert at
// its own bucket the same one CAS, with no publish.
const exactHistoryHash = 0xec93f8ab605e063c

// historyOp is one completed operation of a history run; op is its
// telemetry class (get, set or del).
type historyOp struct {
	op  uint8
	key uint64
	ok  bool
	at  sim.Time
}

// runServiceHistory drives a seeded ~4 000-op history through an r=3 W=2
// service with read-repair probes live, and reports every completion to
// done, with the service, in completion order. The history covers:
//
//   - claims refused by a racing host write: sets whose claimed bucket a
//     host insert takes, deletes whose key a host delete removes, each
//     after the chain is posted and before its trigger crosses the wire;
//   - concurrent gets (absent keys included), sets and deletes from a
//     closed loop of workers, through a NIC freeze and thaw on one shard,
//     a process crash of the same shard (whose reconnect heals the
//     connections the freeze spoiled), and a shard joining mid-run;
//   - the recovery, hint drain and migration after the history.
func runServiceHistory(t *testing.T, seed int64, done func(*Service, historyOp)) *Service {
	t.Helper()
	s := NewServiceWith(ServiceConfig{
		Shards: 3, ClientsPerShard: 2, Pipeline: 8, Mode: LookupSeq,
		Replicas: 3, WriteQuorum: 2, ReadPolicy: ReadRoundRobin,
		Buckets: 1 << 12, MaxValLen: 64, ReadRepair: true,
	})
	const (
		nKeys    = 32 // keys the writers touch
		nAbsent  = 8  // keys above nKeys: gets only, never written
		valLen   = 48
		totalOps = 4000
		workers  = 12
	)
	rng := workload.Rng(seed)
	val := func(key uint64) []byte { return Value(key*1_000_000+uint64(rng.Intn(1000)), valLen) }
	record := func(op uint8, key uint64, ok bool) { done(s, historyOp{op, key, ok, s.Now()}) }

	for k := uint64(1); k <= nKeys; k++ {
		if err := s.Set(k, val(k)); err != nil {
			t.Fatal(err)
		}
	}

	// Refused claims: the claim is computed and its chain posted, then a
	// host write on the first owner lands before the trigger arrives.
	foreign := uint64(1) << 32
	for i := uint64(0); i < 8; i++ {
		key := 1000 + i
		sh := s.shards[s.Owners(key)[0]]
		ht := sh.table.Table()
		claim, fabric := claimForTable(ht, LookupSeq, key)
		if !fabric {
			t.Fatalf("key %d: no fabric claim on an idle table", key)
		}
		fin := false
		s.SetAsync(key, val(key), func(_ Duration, err error) { record(telemetry.ClassSet, key, err == nil); fin = true })
		s.Flush()
		for ; ht.BucketAddr(ht.Hash(foreign, 0)) != claim.BucketAddr; foreign++ {
		}
		if err := sh.set(foreign, Value(foreign, valLen), 1); err != nil {
			t.Fatal(err)
		}
		foreign++
		s.tb.stepUntil(&fin)

		fin = false
		s.DeleteAsync(key, func(_ Duration, err error) { record(telemetry.ClassDel, key, err == nil); fin = true })
		s.Flush()
		sh.del(key)
		s.tb.stepUntil(&fin)
	}

	eng := s.Testbed().Engine()
	ops := 0
	var worker func()
	worker = func() {
		if ops >= totalOps {
			return
		}
		ops++
		switch ops {
		case 800:
			s.order[1].srv.node.Dev.Freeze()
		case 1200:
			s.order[1].srv.node.Dev.Unfreeze()
		case 2000:
			s.CrashShard(1, failure.ProcessCrash, s.Now())
		case 2800:
			if err := s.AddShard("shard3"); err != nil {
				t.Errorf("AddShard mid-history: %v", err)
			}
		}
		key := uint64(rng.Intn(nKeys+nAbsent) + 1)
		switch r := rng.Intn(10); {
		case r == 0 && key <= nKeys:
			s.DeleteAsync(key, func(_ Duration, err error) { record(telemetry.ClassDel, key, err == nil); worker(); s.Flush() })
		case r <= 3 && key <= nKeys:
			s.SetAsync(key, val(key), func(_ Duration, err error) { record(telemetry.ClassSet, key, err == nil); worker(); s.Flush() })
		default:
			s.GetAsync(key, valLen, func(_ []byte, _ Duration, ok bool) { record(telemetry.ClassGet, key, ok); worker(); s.Flush() })
		}
	}
	for i := 0; i < workers; i++ {
		eng.After(0, worker)
	}
	s.Run()
	s.Testbed().RunFor(4 * sim.Second) // crash recovery, hint drain, migration
	if ops != totalOps {
		t.Fatalf("history stalled at %d of %d ops", ops, totalOps)
	}
	return s
}

// TestServiceExactHistory pins the virtual-time outcome of a seeded
// history that crosses every offload chain (get, set, delete, probe),
// refused claims, a frozen NIC, a process crash and a shard join. A
// refactor that claims bit-identical virtual time must leave the hash
// where it is; a change that moves virtual time on purpose updates the
// constant to the value the failure prints.
func TestServiceExactHistory(t *testing.T) {
	h := fnv.New64a()
	var buf [25]byte
	n := 0
	s := runServiceHistory(t, 1, func(_ *Service, o historyOp) {
		binary.LittleEndian.PutUint64(buf[0:], uint64(o.op))
		binary.LittleEndian.PutUint64(buf[8:], o.key)
		binary.LittleEndian.PutUint64(buf[16:], uint64(o.at))
		buf[24] = 0
		if o.ok {
			buf[24] = 1
		}
		h.Write(buf[:])
		n++
	})
	st := s.Stats()
	if st.HostSets == 0 || st.Probes == 0 || st.HintsQueued == 0 || st.MigKeysMoved == 0 {
		t.Fatalf("history missed a path: host sets %d, probes %d, hints %d, migrated keys %d",
			st.HostSets, st.Probes, st.HintsQueued, st.MigKeysMoved)
	}
	if got := h.Sum64(); got != exactHistoryHash {
		t.Fatalf("history of %d completions hashes to %#016x, want %#016x", n, got, uint64(exactHistoryHash))
	}
}

// The service stores each counter once: the registry and Stats() read
// the same words. After a faulted history every svc/* and shardN/*
// registry counter equals the ServiceStats or ShardStats field its
// `metric` tag names, and the fleet row equals the sum of the shard
// rows. The gauges that mirror a Stats() figure equal the fleet row
// every 200 completions, at every completion while the join migrates
// (its segments seal within a few dozen), and at the end, so the
// freeze's and the crash's hint backlog, the repairs and the migration
// are compared while they stand, not only once they have drained to
// zero. The history marks no completion with the ECN backlog watermark,
// so a last phase bursts gets at the quiesced service until the NIC's
// backlog crosses it and svc/ecn_cuts is compared nonzero too. The
// checks walk the structs by reflection, so a field added later is
// covered.
func TestServiceStatsOneStoreTwoViews(t *testing.T) {
	mirrors := func(st ServiceStats) map[string]uint64 {
		return map[string]uint64{
			"svc/hints_pending":     st.HintsPending,
			"svc/repairs_pending":   st.RepairsPending,
			"svc/window_cuts":       st.WindowCuts,
			"svc/ecn_cuts":          st.EcnCuts,
			"svc/arena_live_bytes":  st.ArenaLive,
			"svc/migrating_buckets": uint64(st.MigratingBuckets),
		}
	}
	moved := map[string]bool{}
	checks := 0
	compare := func(s *Service) {
		st := s.Stats()
		gauges := map[string]float64{}
		for _, m := range s.Metrics().Snapshot() {
			if m.Kind == "gauge" {
				gauges[m.Name] = m.Value
			}
		}
		for name, want := range mirrors(st) {
			if got, ok := gauges[name]; !ok || got != float64(want) {
				t.Errorf("check %d at %v: gauge %s = %v (registered %v), stats %d", checks, s.Now(), name, got, ok, want)
			}
			if want != 0 {
				moved[name] = true
			}
		}
		checks++
	}
	n := 0
	s := runServiceHistory(t, 2, func(s *Service, _ historyOp) {
		if n++; n%200 == 0 || s.resharding() {
			compare(s)
		}
	})
	compare(s)
	if st := s.Stats(); st.EcnCuts != 0 {
		t.Fatalf("the history took %d ECN cuts; the burst below is to be the first", st.EcnCuts)
	}
	// The ECN phase. The history's 8-deep windows never back a fetch
	// unit up 25 us, so a SEND waits on the first shard's NIC as a
	// receiver-not-ready arrival instead: its age is part of the
	// backlog watermark, and past 25 us every answer from that NIC is
	// marked. A burst of gets then collects the marks.
	sh := s.order[0]
	node := sh.clients[0].node
	cliQP, _ := s.tb.clu.Connect(node, sh.srv.node, rnic.QPConfig{SQDepth: 8, RQDepth: 8}, rnic.QPConfig{SQDepth: 8, RQDepth: 8})
	cliQP.PostSend(wqe.WQE{Op: wqe.OpSend, Src: node.Mem.Alloc(8, 8), Len: 8})
	cliQP.RingSQ()
	s.tb.clu.Eng.RunUntil(s.Now() + 2*defaultEcnBacklog)
	for i := range uint64(256) {
		s.GetAsync(1+i%32, 48, func([]byte, Duration, bool) {})
	}
	s.Flush()
	s.Run()
	compare(s)
	for name := range mirrors(ServiceStats{}) {
		if !moved[name] {
			t.Errorf("gauge %s: zero at all %d checks", name, checks)
		}
	}
	st := s.Stats()
	rows := map[string]reflect.Value{"svc": reflect.ValueOf(st)}
	for _, ss := range st.Shards {
		rows[ss.ID] = reflect.ValueOf(ss)
	}
	// field finds the field of row tagged `metric:"name"`.
	field := func(row reflect.Value, name string) (reflect.Value, bool) {
		typ := row.Type()
		for i := range typ.NumField() {
			if typ.Field(i).Tag.Get("metric") == name {
				return row.Field(i), true
			}
		}
		return reflect.Value{}, false
	}
	var checked int
	var total float64
	for _, m := range s.Metrics().Snapshot() {
		if m.Kind != "counter" {
			continue
		}
		rowID, name, _ := strings.Cut(m.Name, "/")
		row, ok := rows[rowID]
		if !ok {
			t.Fatalf("counter %s: no stats row %q", m.Name, rowID)
		}
		f, ok := field(row, name)
		if !ok {
			t.Fatalf("counter %s: no stats field tagged %q", m.Name, name)
		}
		if got := float64(f.Uint()); got != m.Value {
			t.Errorf("counter %s = %v, stats field %d", m.Name, m.Value, f.Uint())
		}
		checked++
		total += m.Value
	}
	// 16 service counters: the migrator's copy-failure and skipped-key
	// counters left with its own copy loop. 19 per shard since a shard
	// counts the extents its applied fabric deletes retire (gc_freed).
	if want := 16 + 19*len(st.Shards); checked != want || total == 0 {
		t.Fatalf("checked %d counters summing to %v, want %d and a nonzero sum", checked, total, want)
	}

	fleet, typ := reflect.ValueOf(st.ShardStats), reflect.TypeOf(st.ShardStats)
	for i := range typ.NumField() {
		if typ.Field(i).Type.Kind() != reflect.Uint64 {
			continue
		}
		var sum uint64
		for _, ss := range st.Shards {
			sum += reflect.ValueOf(ss).Field(i).Uint()
		}
		if got := fleet.Field(i).Uint(); got != sum {
			t.Errorf("fleet %s = %d, shards sum to %d", typ.Field(i).Name, got, sum)
		}
	}
}
