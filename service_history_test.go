package redn

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"repro/internal/failure"
	"repro/internal/sim"
	"repro/internal/workload"
)

// exactHistoryHash is the FNV-64a fold of every completion of the seeded
// history below: op, key, verdict and virtual completion time. Virtual
// time is deterministic for a seed, so any change that moves one WR,
// one QP's PU placement or one event's order moves this value.
const exactHistoryHash = 0xd80b4fea9e97805b

// historyOp is one completed operation of a history run.
type historyOp struct {
	op  pipeOp
	key uint64
	ok  bool
	at  sim.Time
}

// runServiceHistory drives a seeded ~4 000-op history through an r=3 W=2
// service with read-repair probes live, and reports every completion to
// done in completion order. The history covers:
//
//   - claims refused by a racing host write: sets whose claimed bucket a
//     host insert takes, deletes whose key a host delete removes, each
//     after the chain is posted and before its trigger crosses the wire;
//   - concurrent gets (absent keys included), sets and deletes from a
//     closed loop of workers, through a NIC freeze and thaw on one shard,
//     a process crash of the same shard (whose reconnect heals the
//     connections the freeze spoiled), and a shard joining mid-run;
//   - the recovery, hint drain and migration after the history.
func runServiceHistory(t *testing.T, seed int64, done func(historyOp)) *Service {
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
	record := func(op pipeOp, key uint64, ok bool) { done(historyOp{op, key, ok, s.Now()}) }

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
		claim, fabric := claimForTable(ht, sh.mode, key)
		if !fabric {
			t.Fatalf("key %d: no fabric claim on an idle table", key)
		}
		fin := false
		s.SetAsync(key, val(key), func(_ Duration, err error) { record(pipeSet, key, err == nil); fin = true })
		s.Flush()
		for ; ht.BucketAddr(ht.Hash(foreign, 0)) != claim.BucketAddr; foreign++ {
		}
		if err := sh.set(foreign, Value(foreign, valLen), 1); err != nil {
			t.Fatal(err)
		}
		foreign++
		s.tb.stepUntil(&fin)

		fin = false
		s.DeleteAsync(key, func(_ Duration, err error) { record(pipeDelete, key, err == nil); fin = true })
		s.Flush()
		sh.del(key, 1)
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
			s.DeleteAsync(key, func(_ Duration, err error) { record(pipeDelete, key, err == nil); worker(); s.Flush() })
		case r <= 3 && key <= nKeys:
			s.SetAsync(key, val(key), func(_ Duration, err error) { record(pipeSet, key, err == nil); worker(); s.Flush() })
		default:
			s.GetAsync(key, valLen, func(_ []byte, _ Duration, ok bool) { record(pipeGet, key, ok); worker(); s.Flush() })
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
	s := runServiceHistory(t, 1, func(o historyOp) {
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
// registry counter equals its ServiceStats or ShardStats field, and the
// fleet row equals the sum of the shard rows. Both checks walk the
// structs by reflection, so a field added later is covered.
func TestServiceStatsOneStoreTwoViews(t *testing.T) {
	s := runServiceHistory(t, 2, func(historyOp) {})
	st := s.Stats()
	rows := map[string]reflect.Value{"svc": reflect.ValueOf(st)}
	for _, ss := range st.Shards {
		rows[ss.ID] = reflect.ValueOf(ss)
	}
	// field finds the counter name's field in row: the one tagged
	// `metric:"name"`, else the one named name in camel case.
	field := func(row reflect.Value, name string) (reflect.Value, bool) {
		typ := row.Type()
		for i := range typ.NumField() {
			f := typ.Field(i)
			if f.Tag.Get("metric") == name || strings.EqualFold(f.Name, strings.ReplaceAll(name, "_", "")) {
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
			t.Fatalf("counter %s: no stats field", m.Name)
		}
		if got := float64(f.Uint()); got != m.Value {
			t.Errorf("counter %s = %v, stats field %d", m.Name, m.Value, f.Uint())
		}
		checked++
		total += m.Value
	}
	if want := 21 + 17*len(st.Shards); checked != want || total == 0 {
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
