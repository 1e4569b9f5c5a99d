package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"repro"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Resharding measures elastic membership under load: an open-loop
// 75/25 get/set mix runs while a fifth shard joins the ring and then a
// founding shard drains away, each change live-migrating its share of
// the keyspace over the fabric's offloaded set chains. The timeline
// must show what the paper's offload economics promise for membership
// change — zero read-outage buckets, zero write-outage buckets, and
// every write acknowledged anywhere in the run readable at its
// post-migration owners once both migrations settle.
func Resharding() *Result {
	return reshardingRun(6*sim.Second, 250*sim.Millisecond, 200*sim.Microsecond,
		1500*sim.Millisecond, 3500*sim.Millisecond)
}

// reshardKeys is the preloaded key-set size.
const reshardKeys = 4000

func reshardingRun(duration, bucket, gap, joinAt, drainAt sim.Time) *Result {
	r := &Result{ID: "resharding",
		Title:  "Elastic membership: a shard joins, a shard drains, keys migrate live over the fabric",
		Header: []string{"gets/s", "sets/s", "outage", "moved", "migration", "(ms)"}}

	s := redn.NewServiceWith(redn.ServiceConfig{
		Shards:              4,
		ClientsPerShard:     2,
		Pipeline:            16,
		Mode:                redn.LookupSeq,
		Replicas:            3,
		WriteQuorum:         2,
		ReadPolicy:          redn.ReadRoundRobin,
		HotKeyCache:         16,
		Buckets:             1 << 16,
		MaxValLen:           256,
		ReadRepair:          true,
		AntiEntropyEvery:    sim.Millisecond,
		AntiEntropySegments: 32,
	})
	keys := preloadKeys(s, reshardKeys)

	// Ledger of every key whose write the service acknowledged: the
	// zero-loss acceptance check replays it against the post-migration
	// ring once both changes settle.
	acked := make(map[uint64]bool, reshardKeys)
	for _, k := range keys {
		acked[k] = true // preload was synchronously acknowledged
	}

	eng := s.Testbed().Engine()
	start := eng.Now()
	eng.At(start+joinAt, func() {
		if err := s.AddShard("shard4"); err != nil {
			panic(fmt.Sprintf("resharding: join refused: %v", err))
		}
	})
	var tryDrain func()
	tryDrain = func() {
		if err := s.DrainShard("shard0"); err != nil {
			if errors.Is(err, redn.ErrMigrationInProgress) {
				eng.After(50*sim.Millisecond, tryDrain)
				return
			}
			panic(fmt.Sprintf("resharding: drain refused: %v", err))
		}
	}
	eng.At(start+drainAt, tryDrain)

	rep := workload.RunOpenLoop(eng, s, workload.OpenLoopConfig{
		Duration:   duration,
		Gap:        gap,
		Bucket:     bucket,
		Keys:       &workload.Uniform{Keys: keys, Rng: workload.Rng(1)},
		ValLen:     64,
		WriteEvery: 4,
		OnSetAck:   func(key uint64) { acked[key] = true },
		// The membership gauges (svc/ring_nodes, svc/migrating_buckets)
		// land on the same timeline as the hit/ack series: the bucket
		// where the ring grows shows the migration backlog draining with
		// no dip above it.
		Gauges: s.Metrics().Gauges(),
	})

	// Let both migrations, redirected hints and the repair net settle.
	s.Run()
	s.Testbed().RunFor(2 * sim.Second)

	nb := int(duration / bucket)
	getOutage := rep.BucketsBelow(0, 0, nb, 0.5)
	setOutage := rep.SetBucketsBelow(0, 0, nb, 0.5)

	// Zero-loss acceptance: every acknowledged key must be readable at
	// its post-migration owners, bytes intact.
	ledger := make([]uint64, 0, len(acked))
	for k := range acked {
		ledger = append(ledger, k)
	}
	sort.Slice(ledger, func(i, j int) bool { return ledger[i] < ledger[j] })
	missing := 0
	for _, k := range ledger {
		if v, _, ok := s.Get(k, 64); !ok || !bytes.Equal(v, redn.Value(k, 64)) {
			missing++
		}
	}
	stale := s.StaleOwners(ledger)

	st := s.Stats()
	migs := s.Migrations()
	for _, m := range migs {
		label := "drain shard0"
		metric := "drain"
		if m.Join {
			label = "join shard4"
			metric = "join"
		}
		ms := (m.Finished - m.Started).Seconds() * 1e3
		r.Rows = append(r.Rows, Row{
			Label: fmt.Sprintf("%s @t=%v", label, m.Started),
			Cells: []string{"-", "-", "-", fmt.Sprintf("%d", m.Keys),
				fmt.Sprintf("%d segs", m.Segments), fmt.Sprintf("%.2f", ms)}})
		r.metric(metric+"_migration_ms", ms)
		r.metric(metric+"_keys", float64(m.Keys))
	}
	r.Rows = append(r.Rows, Row{
		Label: fmt.Sprintf("4 shards r=3 w=2, join+drain, %v", duration),
		Cells: []string{
			kops(float64(rep.Hits) / duration.Seconds()),
			kops(float64(rep.SetsAcked) / duration.Seconds()),
			fmt.Sprintf("%dg/%dw", getOutage, setOutage),
			fmt.Sprintf("%d", st.MigKeysMoved), "-", ""}})

	r.metric("migrations", float64(len(migs)))
	r.metric("get_outage_buckets", float64(getOutage))
	r.metric("set_outage_buckets", float64(setOutage))
	r.metric("set_errs", float64(rep.SetErrs))
	r.metric("post_missing", float64(missing))
	r.metric("stale_after", float64(stale))
	r.metric("mig_keys_moved", float64(st.MigKeysMoved))
	r.metric("mig_segs_sealed", float64(st.MigSegsSealed))
	r.metric("hints_redirected", float64(st.MigHintsRedirected))
	r.metric("shards_final", float64(s.NumShards()))

	for g, name := range rep.GaugeNames {
		switch name {
		case "svc/migrating_buckets":
			peak := 0.0
			for _, v := range rep.GaugeSeries[g] {
				if v > peak {
					peak = v
				}
			}
			r.metric("peak_migrating_buckets", peak)
		case "svc/ring_nodes":
			peak := 0.0
			for _, v := range rep.GaugeSeries[g] {
				if v > peak {
					peak = v
				}
			}
			r.metric("peak_ring_nodes", peak)
		}
	}

	r.Notes = append(r.Notes,
		fmt.Sprintf("uniform %dK-key 64B open loop paced at %v, every 4th op a set; shard4 joins at t=%v, shard0 drains at t=%v", reshardKeys/1000, gap, joinAt, drainAt),
		"outage counts timeline buckets with zero hits (g) or zero acked writes (w) — the acceptance bar is 0g/0w",
		fmt.Sprintf("zero-loss replay: %d acked keys re-read post-migration, %d missing, %d stale replicas", len(ledger), missing, stale),
		"dual-read/dual-write covers the handover window; hinted handoff redirects to new owners; read-repair and anti-entropy back-stop stragglers")
	return r
}
