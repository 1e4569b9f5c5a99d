package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/failure"
	"repro/internal/hopscotch"
	"repro/internal/host"
	"repro/internal/kv"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/wqe"
)

// memcachedBench wires a kv.Store with RedN, one-sided and
// two-sided(VMA) access paths.
type memcachedBench struct {
	clu      *fabric.Cluster
	cli, srv *fabric.Node
	store    *kv.Store
	keys     []uint64

	off  *core.LookupOffload
	redn *rednClient

	twoSided *baseline.TwoSidedClient
	osQP     *rnic.QP
}

func newMemcachedBench(vma bool, twoMode host.CompletionMode, nKeys int, valSize uint64, preArm int) *memcachedBench {
	return newMemcachedBenchB(vma, twoMode, nKeys, valSize, preArm, 0)
}

// newMemcachedBenchB additionally sizes the cuckoo table (0 defaults to
// 4x the key count).
func newMemcachedBenchB(vma bool, twoMode host.CompletionMode, nKeys int, valSize uint64, preArm int, buckets uint64) *memcachedBench {
	mb := &memcachedBench{}
	mb.clu, mb.cli, mb.srv = pair(1)
	if buckets == 0 {
		buckets = uint64(nKeys * 4)
	}
	mb.store = kv.New(mb.srv, buckets)
	for i := 1; i <= nKeys; i++ {
		key := uint64(i)
		if err := mb.store.Set(key, workload.Value(key, int(valSize))); err != nil {
			panic(err)
		}
		mb.keys = append(mb.keys, key)
	}

	// RedN offload over the store's cuckoo table. Sequential two-bucket
	// probing posts 2 responses + 11 control verbs per armed instance;
	// rings are sized for preArm instances posted up front.
	b := core.NewBuilder(mb.srv.Dev, 12*preArm+64)
	cliQP, srvQP := mb.clu.Connect(mb.cli, mb.srv,
		rnic.QPConfig{SQDepth: 256, RQDepth: 64},
		rnic.QPConfig{SQDepth: 2*preArm + 8, RQDepth: preArm + 8, Managed: true})
	// Sequential two-bucket probing: cuckoo inserts may place keys in
	// either candidate bucket.
	mb.off = core.NewLookupOffload(b, srvQP, nil, mb.store.Table, core.LookupSeq, 4*preArm+16)
	for i := 0; i < preArm; i++ {
		mb.off.Arm()
	}
	mb.off.Run()
	mb.redn = newRednClient(mb.clu, mb.cli, mb.srv, mb.off, cliQP)

	// Two-sided (optionally VMA-flavored).
	tsCli, tsSrv := mb.clu.Connect(mb.cli, mb.srv,
		rnic.QPConfig{SQDepth: 1 << 15, RQDepth: 8}, rnic.QPConfig{SQDepth: 1 << 15, RQDepth: 1 << 15})
	server := &baseline.TwoSidedServer{Eng: mb.clu.Eng, CPU: mb.srv.CPU, QP: tsSrv,
		Lookup: mb.store.Lookup, Mode: twoMode, VMA: vma}
	server.Start(1 << 15)
	mb.twoSided = baseline.NewTwoSidedClient(mb.clu.Eng, tsCli)

	// One-sided READs against cuckoo buckets.
	mb.osQP, _ = mb.clu.Connect(mb.cli, mb.srv,
		rnic.QPConfig{SQDepth: 256, RQDepth: 8}, rnic.QPConfig{SQDepth: 8, RQDepth: 8})
	return mb
}

// oneSidedCuckooGet performs the FaRM-style get against the cuckoo
// table: READ candidate bucket(s), then READ the value.
func (mb *memcachedBench) oneSidedCuckooGet(key, valLen uint64, done func(sim.Time)) {
	start := mb.clu.Eng.Now()
	table := mb.store.Table
	m := mb.cli.Mem
	scratch := m.Alloc(hopscotch.BucketSize, 8)
	onCQE := func(fn func()) {
		fired := false
		mb.osQP.SendCQ().OnDeliver(func(rnic.CQE) {
			if !fired {
				fired = true
				fn()
			}
		})
	}
	readVal := func() {
		va, vl, ok := table.Lookup(key)
		if !ok {
			done(mb.clu.Eng.Now() - start)
			return
		}
		if vl > valLen {
			vl = valLen
		}
		onCQE(func() { done(mb.clu.Eng.Now() - start) })
		mb.osQP.PostSend(wqe.WQE{Op: wqe.OpRead, Src: va, Dst: m.Alloc(vl, 8), Len: vl,
			Flags: wqe.FlagSignaled})
		mb.osQP.RingSQ()
	}
	var probe func(fn int)
	probe = func(fn int) {
		onCQE(func() {
			mb.clu.Eng.After(baseline.ClientPollDetect+baseline.ClientProcess, func() {
				if table.LookupBucket(key) == fn {
					readVal()
				} else if fn == 0 {
					probe(1)
				} else {
					done(mb.clu.Eng.Now() - start)
				}
			})
		})
		mb.osQP.PostSend(wqe.WQE{Op: wqe.OpRead, Src: table.HashAddr(key, fn), Dst: scratch,
			Len: hopscotch.BucketSize, Flags: wqe.FlagSignaled})
		mb.osQP.RingSQ()
	}
	probe(0)
}

// Fig14 regenerates Memcached get latency versus IO size: RedN offload
// vs one-sided vs two-sided over VMA (polling).
func Fig14() *Result {
	r := &Result{ID: "fig14", Title: "Memcached get latencies by IO size (Memtier-style, cuckoo index)",
		Header: []string{"RedN", "One-sided", "2-sided (VMA)", "(us)"}}
	const reps = 50
	for _, vs := range valueSizes {
		mb := newMemcachedBench(true, host.Polling, 64, vs, reps+4)
		redn := measureGets(mb.clu, mb.keys, reps, func(k uint64, done func(sim.Time)) {
			mb.redn.get(k, vs, done)
		}).Avg()
		one := measureGets(mb.clu, mb.keys, reps, func(k uint64, done func(sim.Time)) {
			mb.oneSidedCuckooGet(k, vs, done)
		}).Avg()
		two := measureGets(mb.clu, mb.keys, reps, func(k uint64, done func(sim.Time)) {
			mb.twoSided.Get(k, vs, done)
		}).Avg()
		r.Rows = append(r.Rows, Row{Label: sizeLabel(vs) + "B",
			Cells: []string{us(redn), us(one), us(two), ""}})
		if vs == 64 {
			r.metric("redn_64B_us", redn.Micros())
			r.metric("vma_64B_us", two.Micros())
		}
		if vs == 65536 {
			r.metric("redn_64K_us", redn.Micros())
			r.metric("vma_64K_us", two.Micros())
		}
	}
	r.Notes = append(r.Notes,
		"paper: RedN up to 1.7x faster than one-sided and 2.6x than two-sided; VMA's memcpy + stack costs grow with value size")
	return r
}

// Fig15 regenerates the isolation experiment: one reader's get latency
// while 1..16 writer clients flood sets in a closed loop (§5.5).
func Fig15() *Result {
	r := &Result{ID: "fig15", Title: "Memcached get latency under CPU contention (writer set-flood)",
		Header: []string{"RedN avg", "RedN p99", "2-sided avg", "2-sided p99", "(us)"}}
	for _, writers := range []int{1, 2, 4, 8, 16} {
		rAvg, rP99 := contentionRun(writers, true)
		tAvg, tP99 := contentionRun(writers, false)
		r.Rows = append(r.Rows, Row{Label: fmt.Sprintf("%d writers", writers),
			Cells: []string{us(rAvg), us(rP99), us(tAvg), us(tP99), ""}})
		if writers == 16 {
			r.metric("redn_p99_us", rP99.Micros())
			r.metric("twosided_p99_us", tP99.Micros())
			if rP99 > 0 {
				r.metric("isolation_factor", float64(tP99)/float64(rP99))
			}
		}
	}
	r.Notes = append(r.Notes,
		"paper: at 16 writers the two-sided p99 inflates ~35x while RedN stays below 7us — the RNIC is isolated from CPU contention")
	return r
}

// contentionRun measures the reader's get latency with the given number
// of closed-loop writers; rednReader selects the offloaded get path.
func contentionRun(writers int, rednReader bool) (avg, p99 sim.Time) {
	const valSize = 64
	const readerOps = 200
	const keysPerWriter = 1000
	// The paper's Memcached serves on a small worker pool; contention
	// comes from writers saturating those threads. Size the table for
	// every writer's key set so sets overwrite in place (no cuckoo
	// displacement of the reader's keys).
	mb := newMemcachedBenchB(false, host.Polling, 64, valSize, readerOps+8,
		uint64((writers+1)*keysPerWriter*4))
	// Constrain the server's workers to 4 cores (Memcached default).
	srvCPU := host.NewCPU(mb.clu.Eng, "memcached-workers", 4)

	// Writer clients: each owns a disjoint key set, accessed
	// sequentially, issuing sets in a closed loop via RPC. Keys are
	// pre-populated so sets overwrite existing values.
	stop := false
	sets := workload.DisjointKeySets(writers+1, keysPerWriter)
	for w := 0; w < writers; w++ {
		for _, k := range sets[w] {
			if err := mb.store.Set(k, workload.Value(k, valSize)); err != nil {
				panic(err)
			}
		}
		stream := &workload.Sequential{Keys: sets[w]}
		tsCli, tsSrv := mb.clu.Connect(mb.cli, mb.srv,
			rnic.QPConfig{SQDepth: 1 << 14, RQDepth: 8},
			rnic.QPConfig{SQDepth: 1 << 14, RQDepth: 1 << 15})
		server := &baseline.TwoSidedServer{Eng: mb.clu.Eng, CPU: srvCPU, QP: tsSrv,
			Lookup: func(k uint64) (uint64, uint64, bool) {
				// A set: overwrite the value (CPU cost carried by the
				// RPC service time) and ack with 8 bytes.
				if err := mb.store.Set(k, workload.Value(k, valSize)); err != nil {
					panic(err)
				}
				return mb.store.Table.Base(), 8, true
			}, Mode: host.Polling}
		server.Start(1 << 15)
		wc := baseline.NewTwoSidedClient(mb.clu.Eng, tsCli)
		var loop func()
		loop = func() {
			if stop {
				return
			}
			wc.Get(stream.Next(), 8, func(sim.Time) { loop() })
		}
		loop()
	}

	// Reader: two-sided gets go through the same contended worker pool;
	// RedN gets bypass it entirely.
	readerKeys := sets[writers][:64]
	for _, k := range readerKeys {
		if err := mb.store.Set(k, workload.Value(k, valSize)); err != nil {
			panic(err)
		}
	}
	var get func(k uint64, done func(sim.Time))
	if rednReader {
		get = func(k uint64, done func(sim.Time)) { mb.redn.get(k, valSize, done) }
	} else {
		tsCli, tsSrv := mb.clu.Connect(mb.cli, mb.srv,
			rnic.QPConfig{SQDepth: 1 << 12, RQDepth: 8},
			rnic.QPConfig{SQDepth: 1 << 12, RQDepth: 1 << 12})
		server := &baseline.TwoSidedServer{Eng: mb.clu.Eng, CPU: srvCPU, QP: tsSrv,
			Lookup: mb.store.Lookup, Mode: host.Polling}
		server.Start(1 << 12)
		rc := baseline.NewTwoSidedClient(mb.clu.Eng, tsCli)
		get = func(k uint64, done func(sim.Time)) { rc.Get(k, valSize, done) }
	}
	// Closed-loop reader; finishing releases the writers (the engine
	// drains once every closed loop terminates).
	stats := &sim.LatencyStats{}
	i := 0
	var next func()
	next = func() {
		if i >= readerOps {
			stop = true
			return
		}
		k := readerKeys[i%len(readerKeys)]
		i++
		get(k, func(lat sim.Time) {
			stats.Add(lat)
			next()
		})
	}
	next()
	mb.clu.Eng.Run()
	return stats.Avg(), stats.P99()
}

// Fig16 regenerates the failover timeline: normalized get throughput
// across a process crash at t=5s for RedN (hull parent + pre-armed
// offload) versus vanilla Memcached (restart + rebuild).
func Fig16() *Result {
	r := &Result{ID: "fig16", Title: "Throughput across a process crash at t=5s (normalized)",
		Header: []string{"RedN", "vanilla", "(fraction of steady rate)"}}

	const duration = 12 * sim.Second
	const bucket = 500 * sim.Millisecond
	const gap = 500 * sim.Microsecond // open-loop request pacing (2K gets/s)

	run := func(redn bool) []float64 {
		counts := make([]float64, int(duration/bucket))
		const valSize = 64
		preArm := int(duration/gap) + 16
		mb := newMemcachedBench(false, host.Polling, 16, valSize, preArm)

		record := func() {
			idx := int(mb.clu.Eng.Now() / bucket)
			if idx >= 0 && idx < len(counts) {
				counts[idx]++
			}
		}
		if redn {
			var issue func()
			i := 0
			issue = func() {
				if mb.clu.Eng.Now() >= duration {
					return
				}
				mb.redn.get(mb.keys[i%len(mb.keys)], valSize, func(sim.Time) { record() })
				i++
				mb.clu.Eng.After(gap, issue)
			}
			issue()
		} else {
			var issue func()
			i := 0
			issue = func() {
				if mb.clu.Eng.Now() >= duration {
					return
				}
				mb.twoSided.Get(mb.keys[i%len(mb.keys)], valSize, func(sim.Time) { record() })
				i++
				mb.clu.Eng.After(gap, issue)
			}
			issue()
		}
		// RedN's RDMA resources live in a hull parent; vanilla's die
		// with the process.
		mb.store.Crash(failure.ProcessCrash, redn).InjectAt(mb.clu.Eng, 5*sim.Second)
		mb.clu.Eng.RunUntil(duration)

		// Normalize to the steady-state bucket rate.
		peak := counts[2]
		if peak == 0 {
			peak = 1
		}
		for i := range counts {
			counts[i] /= peak
		}
		return counts
	}

	rednSeries := run(true)
	vanilla := run(false)
	for i := range rednSeries {
		t := sim.Time(i) * bucket
		r.Rows = append(r.Rows, Row{Label: fmt.Sprintf("t=%.1fs", t.Seconds()),
			Cells: []string{fmt.Sprintf("%.2f", rednSeries[i]),
				fmt.Sprintf("%.2f", vanilla[i]), ""}})
	}
	// Availability metrics: buckets below half rate.
	down := func(s []float64) int {
		n := 0
		for _, v := range s[1:] {
			if v < 0.5 {
				n++
			}
		}
		return n
	}
	r.metric("redn_down_buckets", float64(down(rednSeries)))
	r.metric("vanilla_down_buckets", float64(down(vanilla)))
	r.Notes = append(r.Notes,
		"paper: vanilla Memcached loses ~2.25s (1s bootstrap + 1.25s hash-table rebuild); RedN's NIC-resident offload sees no disruption")
	return r
}
