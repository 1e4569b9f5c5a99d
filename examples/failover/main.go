// Failover: a Memcached-like store keeps serving gets through a
// process crash when its RDMA resources live in a hull parent and the
// get path is NIC-resident (§5.6, Fig 16). A vanilla instance loses
// ~2.25s to restart and hash-table rebuild.
package main

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/failure"
	"repro/internal/host"
	"repro/internal/kv"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/wqe"
)

func run(hullParent bool) []float64 {
	const duration = 10 * sim.Second
	const bucket = 500 * sim.Millisecond
	const gap = 2 * sim.Millisecond

	clu := fabric.NewCluster()
	cli := clu.AddNode(fabric.DefaultNodeConfig("client"))
	srv := clu.AddNode(fabric.DefaultNodeConfig("server"))
	store := kv.New(srv, 256)
	for k := uint64(1); k <= 16; k++ {
		if err := store.Set(k, workload.Value(k, 64)); err != nil {
			panic(err)
		}
	}

	counts := make([]float64, int(duration/bucket))
	record := func() {
		if i := int(clu.Eng.Now() / bucket); i < len(counts) {
			counts[i]++
		}
	}

	if hullParent {
		// RedN path: pre-armed NIC-resident gets.
		preArm := int(duration/gap) + 8
		b := core.NewBuilder(srv.Dev, 12*preArm+64)
		cliQP, srvQP := clu.Connect(cli, srv,
			rnic.QPConfig{SQDepth: 256, RQDepth: 8},
			rnic.QPConfig{SQDepth: 2*preArm + 8, RQDepth: preArm + 8, Managed: true})
		off := core.NewLookupOffload(b, srvQP, nil, store.Table, core.LookupSeq, 4*preArm+16)
		for i := 0; i < preArm; i++ {
			off.Arm()
		}
		off.Run()
		srvQP.SendCQ().OnDeliver(func(e rnic.CQE) {
			if e.Op == wqe.OpWrite {
				record()
			}
		})
		resp := cli.Mem.Alloc(128, 8)
		buf := cli.Mem.Alloc(128, 8)
		i := 0
		var issue func()
		issue = func() {
			if clu.Eng.Now() >= duration {
				return
			}
			payload := off.TriggerPayload(uint64(i%16+1), 64, resp)
			cli.Mem.Write(buf, payload)
			cliQP.PostSend(wqe.WQE{Op: wqe.OpSend, Src: buf, Len: uint64(len(payload)),
				Flags: wqe.FlagSignaled})
			cliQP.RingSQ()
			i++
			clu.Eng.After(gap, issue)
		}
		issue()
	} else {
		// Vanilla path: two-sided RPC through the server CPU.
		tsCli, tsSrv := clu.Connect(cli, srv,
			rnic.QPConfig{SQDepth: 1 << 14, RQDepth: 8},
			rnic.QPConfig{SQDepth: 1 << 14, RQDepth: 1 << 14})
		server := &baseline.TwoSidedServer{Eng: clu.Eng, CPU: srv.CPU, QP: tsSrv,
			Lookup: store.Lookup, Mode: host.Polling}
		server.Start(1 << 14)
		c := baseline.NewTwoSidedClient(clu.Eng, tsCli)
		i := 0
		var issue func()
		issue = func() {
			if clu.Eng.Now() >= duration {
				return
			}
			c.Get(uint64(i%16+1), 64, func(sim.Time) { record() })
			i++
			clu.Eng.After(gap, issue)
		}
		issue()
	}

	store.Crash(failure.ProcessCrash, hullParent).InjectAt(clu.Eng, 4*sim.Second)
	clu.Eng.RunUntil(duration)

	peak := counts[2]
	if peak == 0 {
		peak = 1
	}
	for i := range counts {
		counts[i] /= peak
	}
	return counts
}

func sparkline(series []float64) string {
	var sb strings.Builder
	for _, v := range series {
		bars := " .:-=+*#"
		i := int(v * float64(len(bars)-1))
		if i < 0 {
			i = 0
		}
		if i >= len(bars) {
			i = len(bars) - 1
		}
		sb.WriteByte(bars[i])
	}
	return sb.String()
}

func main() {
	fmt.Println("normalized get throughput, crash at t=4s (one char per 0.5s):")
	redn := run(true)
	vanilla := run(false)
	fmt.Printf("  RedN (hull parent, NIC-resident gets): [%s]\n", sparkline(redn))
	fmt.Printf("  vanilla Memcached (restart + rebuild): [%s]\n", sparkline(vanilla))
	fmt.Println("\n  vanilla loses ~2.25s: 1s bootstrap + 1.25s hash-table rebuild;")
	fmt.Println("  RedN's offload never stops — the NIC does not need the process.")
}
