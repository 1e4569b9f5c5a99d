// Command bench is the two-clock benchmark of the RedN reproduction:
// four seeded workloads driven through redn.Service from outside,
// reporting virtual time (the modeled fabric) and wall clock (the
// simulator itself) side by side. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		name       = flag.String("workload", "all", "workload to run, or \"all\"")
		seed       = flag.Int64("seed", 1, "seed of the benchmark's generators (2 is the hold-out seed)")
		seconds    = flag.Float64("seconds", runSeconds, "run length the fixed op counts are sized for; only runs at the default compare")
		trace      = flag.Int("trace", 0, "1: add the traced run and its per-layer metrics")
		out        = flag.String("out", "", "also write the full report as JSON to this file")
		compare    = flag.String("compare", "", "compare report A (this flag) against report B (the argument)")
		cpuprofile = flag.String("cpuprofile", "", "keep the traced pass's CPU profile in this file")
	)
	flag.Parse()
	if *compare != "" {
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("usage: -compare A.json B.json"))
		}
		differ, err := compareReports(os.Stdout, *compare, flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if differ {
			os.Exit(1)
		}
		return
	}
	// -trace takes 0 or 1, not a bare switch: the driver passes "--trace 0".
	if flag.NArg() != 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	// The simulator is single-threaded; a second P lets the GC run beside it.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	rep := &report{Meta: meta{GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: *seed, Seconds: *seconds}}

	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w := findWorkload(*name); w != nil {
		todo = []workload{*w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	var ladder map[string]metric
	if *trace == 1 {
		ladder = runLadder(*seconds)
	}
	correct := true
	for _, w := range todo {
		w = w.sized(*seconds)
		wr := &workloadReport{Name: w.Name, Correct: true}
		rep.Workloads = append(rep.Workloads, wr)
		resetPeakRSS()
		plain, err := runUntraced(&w, *seed, setupBuilds, wr)
		if err != nil {
			fatal(err)
		}
		printTable(os.Stdout, wr, "end-to-end (untraced)", endToEnd, wr.EndToEnd)
		vals := wr.EndToEnd
		if *trace == 1 {
			if err := runTraced(&w, *seed, plain, ladder, *cpuprofile, wr); err != nil {
				fatal(err)
			}
			printTable(os.Stdout, wr, "per-layer (traced)", perLayer, wr.PerLayer)
			vals = wr.PerLayer
		}
		correct = correct && wr.Correct
		if err := printResultLine(os.Stdout, wr, vals); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fatal(err)
		}
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
