// Command redn-bench regenerates the paper's tables and figures on the
// simulated testbed, plus the beyond-paper service scenarios (failover,
// mixed, churn, repair, overload, resharding, sentinel). The service's
// throughput in both clocks is bench/run.sh's to measure.
//
// Usage:
//
//	redn-bench                      # run everything
//	redn-bench fig10                # run one experiment
//	redn-bench -json fig10 fig11    # machine-readable results
//	redn-bench -trace out.json      # trace a mixed run (Perfetto-loadable)
//	redn-bench -watch incident.json # crash a shard under the SLO sentinel and dump its incident bundle
//	redn-bench -profile out.folded  # profile a mixed run (folded stacks, flamegraph-loadable)
//	redn-bench list                 # list experiment ids
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// artifact creates path and runs write into it, timing the run on
// stderr as "<what> ... done in Ns -> path". Any error, the close's
// included, is reported under the flag's name and exits 1.
func artifact(flagName, path, what string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", flagName, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%s ...", what)
	start := time.Now()
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "\n%s: %v\n", flagName, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, " done in %.1fs -> %s\n", time.Since(start).Seconds(), path)
}

func main() {
	jsonOut := flag.Bool("json", false, "emit results as a JSON array instead of text tables")
	tracePath := flag.String("trace", "", "run a traced mixed workload and write Chrome trace-event JSON (load in Perfetto) to this path")
	watchPath := flag.String("watch", "", "run the sentinel's crash scenario and write the incident bundle it captures to this path")
	profilePath := flag.String("profile", "", "run a profiled mixed workload and write the virtual-time profile (folded stacks, flamegraph-loadable) to this path")
	flag.Parse()
	args := flag.Args()

	if *tracePath != "" {
		var st redn.ServiceStats
		artifact("trace", *tracePath, "tracing mixed workload", func(w io.Writer) (err error) {
			st, err = experiments.WriteTrace(w)
			return err
		})
		fmt.Println(experiments.UtilizationSummary(st, 5))
	}
	if *profilePath != "" {
		var p *telemetry.Profiler
		var prov *telemetry.Provenance
		var st redn.ServiceStats
		artifact("profile", *profilePath, "profiling mixed workload", func(w io.Writer) (err error) {
			p, prov, st, err = experiments.WriteProfile(w)
			return err
		})
		// The reconciliation line first (CI asserts exec-total-ns ==
		// resource-busy-ns and cross-checks the folded file's sum),
		// then the latency decomposition by op class.
		fmt.Println(experiments.ProfileSummary(p, st))
		fmt.Println(prov.Report())
	}
	if *watchPath != "" {
		var st redn.ServiceStats
		artifact("watch", *watchPath, "watching a crash under the SLO sentinel", func(w io.Writer) (err error) {
			st, err = experiments.WatchFault(w)
			return err
		})
		for _, a := range st.Anomalies {
			fmt.Printf("anomaly: %s (%s) at t=%v\n", a.Rule, a.Class, a.At)
		}
	}
	if len(args) == 0 && (*tracePath != "" || *profilePath != "" || *watchPath != "") {
		return
	}

	if len(args) == 1 && args[0] == "list" {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	// Progress goes to stderr only: stdout must stay a clean JSON blob
	// under -json (CI parses the artifact) and clean tables otherwise.
	runOne := func(id string) *experiments.Result {
		fmt.Fprintf(os.Stderr, "running %-8s ...", id)
		start := time.Now()
		r := experiments.ByID(id)
		fmt.Fprintf(os.Stderr, " done in %.1fs\n", time.Since(start).Seconds())
		return r
	}

	results := []*experiments.Result{} // non-nil: -json emits [] when empty
	ok := true
	if len(args) == 0 {
		for _, id := range experiments.IDs() {
			results = append(results, runOne(id))
		}
	} else {
		for _, id := range args {
			r := runOne(id)
			if r == nil {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try 'redn-bench list')\n", id)
				ok = false
				continue
			}
			results = append(results, r)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "encode: %v\n", err)
			os.Exit(1)
		}
	} else {
		for _, r := range results {
			r.Print(os.Stdout)
		}
	}
	if !ok {
		os.Exit(1)
	}
}
