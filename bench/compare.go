package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// movedShown is how many per-layer metrics -compare lists per workload.
const movedShown = 10

// verdict classifies B against A for one end-to-end metric. worsening is
// the change in the bad direction as a share of A. A metric whose
// recorded segment spread exceeds its bound cannot tell "same" from
// "moved", so it is unresolved rather than same. exact marks a
// virtual-time metric of two runs with the same seed and length: it
// repeats to the last digit, its bound (which is for the driver's runs
// across seeds) does not apply, and any difference is "moved" — for the
// PR to explain, whichever way it went.
func verdict(d metricDef, a, b metric, exact bool) (v string, worsening float64) {
	worsening = (b.Value - a.Value) / math.Abs(a.Value)
	if d.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case exact:
		if a.Value != b.Value {
			return "moved", worsening
		}
		return "same", 0
	case math.IsNaN(worsening) || math.IsInf(worsening, 0):
		return "unresolved", worsening
	case math.Max(a.Spread, b.Spread) > d.Bound:
		return "unresolved", worsening
	case worsening > d.Bound:
		return "worse", worsening
	case worsening < -d.Bound:
		return "better", worsening
	}
	return "same", worsening
}

// compareReports prints B against A: one row per (workload, end-to-end
// metric) with both values, the ratio and its base, the bound and a
// verdict; whether virtual time moved; and the per-layer metrics that
// moved most. It reports whether B differs in a way a PR must answer
// for: a row is worse, a run was incorrect, or — same seed, same length
// — virtual time moved.
func compareReports(out io.Writer, pathA, pathB string) (differ bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "A = %s (%s, %d procs, seed %d, %g s)\nB = %s (%s, %d procs, seed %d, %g s)\n",
		pathA, a.Meta.GoVersion, a.Meta.GOMAXPROCS, a.Meta.Seed, a.Meta.Seconds,
		pathB, b.Meta.GoVersion, b.Meta.GOMAXPROCS, b.Meta.Seed, b.Meta.Seconds)
	sameInputs := a.Meta.Seed == b.Meta.Seed && a.Meta.Seconds == b.Meta.Seconds
	if !sameInputs {
		fmt.Fprintln(out, "WARNING: seed or run length differ; virtual-time numbers are not expected to match and are held to their cross-seed bounds only")
	}
	fmt.Fprintf(out, "%-16s %-20s %14s %14s %16s %8s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			fmt.Fprintf(out, "%-16s missing from B\n", wa.Name)
			continue
		}
		for _, d := range endToEnd {
			ma, okA := wa.EndToEnd[d.Name]
			mb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			exact := sameInputs && strings.HasPrefix(d.Name, "virt_")
			v, _ := verdict(d, ma, mb, exact)
			differ = differ || v == "worse" || v == "moved"
			bound := fmt.Sprintf("%.2f%%", d.Bound*100)
			if exact {
				bound = "exact"
			}
			fmt.Fprintf(out, "%-16s %-20s %14.4f %14.4f %9.4f x A    %8s  %s\n",
				wa.Name, d.Name, ma.Value, mb.Value, mb.Value/ma.Value, bound, v)
		}
		switch {
		case wa.Fingerprint == wb.Fingerprint:
			fmt.Fprintf(out, "%-16s virt_fingerprint matched (%s)\n", wa.Name, wa.Fingerprint)
		case sameInputs:
			fmt.Fprintf(out, "%-16s VIRTUAL TIME MOVED: virt_fingerprint %s -> %s\n", wa.Name, wa.Fingerprint, wb.Fingerprint)
			differ = true
		default:
			fmt.Fprintf(out, "%-16s virt_fingerprint %s -> %s (different inputs)\n", wa.Name, wa.Fingerprint, wb.Fingerprint)
		}
		if !wa.Correct || !wb.Correct {
			fmt.Fprintf(out, "%-16s INCORRECT RUN: A correct=%v, B correct=%v\n", wa.Name, wa.Correct, wb.Correct)
			differ = true
		}

		type moved struct {
			name string
			a, b float64
			rel  float64
		}
		var ms []moved
		for _, name := range sortedNames(wa.PerLayer) {
			mb, ok := wb.PerLayer[name]
			if !ok {
				continue
			}
			va, vb := wa.PerLayer[name].Value, mb.Value
			if va == vb {
				continue
			}
			// Relative change, except that shares and ratios below 5 % are
			// scored against 5 %: a share going from 0.0003 to 0.0006 is
			// one profile sample, not a doubling.
			floor := 0.0
			if wa.PerLayer[name].Unit == "ratio" {
				floor = 0.05
			}
			ms = append(ms, moved{name, va, vb, math.Abs(vb-va) / math.Max(floor, math.Max(math.Abs(va), math.Abs(vb)))})
		}
		sort.SliceStable(ms, func(i, j int) bool { return ms[i].rel > ms[j].rel })
		for i, mv := range ms {
			if i == movedShown {
				break
			}
			fmt.Fprintf(out, "%-16s moved  %-36s %14.4f -> %14.4f\n", wa.Name, mv.name, mv.a, mv.b)
		}
	}
	return differ, nil
}
