package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// hostCost is what the Go runtime spent between two marks.
type hostCost struct {
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  uint64 // ns
}

func readHostCost() hostCost {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return hostCost{mallocs: m.Mallocs, bytes: m.TotalAlloc, gcCycles: m.NumGC, gcPause: m.PauseTotalNs}
}

func (a hostCost) since(b hostCost) hostCost {
	return hostCost{mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes,
		gcCycles: a.gcCycles - b.gcCycles, gcPause: a.gcPause - b.gcPause}
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// high-water mark, so that a workload run after another in one process
// (-workload all) reports its own peak, not its predecessor's.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// Best effort: where the kernel refuses, peak_rss_mb of a later
	// workload in the same process includes the earlier ones'.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is (Q3-Q1)/median, the run-to-run spread measure the
// bounds are stated against; 0 with fewer than four values.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 { // exclusive method, as statistics.quantiles
		pos := p * float64(len(s)+1)
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return (q(0.75) - q(0.25)) / median(s)
}

// percentile returns the exact p-th percentile (nearest rank) of sorted
// virtual-time samples, and whether at least ten samples lie beyond it —
// fewer and the figure is one outlier's latency, not a percentile.
func percentile(sorted []int64, p float64) (v int64, resolved bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 99.9 is not exact in binary
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= 10
}
