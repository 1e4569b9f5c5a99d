package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// meta records where a report came from; wall-clock numbers from
// different boxes do not compare.
type meta struct {
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// workloadReport is one workload's result: the untraced end-to-end
// metrics and, with -trace 1, the traced per-layer metrics.
type workloadReport struct {
	Name        string            `json:"name"`
	Correct     bool              `json:"correct"`
	Attempted   int64             `json:"attempted"`
	Failed      int64             `json:"failed"`
	Failures    map[string]int64  `json:"failures,omitempty"`
	Fingerprint string            `json:"virt_fingerprint"`
	LatenessNs  int64             `json:"open_loop_generator_lateness_ns"` // worst, virtual; 0 on closed loops
	EndToEnd    map[string]metric `json:"end_to_end,omitempty"`
	PerLayer    map[string]metric `json:"per_layer,omitempty"`
}

type report struct {
	Meta      meta              `json:"meta"`
	Workloads []*workloadReport `json:"workloads"`
}

func (r *report) workload(name string) *workloadReport {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printTable prints every metric of one section by name and unit.
func printTable(out io.Writer, w *workloadReport, section string, defs []metricDef, vals map[string]metric) {
	fmt.Fprintf(out, "== %s  %s  fingerprint=%s  attempted=%d failed=%d  generator lateness=%dns\n",
		w.Name, section, w.Fingerprint, w.Attempted, w.Failed, w.LatenessNs)
	for _, d := range defs {
		v := vals[d.Name]
		note := ""
		if v.N > 0 {
			note = fmt.Sprintf("  n=%d", v.N)
		}
		if v.LowN {
			note += "  (fewer than 10 samples beyond this percentile)"
		}
		if v.Spread > 0 {
			note += fmt.Sprintf("  spread of the median ~%.2f%%", v.Spread*100)
		}
		fmt.Fprintf(out, "%-40s %16.4f %-6s%s\n", d.Name, v.Value, v.Unit, note)
	}
	whys := make([]string, 0, len(w.Failures))
	for why := range w.Failures {
		whys = append(whys, why)
	}
	sort.Strings(whys)
	for _, why := range whys {
		fmt.Fprintf(out, "FAILED %-33s %16d\n", why, w.Failures[why])
	}
}

// resultLine is the machine-readable last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResultLine(out io.Writer, w *workloadReport, vals map[string]metric) error {
	// Only value and unit: the driver's contract for this line.
	slim := make(map[string]metric, len(vals))
	for n, v := range vals {
		slim[n] = metric{Value: v.Value, Unit: v.Unit}
	}
	b, err := json.Marshal(resultLine{Correct: w.Correct, Attempted: w.Attempted, Failed: w.Failed, Metrics: slim})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
