package experiments

import (
	"bytes"
	"errors"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// result runs each experiment at most once per test binary, however
// many tests read it.
var result = func() func(id string) *Result {
	runs := make(map[string]func() *Result)
	for _, id := range IDs() {
		runs[id] = sync.OnceValue(func() *Result { return ByID(id) })
	}
	return func(id string) *Result { return runs[id]() }
}()

// calRow is one number of EXPERIMENTS.md's calibration table: the
// experiment metric the doc prints, and the paper value the run must
// stay within tol of (the shape matters, not the digit).
type calRow struct {
	doc    string  // the doc row: "Experiment | Quantity"
	at     int     // which number of the row's Measured and Note cells prints metric
	id     string  // experiment id
	metric string  // key into Result.Metrics
	unit   float64 // metric units per doc unit: 1e6 for M/s, else 1
	paper  float64 // the paper's value in metric units; 0 when the paper gives none
	tol    float64 // relative tolerance around paper; 0 when not asserted, and why says so
	why    string
}

// calibration is EXPERIMENTS.md's calibration table, row for row.
var calibration = []calRow{
	{"Table 1 | WR rate, ConnectX-3", 0, "table1", "ConnectX-3", 1e6, 15e6, 0.2, ""},
	{"Table 1 | WR rate, ConnectX-5", 0, "table1", "ConnectX-5", 1e6, 63e6, 0.2, ""},
	{"Table 1 | WR rate, ConnectX-6", 0, "table1", "ConnectX-6", 1e6, 112e6, 0.25, ""},
	{"Fig 7 | NOOP latency", 0, "fig7", "NOOP", 1, 1.2, 0.15, ""},
	{"Fig 7 | WRITE latency", 0, "fig7", "WRITE", 1, 1.6, 0.15, ""},
	{"Fig 7 | READ / CAS latency", 0, "fig7", "READ", 1, 1.8, 0.15, ""},
	{"Fig 7 | READ / CAS latency", 1, "fig7", "CAS", 1, 1.8, 0.15, ""},
	{"Fig 8 | NOOP chain slope, WQ / completion / doorbell order", 0, "fig8", "slope_wq", 1, 0.17, 0.2, ""},
	{"Fig 8 | NOOP chain slope, WQ / completion / doorbell order", 1, "fig8", "slope_completion", 1, 0.19, 0.25, ""},
	{"Fig 8 | NOOP chain slope, WQ / completion / doorbell order", 2, "fig8", "slope_doorbell", 1, 0.54, 0.25, ""},
	{"Table 3 | CAS throughput", 0, "table3", "CAS", 1e6, 8.4e6, 0.2, ""},
	{"Table 3 | WRITE / MAX throughput", 0, "table3", "WRITE", 1e6, 63e6, 0.2, ""},
	{"Table 3 | WRITE / MAX throughput", 0, "table3", "MAX", 1e6, 63e6, 0.2, ""},
	{"Table 3 | `if` construct", 0, "table3", "if", 1e6, 0.8e6, 0,
		"shape only: the doc quotes ~0.8 M/s and the experiment's paper column 0.7 M/s; TestTable3Throughput asserts it doorbell-bound and above the recycled while"},
	{"Table 3 | recycled `while`", 0, "table3", "while_recycled", 1e6, 0.3e6, 0.35, ""},
	{"Fig 10 | RedN 64B get", 0, "fig10", "redn_64B_us", 1, 5, 0.25, ""},
	{"Fig 10 | RedN 64B get", 1, "fig10", "twosided_poll_64B_us", 1, 0, 0,
		"the baseline the Note compares against; TestCalibrationTable asserts RedN's get beats it"},
	{"Fig 11 | collision probing 64B", 0, "fig11", "seq_64B_us", 1, 0, 0,
		"shape only, as in the paper: TestCalibrationTable asserts seq > par"},
	{"Fig 11 | collision probing 64B", 1, "fig11", "par_64B_us", 1, 0, 0,
		"shape only, as in the paper: TestCalibrationTable asserts seq > par"},
	{"Table 5 | get median 64B / 4KB", 0, "table5", "median_64B_us", 1, 5.7, 0.25,
		"low by 10 %: Table 5 times the same single-bucket 64B get chain as Fig 10 (5.11 µs both), calibrated to Fig 10's ~5 µs; the model has one get latency where the paper's two measurements differ"},
	{"Table 5 | get median 64B / 4KB", 1, "table5", "median_4096B_us", 1, 6.7, 0.25, ""},
	{"Fig 15 | p99 under 16 writers", 0, "fig15", "isolation_factor", 1, 35, 0,
		"outlier: the two-sided tail is host.CPU's oversubscription model (a 3 µs context switch plus exponential jitter whose mean grows to 17x that with the backlog of 16 zero-think-time writers on 4 worker cores), which nothing calibrates against the paper's kernel; TestMemcachedFigures asserts >= 35x"},
	{"Fig 15 | p99 under 16 writers", 1, "fig15", "redn_p99_us", 1, 0, 0,
		"the factor's numerator; TestMemcachedFigures asserts < 10 µs"},
	{"Fig 15 | p99 under 16 writers", 2, "fig15", "twosided_p99_us", 1, 0, 0,
		"the factor's denominator"},
	{"Fig 16 | crash outage", 0, "fig16", "redn_down_buckets", 1, 0, 0,
		"shape, counted in 500 ms buckets: TestMemcachedFigures asserts 0 for RedN"},
	{"Fig 16 | crash outage", 1, "fig16", "vanilla_down_buckets", 1, 0, 0,
		"shape, counted in 500 ms buckets: TestMemcachedFigures asserts >= 4 for vanilla"},
}

// docTable reads EXPERIMENTS.md's calibration table: each row's Paper
// cell and its Measured and Note cells, keyed "Experiment | Quantity".
var docTable = sync.OnceValues(func() (map[string][2]string, error) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		return nil, err
	}
	_, sec, ok := strings.Cut(string(raw), "## Calibration: the paper's evaluation\n")
	if !ok {
		return nil, errors.New("EXPERIMENTS.md has no calibration section")
	}
	rows := make(map[string][2]string)
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 {
				break
			}
			continue
		}
		c := strings.Split(strings.Trim(line, "|"), "|")
		for i := range c {
			c[i] = strings.TrimSpace(c[i])
		}
		if len(c) != 5 || c[0] == "Experiment" || strings.HasPrefix(c[0], "---") {
			continue
		}
		rows[c[0]+" | "+c[1]] = [2]string{c[2], c[3] + " " + c[4]}
	}
	return rows, nil
})

// docNumber matches a number that does not continue a word ("p99").
var docNumber = regexp.MustCompile(`(?:^|[^\w.])(\d+(?:\.\d+)?)`)

func numbers(cell string) []string {
	var ns []string
	for _, m := range docNumber.FindAllStringSubmatch(cell, -1) {
		ns = append(ns, m[1])
	}
	return ns
}

// calibrate checks every calibration row of the given experiments: the
// run stays within tolerance of the paper, the doc's Paper cell quotes
// that paper value, and its Measured or Note cell prints the run at the
// precision it shows.
func calibrate(t *testing.T, ids ...string) {
	t.Helper()
	doc, err := docTable()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		r := result(id)
		if len(r.Rows) == 0 {
			t.Errorf("experiment %s produced no rows", id)
		}
		for _, c := range calibration {
			if c.id != id {
				continue
			}
			got, ok := r.Metrics[c.metric]
			if !ok {
				t.Errorf("%s: %s has no metric %q", c.doc, id, c.metric)
				continue
			}
			if c.tol > 0 && (got < c.paper*(1-c.tol) || got > c.paper*(1+c.tol)) {
				t.Errorf("%s: %s = %.3f, want the paper's %g +-%.0f%%", c.doc, c.metric, got, c.paper, c.tol*100)
			}
			cells, ok := doc[c.doc]
			if !ok {
				t.Errorf("EXPERIMENTS.md has no calibration row %q", c.doc)
				continue
			}
			if c.paper != 0 && !slices.ContainsFunc(numbers(cells[0]), func(n string) bool {
				v, _ := strconv.ParseFloat(n, 64)
				return math.Abs(v*c.unit-c.paper) <= 1e-9*c.paper
			}) {
				t.Errorf("%s: Paper cell %q does not quote %g", c.doc, cells[0], c.paper/c.unit)
			}
			printed := numbers(cells[1])
			if c.at >= len(printed) {
				t.Errorf("%s: %q has no number %d for %s", c.doc, cells[1], c.at, c.metric)
				continue
			}
			want := printed[c.at]
			_, frac, _ := strings.Cut(want, ".")
			if run := strconv.FormatFloat(got/c.unit, 'f', len(frac), 64); run != want {
				t.Errorf("%s: EXPERIMENTS.md prints %s as %s, the run gives %s", c.doc, c.metric, want, run)
			}
		}
	}
}

func TestFig7Calibration(t *testing.T) {
	t.Parallel()
	calibrate(t, "fig7")
}

func TestFig8Slopes(t *testing.T) {
	t.Parallel()
	calibrate(t, "fig8")
	m := result("fig8").Metrics
	// Ordering strictness costs latency: wq < completion < doorbell.
	if !(m["slope_wq"] < m["slope_completion"] && m["slope_completion"] < m["slope_doorbell"]) {
		t.Error("ordering-mode slopes not monotone")
	}
}

func TestTable1Scaling(t *testing.T) {
	t.Parallel()
	calibrate(t, "table1")
}

func TestTable3Throughput(t *testing.T) {
	t.Parallel()
	calibrate(t, "table3")
	m := result("table3").Metrics
	// Constructs are doorbell-ordered: orders of magnitude below copy
	// verbs, with recycling slower still.
	if m["if"] > 3e6 {
		t.Errorf("if construct too fast: %.0f", m["if"])
	}
	if m["while_recycled"] >= m["if"] {
		t.Error("recycled while should be slower than unrolled if")
	}
}

func TestTable5Median(t *testing.T) {
	t.Parallel()
	calibrate(t, "table5")
}

// TestCalibrationTable checks that every row of EXPERIMENTS.md's
// calibration table is in calibration, and the rows of the experiments
// no floor test above calibrates.
func TestCalibrationTable(t *testing.T) {
	t.Parallel()
	doc, err := docTable()
	if err != nil {
		t.Fatal(err)
	}
	for key := range doc {
		if !slices.ContainsFunc(calibration, func(c calRow) bool { return c.doc == key }) {
			t.Errorf("EXPERIMENTS.md calibration row %q is not in calibration", key)
		}
	}
	for _, c := range calibration {
		if c.tol == 0 && c.why == "" {
			t.Errorf("%s: %s asserts no tolerance and says not why", c.doc, c.metric)
		}
	}
	calibrate(t, "fig10", "fig11", "fig15", "fig16")
	if m := result("fig10").Metrics; m["redn_64B_us"] >= m["twosided_poll_64B_us"] {
		t.Errorf("fig10: RedN 64B get %.2f us, two-sided(poll) %.2f us; want RedN faster",
			m["redn_64B_us"], m["twosided_poll_64B_us"])
	}
	if m := result("fig11").Metrics; m["seq_64B_us"] <= m["par_64B_us"] {
		t.Errorf("fig11: seq %.2f us, par %.2f us; want seq > par", m["seq_64B_us"], m["par_64B_us"])
	}
}

func TestResultPrinting(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"table2", "table6"} {
		var buf bytes.Buffer
		r := result(id)
		r.Print(&buf)
		if len(r.Rows) == 0 || !bytes.Contains(buf.Bytes(), []byte("== "+id+": ")) {
			t.Fatalf("%s: print output malformed:\n%s", id, buf.Bytes())
		}
	}
}

func TestByIDAndIDs(t *testing.T) {
	t.Parallel()
	want := []string{"table1", "table2", "table3", "table4", "table5", "table6",
		"fig7", "fig8", "fig10", "fig11", "fig13", "fig14", "fig15", "fig16",
		"failover", "mixed", "churn", "repair", "overload", "resharding", "sentinel"}
	if got := IDs(); !slices.Equal(got, want) {
		t.Fatalf("IDs() = %q, want the %d ids %q", got, len(want), want)
	}
	if r := ByID("TABLE2"); r == nil || r.ID != "table2" {
		t.Fatal(`ByID("TABLE2") is not table2`)
	}
	if ByID("fig99") != nil {
		t.Fatal("unknown id accepted")
	}
}
