package experiments

import (
	"bytes"
	"testing"
)

// The microbenchmark experiments double as regression tests: their
// headline metrics must stay near the paper's values (tolerances are
// generous — the shape matters, not the digit).

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if got < want*(1-tol) || got > want*(1+tol) {
		t.Errorf("%s = %.3f, want %.3f +-%.0f%%", name, got, want, tol*100)
	}
}

func TestFig7Calibration(t *testing.T) {
	t.Parallel()
	r := Fig7()
	within(t, "NOOP", r.Metrics["NOOP"], 1.21, 0.15)
	within(t, "WRITE", r.Metrics["WRITE"], 1.6, 0.15)
	within(t, "READ", r.Metrics["READ"], 1.8, 0.15)
	within(t, "CAS", r.Metrics["CAS"], 1.8, 0.15)
}

func TestFig8Slopes(t *testing.T) {
	t.Parallel()
	r := Fig8()
	within(t, "wq slope", r.Metrics["slope_wq"], 0.17, 0.2)
	within(t, "completion slope", r.Metrics["slope_completion"], 0.19, 0.25)
	within(t, "doorbell slope", r.Metrics["slope_doorbell"], 0.54, 0.25)
	// Ordering strictness costs latency: wq < completion < doorbell.
	if !(r.Metrics["slope_wq"] < r.Metrics["slope_completion"] &&
		r.Metrics["slope_completion"] < r.Metrics["slope_doorbell"]) {
		t.Error("ordering-mode slopes not monotone")
	}
}

func TestTable1Scaling(t *testing.T) {
	t.Parallel()
	r := Table1()
	within(t, "CX-3", r.Metrics["ConnectX-3"], 15e6, 0.2)
	within(t, "CX-5", r.Metrics["ConnectX-5"], 63e6, 0.2)
	within(t, "CX-6", r.Metrics["ConnectX-6"], 112e6, 0.25)
}

func TestTable3Throughput(t *testing.T) {
	t.Parallel()
	r := Table3()
	within(t, "CAS", r.Metrics["CAS"], 8.4e6, 0.2)
	within(t, "WRITE", r.Metrics["WRITE"], 63e6, 0.2)
	within(t, "MAX", r.Metrics["MAX"], 63e6, 0.2)
	// Constructs are doorbell-ordered: orders of magnitude below copy
	// verbs, with recycling slower still.
	if r.Metrics["if"] > 3e6 {
		t.Errorf("if construct too fast: %.0f", r.Metrics["if"])
	}
	if r.Metrics["while_recycled"] >= r.Metrics["if"] {
		t.Error("recycled while should be slower than unrolled if")
	}
	within(t, "recycled", r.Metrics["while_recycled"], 0.3e6, 0.35)
}

func TestTable5Median(t *testing.T) {
	t.Parallel()
	r := Table5()
	within(t, "64B median", r.Metrics["median_64B_us"], 5.7, 0.25)
	within(t, "4KB median", r.Metrics["median_4096B_us"], 6.7, 0.25)
}

func TestResultPrinting(t *testing.T) {
	t.Parallel()
	r := Table2()
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 || !bytes.Contains(buf.Bytes(), []byte("table2")) {
		t.Fatal("print output malformed")
	}
}

func TestByIDAndIDs(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"table2", "TABLE2", "fig8"} {
		if ByID(id) == nil {
			t.Fatalf("ByID(%q) = nil", id)
		}
	}
	if ByID("fig99") != nil {
		t.Fatal("unknown id accepted")
	}
	if len(IDs()) != 23 {
		t.Fatalf("IDs() = %d entries, want 23 (every table and figure, plus scaleout, hotkey, failover, mixed, churn, repair, overload, resharding, sentinel)", len(IDs()))
	}
	for _, id := range IDs() {
		if id == "fig16" || id == "fig15" || id == "fig14" || id == "fig13" ||
			id == "fig10" || id == "fig11" || id == "table4" || id == "scaleout" ||
			id == "hotkey" || id == "failover" || id == "churn" || id == "repair" ||
			id == "overload" || id == "resharding" || id == "sentinel" {
			continue // heavy: exercised by the benchmarks
		}
		if r := ByID(id); r == nil || len(r.Rows) == 0 {
			t.Fatalf("experiment %s produced no rows", id)
		}
	}
}
