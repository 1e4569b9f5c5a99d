package experiments

import (
	"strconv"
	"testing"
)

// The §5.4–§5.6 Memcached figures keep the paper's shape: RedN beats
// one-sided beats two-sided gets at every IO size (Fig 14), RedN's p99
// is isolated from a 16-writer set flood that inflates the two-sided
// p99 ~35x (Fig 15), and a process crash costs RedN's hull-parent
// offload nothing while vanilla Memcached loses its restart and
// rebuild (Fig 16).
func TestMemcachedFigures(t *testing.T) {
	t.Parallel()
	cell := func(r Row, i int) float64 {
		t.Helper()
		v, err := strconv.ParseFloat(r.Cells[i], 64)
		if err != nil {
			t.Fatalf("%s: cell %d: %v", r.Label, i, err)
		}
		return v
	}
	for _, row := range result("fig14").Rows {
		redn, one, two := cell(row, 0), cell(row, 1), cell(row, 2)
		if !(redn < one && one < two) {
			t.Errorf("fig14 %s: RedN %.2f, one-sided %.2f, two-sided %.2f us; want increasing", row.Label, redn, one, two)
		}
	}

	m := result("fig15").Metrics
	if f := m["isolation_factor"]; f < 35 {
		t.Errorf("fig15 isolation_factor = %.1f, want >= 35", f)
	}
	if p99 := m["redn_p99_us"]; p99 >= 10 {
		t.Errorf("fig15 redn_p99_us = %.2f, want < 10", p99)
	}

	m = result("fig16").Metrics
	if n := m["redn_down_buckets"]; n != 0 {
		t.Errorf("fig16 redn_down_buckets = %v, want 0", n)
	}
	if n := m["vanilla_down_buckets"]; n < 4 {
		t.Errorf("fig16 vanilla_down_buckets = %v, want >= 4", n)
	}
}
