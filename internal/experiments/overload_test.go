package experiments

import "testing"

// The overload acceptance gate: under open-loop offered load swept to
// 10x capacity, AIMD windows on 256-deep pipelines hold goodput within
// 10% of the sweep's peak at every point with hit p999 bounded — and
// the congestion machinery (ECN marks, window cuts) actually engaged
// and held the NIC backlog down.
func TestOverloadGate(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("overload sweep run")
	}
	r := overloadRun(3000)

	// The headline claim: goodput >= 90% of its own peak at
	// every offered multiple from 2x to 10x capacity.
	if f := r.Metrics["overload_adapt_min_frac"]; f < 0.9 {
		t.Fatalf("adaptive goodput dropped to %.2fx of peak under overload, want >= 0.9", f)
	}
	// Hit p999 stays bounded: stamped at issue, a hit is at worst one
	// timed-out attempt plus one clean retry.
	if p := r.Metrics["overload_adapt_p999_max_us"]; p <= 0 || p > 400 {
		t.Fatalf("adaptive hit p999 %.1fus under overload, want (0, 400]", p)
	}
	// The control loop really ran on the ECN signal, not just timeouts.
	if r.Metrics["overload_window_cuts_10x"] == 0 {
		t.Fatal("no AIMD window cuts at 10x offered load")
	}
	if r.Metrics["overload_ecn_cuts_10x"] == 0 {
		t.Fatal("no ECN-marked cuts at 10x offered load — the backlog watermark never tripped")
	}
	// AIMD is the only overload control, so it alone must hold the
	// NIC's PU backlog near the 25us ECN mark and well under the 200us
	// miss timeout.
	if b := r.Metrics["overload_peak_backlog_10x_us"]; b <= 0 || b > 50 {
		t.Fatalf("peak NIC backlog %.1fus at 10x offered load, want (0, 50]", b)
	}
	// The window's decrease engaged: the summed get window fell by at
	// least a tenth between two samples. Goodput alone cannot show it:
	// with the decrease removed (beta 1) the additive increase from 16
	// still holds goodput, but the window only ever grows.
	if d := r.Metrics["overload_window_drop_10x"]; d < 0.1 {
		t.Fatalf("summed get window fell by at most %.2f between samples at 10x offered load, want >= 0.1", d)
	}
	// The window actually converged below the pipeline depth.
	if w := r.Metrics["overload_peak_window_10x"]; w <= 0 || w >= 4*overloadDepth {
		t.Fatalf("peak summed window %.0f implausible for 4 connections of depth %d", w, overloadDepth)
	}
}
