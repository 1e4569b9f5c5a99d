package experiments

import "testing"

// The overload acceptance gate: under open-loop offered load swept to
// 10x capacity, AIMD windows + admission hold goodput within 10% of
// the sweep's peak at every point with hit p999 bounded, while the
// fixed-K client demonstrably collapses — and the congestion machinery
// (ECN marks, window cuts, admission sheds) actually engaged.
func TestOverloadGate(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("overload sweep run")
	}
	r := overloadRun(3000)

	// The tentpole claim: adaptive goodput >= 90% of its own peak at
	// every offered multiple from 2x to 10x capacity.
	if f := r.Metrics["overload_adapt_min_frac"]; f < 0.9 {
		t.Fatalf("adaptive goodput dropped to %.2fx of peak under overload, want >= 0.9", f)
	}
	// The counterfactual: the fixed-K pipeline falls below that bar —
	// past the knee its completions land after the miss timeout.
	if f := r.Metrics["overload_fixed_min_frac"]; f >= 0.9 {
		t.Fatalf("fixed-K goodput held %.2fx of peak — no congestion collapse to defend against", f)
	}
	if a, f := r.Metrics["overload_adapt_min_frac"], r.Metrics["overload_fixed_min_frac"]; a < f+0.5 {
		t.Fatalf("adaptive %.2fx vs fixed-K %.2fx of peak — no meaningful separation", a, f)
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
	// Admission stayed out of the adaptive path (AIMD holds the backlog
	// under the admission threshold) but demonstrably sheds when the
	// client offers no backoff.
	if r.Metrics["overload_admit_shed_gets_10x"] == 0 {
		t.Fatal("admission never shed a get under a pinned 10x overload")
	}
	// The window actually converged below the pinned depth.
	if w := r.Metrics["overload_peak_window_10x"]; w <= 0 || w >= 4*overloadFixedK {
		t.Fatalf("peak summed window %.0f implausible for 4 connections of depth %d", w, overloadFixedK)
	}
}
