package experiments

import "testing"

// The churn acceptance gate: the arena bounds server memory under
// sustained overwrite+delete load where the pre-lifecycle allocator
// grows without bound, deletes are fabric-real, and the lifecycle
// machinery costs the mixed workload almost nothing.
func TestChurnGate(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("churn timeline run")
	}
	r := churnRun(9000)

	// Arena footprint bounded: at most 2x the working set (peak live
	// bytes), no matter how much was written and deleted.
	if fr := r.Metrics["churn_footprint_ratio"]; fr <= 0 || fr > 2 {
		t.Fatalf("arena footprint %.2fx live bytes, want (0, 2]", fr)
	}
	// The leak-forever baseline demonstrably does NOT bound it: the
	// same run busts the 2x bound (its footprint tracks cumulative
	// writes — linear in run length — not the working set) and clearly
	// exceeds the arena's ratio.
	lr := r.Metrics["leak_footprint_ratio"]
	if lr <= 2 {
		t.Fatalf("leak baseline ratio %.2fx still within the 2x bound — run too short to demonstrate the leak", lr)
	}
	if lr < r.Metrics["churn_footprint_ratio"]+0.5 {
		t.Fatalf("leak baseline ratio %.2fx vs arena %.2fx — no meaningful separation",
			lr, r.Metrics["churn_footprint_ratio"])
	}
	// Deletes are fabric operations with real latency, inside the same
	// plausible window as sets (well under the 200us miss timeout).
	if p50 := r.Metrics["churn_del_p50_us"]; p50 < 1 || p50 > 180 {
		t.Fatalf("delete p50 %.3fus outside the plausible fabric window", p50)
	}
	if fd := r.Metrics["fabric_deletes"]; fd == 0 {
		t.Fatal("no delete traveled the NIC tombstone chain")
	}
	if de := r.Metrics["churn_del_errs"]; de != 0 {
		t.Fatalf("%.0f deletes failed their quorum on a healthy cluster", de)
	}
	// The lifecycle machinery must not tax the mix: gets and total
	// operation rate within 1% of the leak-forever run on the identical
	// op stream (reclamation and compaction are the only difference),
	// and set latency not inflated against the delete-free baseline.
	if gr := r.Metrics["lifecycle_get_ratio"]; gr < 0.99 {
		t.Fatalf("churn gets at %.4fx the leak-forever run, want >= 0.99", gr)
	}
	if or := r.Metrics["lifecycle_ops_ratio"]; or < 0.99 {
		t.Fatalf("churn total ops at %.4fx the leak-forever run, want >= 0.99", or)
	}
	if pr := r.Metrics["churn_set_p50_ratio"]; pr > 1.25 {
		t.Fatalf("churn set p50 %.2fx the delete-free baseline, want <= 1.25", pr)
	}
	// Compaction and the to-free ring both actually ran.
	if r.Metrics["compact_moves"] == 0 {
		t.Fatal("compaction never relocated an extent")
	}
	if r.Metrics["gc_freed"] == 0 {
		t.Fatal("the to-free ring never returned an extent")
	}
}
