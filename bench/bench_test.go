package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// smokeSeconds sizes every run of these tests at a hundredth of the table.
const smokeSeconds = runSeconds * 0.01

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON mirrors the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the tables the
// program emits from: same workloads, same metric names, units,
// directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the workload table is sized for %d", bj.RunSeconds, runSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, table has %q", i, bj.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the table", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := bj.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, table has %+v", i, got, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the table", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		if got := bj.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, got, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside the contract's alphabet", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func checkEmitted(t *testing.T, what string, defs []metricDef, vals map[string]metric) {
	t.Helper()
	if len(vals) != len(defs) {
		t.Errorf("%s: %d metrics emitted, table has %d", what, len(vals), len(defs))
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", what, d.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s = %v, want a finite number", what, d.Name, v.Value)
		case v.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, table says %q", what, d.Name, v.Unit, d.Unit)
		}
	}
}

// TestSmoke runs every workload untraced, and the ladder and one
// workload traced, at smoke size: every metric is emitted and finite, no
// op fails, and the result line has the contract's shape.
func TestSmoke(t *testing.T) {
	t.Chdir(t.TempDir()) // the traced run writes trace_<workload>.json
	plain := map[string]*passResult{}
	reports := map[string]*workloadReport{}
	for _, full := range workloads {
		w := full.sized(smokeSeconds)
		wr := &workloadReport{Name: w.Name, Correct: true}
		p, err := runUntraced(&w, 1, 1, wr)
		if err != nil {
			t.Fatal(err)
		}
		plain[w.Name], reports[w.Name] = p, wr
		if !wr.Correct || wr.Failed != 0 || wr.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", w.Name, wr.Correct, wr.Attempted, wr.Failed, wr.Failures)
		}
		checkEmitted(t, w.Name, endToEnd, wr.EndToEnd)
		for _, d := range endToEnd {
			if wr.EndToEnd[d.Name].Value == 0 {
				t.Errorf("%s: %s is 0; end-to-end metrics must never be", w.Name, d.Name)
			}
		}

		var line bytes.Buffer
		if err := printResultLine(&line, wr, wr.EndToEnd); err != nil {
			t.Fatal(err)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(line.Bytes(), &got); err != nil {
			t.Fatalf("%s: result line is not JSON: %v", w.Name, err)
		}
		for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := got[key]; !ok {
				t.Errorf("%s: result line lacks %q", w.Name, key)
			}
		}
		if len(got) != 4 {
			t.Errorf("%s: result line has %d keys, want exactly 4", w.Name, len(got))
		}
	}

	w := findWorkload("crash_openloop").sized(smokeSeconds)
	wr := reports[w.Name]
	ladder := runLadder(smokeSeconds)
	if err := runTraced(&w, 1, plain[w.Name], ladder, "", wr); err != nil {
		t.Fatal(err)
	}
	if !wr.Correct {
		t.Errorf("%s traced: %v", w.Name, wr.Failures)
	}
	checkEmitted(t, w.Name+" traced", perLayer, wr.PerLayer)
	sum := wr.PerLayer["runtime.gc_cpu_share"].Value
	for _, l := range layers {
		sum += wr.PerLayer[l+".cpu_share"].Value
	}
	if wr.PerLayer["sim.cpu_share"].Value > 0 && math.Abs(sum-1) > 0.02 {
		t.Errorf("layer cpu shares plus the runtime's sum to %.3f, want 1", sum)
	}
	if wr.PerLayer["service.hints_applied"].Value == 0 || wr.PerLayer["service.retries_per_op"].Value == 0 {
		t.Errorf("crash workload exercised no failover: hints_applied=%v retries_per_op=%v",
			wr.PerLayer["service.hints_applied"].Value, wr.PerLayer["service.retries_per_op"].Value)
	}
	checkTrace(t, "trace_"+w.Name+".json")
}

// checkTrace verifies the Chrome trace is well formed and its spans
// nest: every span lies inside its parent.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
			Args struct{ ID, Parent int }
		}
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	const slack = 0.002 // microseconds: timestamps are printed to the nanosecond
	for i, e := range tf.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 || e.Args.ID != i || e.Args.Parent >= i {
			t.Fatalf("%s: span %d malformed: %+v", path, i, e)
		}
		if e.Args.Parent < 0 {
			continue
		}
		p := tf.TraceEvents[e.Args.Parent]
		if e.Ts < p.Ts-slack || e.Ts+e.Dur > p.Ts+p.Dur+slack {
			t.Fatalf("%s: span %d (%s) escapes its parent %d (%s)", path, i, e.Name, e.Args.Parent, p.Name)
		}
	}
}

// TestSeedDeterminism: the same seed replays the same virtual history
// (and nearly the same allocations); another seed does not.
func TestSeedDeterminism(t *testing.T) {
	w := findWorkload("quorum_write").sized(smokeSeconds)
	run := func(seed int64) *passResult {
		p, err := freshPass(&w, seed, false, passOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if p.failed != 0 {
			t.Fatalf("seed %d: %v", seed, p.failures)
		}
		return p
	}
	a, b, c := run(1), run(1), run(2)
	if a.fingerprint != b.fingerprint || a.events != b.events {
		t.Errorf("seed 1 twice: fingerprints %016x / %016x, events %d / %d", a.fingerprint, b.fingerprint, a.events, b.events)
	}
	if rel := math.Abs(float64(a.host.mallocs)-float64(b.host.mallocs)) / float64(a.host.mallocs); rel > 0.01 {
		t.Errorf("seed 1 twice: allocations differ by %.2f%%", rel*100)
	}
	if a.fingerprint == c.fingerprint {
		t.Errorf("seeds 1 and 2 share fingerprint %016x", a.fingerprint)
	}
}

func TestValueOracle(t *testing.T) {
	buf := make([]byte, valLen)
	encodeValue(buf, 0xABCDEF, 7)
	if ver, ok := decodeValue(buf, 0xABCDEF); !ok || ver != 7 {
		t.Fatalf("round trip: ver=%d ok=%v", ver, ok)
	}
	if _, ok := decodeValue(buf, 0xABCDEE); ok {
		t.Error("value accepted for the wrong key")
	}
	buf[valLen-1] ^= 1
	if _, ok := decodeValue(buf, 0xABCDEF); ok {
		t.Error("corrupted tail byte accepted")
	}
	if _, ok := decodeValue(buf[:valLen-1], 0xABCDEF); ok {
		t.Error("short value accepted")
	}
}

func TestPercentile(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p        float64
		want     int64
		resolved bool
	}{{50, 500, true}, {99, 990, true}, {99.9, 999, false}} {
		if got, res := percentile(s, c.p); got != c.want || res != c.resolved {
			t.Errorf("p%v = %d resolved=%v, want %d %v", c.p, got, res, c.want, c.resolved)
		}
	}
	if q := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(q-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("quartileSpread = %v", q) // statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25]
	}
}

func TestCompareVerdicts(t *testing.T) {
	wall := metricDef{Name: "wall_ops_per_s", Better: "higher", Bound: 0.10} // the cases below assume these bounds, not the table's
	lat := metricDef{Name: "virt_get_mean_us", Better: "lower", Bound: 0.03}
	for _, c := range []struct {
		d     metricDef
		a, b  metric
		exact bool
		want  string
	}{
		{wall, metric{Value: 100}, metric{Value: 95}, false, "same"},
		{wall, metric{Value: 100}, metric{Value: 85}, false, "worse"},
		{wall, metric{Value: 100}, metric{Value: 120}, false, "better"},
		{wall, metric{Value: 100, Spread: 0.2}, metric{Value: 85}, false, "unresolved"},
		{lat, metric{Value: 10}, metric{Value: 10.5}, false, "worse"},
		{lat, metric{Value: 10}, metric{Value: 9}, false, "better"},
		{lat, metric{Value: 10}, metric{Value: 10.2}, false, "same"},
		{lat, metric{Value: 10}, metric{Value: 10.2}, true, "moved"}, // same seed: inside the bound is still not the same
		{lat, metric{Value: 10}, metric{Value: 9.9}, true, "moved"},
		{lat, metric{Value: 10}, metric{Value: 10}, true, "same"},
	} {
		if got, _ := verdict(c.d, c.a, c.b, c.exact); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}

	dir := t.TempDir()
	mk := func(name string, seed int64, rate, p99 float64, fp string) string {
		r := &report{Meta: meta{Seed: seed, Seconds: runSeconds},
			Workloads: []*workloadReport{{Name: "read_uniform", Correct: true, Fingerprint: fp,
				EndToEnd: map[string]metric{"wall_ops_per_s": {Value: rate, Unit: "1/s"}, "virt_get_p99_us": {Value: p99, Unit: "us"}},
				PerLayer: map[string]metric{"sim.events_per_op": {Value: rate / 1000, Unit: "count"}}}}}
		path := filepath.Join(dir, name)
		if err := r.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := mk("a.json", 1, 28000, 300, "aa")
	for _, c := range []struct {
		what   string
		b      string
		differ bool
		want   []string
	}{
		{"slower, fingerprint changed", mk("b1.json", 1, 20000, 300, "bb"), true, []string{"worse", "VIRTUAL TIME MOVED", "sim.events_per_op"}},
		{"same seed, p99 10% up, inside its cross-seed bound", mk("b2.json", 1, 28000, 330, "aa"), true, []string{"moved", "exact"}},
		{"another seed, p99 10% up", mk("b3.json", 2, 28000, 330, "cc"), false, []string{"WARNING", "different inputs"}},
		{"identical", mk("b4.json", 1, 28000, 300, "aa"), false, []string{"virt_fingerprint matched"}},
	} {
		var out bytes.Buffer
		differ, err := compareReports(&out, a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if differ != c.differ {
			t.Errorf("%s: differ = %v, want %v:\n%s", c.what, differ, c.differ, out.String())
		}
		for _, want := range c.want {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: output lacks %q:\n%s", c.what, want, out.String())
			}
		}
	}
}
