package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/sim"
)

// Satellite: equal-utilization resources must resolve to the
// name-ordered winner no matter how the slice is ordered — incident
// bundles embed the bottleneck line, so ties cannot depend on
// iteration order.
func TestBottleneckTieBreak(t *testing.T) {
	tied := []ResourceUtil{
		{Name: "shard2/port0/pu0", Util: 0.8},
		{Name: "shard0/port0/pu1", Util: 0.8},
		{Name: "shard1/pcie", Util: 0.8},
	}
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, p := range perms {
		rs := []ResourceUtil{tied[p[0]], tied[p[1]], tied[p[2]]}
		bn, ok := Bottleneck(rs)
		if !ok || bn.Name != "shard0/port0/pu1" {
			t.Fatalf("order %v: bottleneck %q, want shard0/port0/pu1", p, bn.Name)
		}
	}
	// A strictly-higher utilization still beats a name that sorts first.
	rs := append([]ResourceUtil{{Name: "aaa", Util: 0.8}}, tied...)
	rs = append(rs, ResourceUtil{Name: "zzz", Util: 0.9})
	if bn, _ := Bottleneck(rs); bn.Name != "zzz" {
		t.Fatalf("bottleneck %q, want zzz", bn.Name)
	}
}

// An incident's trace window is cut from an unbounded tracer by ts:
// a span that opened before the window must not export its dangling
// end, nor a span still in flight at the window's close its dangling
// begin. The balanced cut always passes the CI trace validator's b/e
// pairing check, and keeps nothing outside the window.
func TestTracerWindowExport(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTracer(eng)
	eng.At(0, func() { tr.AsyncBegin("op", 1, "doomed", 1) })
	for k := 1; k <= 4; k++ {
		k := k
		eng.At(sim.Time(k*10), func() { tr.Instant("svc", "filler", 0) })
	}
	// The begin lies before the window; its end is inside it.
	eng.At(50, func() { tr.AsyncEnd("op", 1, "doomed", 1) })
	// And a fresh span that only closes after the window.
	eng.At(60, func() { tr.AsyncBegin("op", 2, "inflight", 2) })
	eng.At(70, func() { tr.Exec("svc", "track", "work", 61, 65, 2) })
	eng.At(80, func() { tr.AsyncEnd("op", 2, "inflight", 2) })
	eng.Run()
	const from, to = 10, 70

	type traceEvent map[string]any
	parse := func(raw []byte) []traceEvent {
		t.Helper()
		var env struct {
			TraceEvents []traceEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("invalid JSON: %v", err)
		}
		return env.TraceEvents
	}
	tsNs := func(ev traceEvent) sim.Time { return sim.Time(math.Round(ev["ts"].(float64) * 1000)) }
	balanced := func(evs []traceEvent) bool {
		open := map[string]int{}
		for _, ev := range evs {
			switch ev["ph"] {
			case "b":
				open[ev["cat"].(string)+"/"+ev["id"].(string)]++
			case "e":
				open[ev["cat"].(string)+"/"+ev["id"].(string)]--
			}
		}
		for _, v := range open {
			if v != 0 {
				return false
			}
		}
		return true
	}
	var full, cut bytes.Buffer
	if err := tr.WriteJSON(&full); err != nil {
		t.Fatal(err)
	}
	if err := tr.writeWindowJSON(&cut, from, to); err != nil {
		t.Fatal(err)
	}
	all := parse(full.Bytes())
	if !balanced(all) {
		t.Fatal("the whole trace dangles; the test needs it balanced")
	}
	var raw []traceEvent // the window by ts alone, metadata kept
	for _, ev := range all {
		if ev["ph"] == "M" || (tsNs(ev) >= from && tsNs(ev) <= to) {
			raw = append(raw, ev)
		}
	}
	if balanced(raw) {
		t.Fatal("raw window balanced; want it to dangle at both ends")
	}
	win := parse(cut.Bytes())
	if !balanced(win) {
		t.Fatal("window export dangles")
	}
	if len(win) != len(raw)-2 {
		t.Fatalf("window export kept %d of %d events, want %d (drop one e + one b)", len(win), len(raw), len(raw)-2)
	}
	for _, ev := range win {
		if ev["ph"] != "M" && (tsNs(ev) < from || tsNs(ev) > to) {
			t.Fatalf("window export kept %v, outside [%d, %d]", ev, from, to)
		}
	}
}

// Satellite: the metric-sample ring keeps the newest-N samples and
// indexes them correctly across wrap-around.
func TestRecorderRingWrap(t *testing.T) {
	eng := sim.NewEngine()
	reg := NewRegistry()
	var c Counter
	reg.Bind("svc/ops", &c)
	rec := NewRecorder(eng, reg, 4)
	for k := 0; k < 10; k++ {
		eng.At(sim.Time(k*100), func() {
			c++
			rec.Record()
		})
	}
	eng.Run()
	if rec.Len() != 4 || rec.Total() != 10 {
		t.Fatalf("len=%d total=%d, want 4/10", rec.Len(), rec.Total())
	}
	if o, l := rec.Oldest(), rec.Latest(); o.At != 600 || l.At != 900 {
		t.Fatalf("oldest=%d latest=%d, want 600/900", o.At, l.At)
	}
	var got []float64
	rec.Each(func(s *Sample) { got = append(got, s.Value("svc/ops")) })
	for i, want := range []float64{7, 8, 9, 10} {
		if got[i] != want {
			t.Fatalf("ring values %v, want [7 8 9 10]", got)
		}
	}
	if s := rec.Before(750); s == nil || s.At != 700 {
		t.Fatalf("Before(750) = %v, want sample at 700", s)
	}
	if s := rec.Before(599); s != nil {
		t.Fatalf("Before(599) = %v, want nil (older than ring)", s)
	}
	if rec.At(-1) != nil || rec.At(4) != nil {
		t.Fatal("out-of-range At not nil")
	}
	if v := rec.Latest().Value("svc/never_registered"); v != 0 {
		t.Fatalf("missing metric = %v, want 0", v)
	}
}

// Satellite (benchmark-guarded like the PR 6 telemetry-off parity
// check): the disabled flight recorder — nil recorder, nil tracer, nil
// SLO engine — must add zero allocations on the hot path.
func TestDisabledRecorderZeroAlloc(t *testing.T) {
	var rec *Recorder
	var tr *Tracer
	var slo *SLO
	allocs := testing.AllocsPerRun(1000, func() {
		rec.Record()
		_ = rec.Len()
		_ = rec.Latest()
		_ = rec.Total()
		op := tr.OpBegin("get", 7)
		tr.Exec("svc", "track", "work", 0, 10, op)
		tr.Instant("svc", "hint", op)
		tr.OpEnd(op, "get")
		_ = slo.Evaluate()
		_ = slo.Anomalies()
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder allocated %.1f per op, want 0", allocs)
	}
}

// The SLO engine's window semantics over synthetic samples: counter
// burn rules fire once per episode (hysteresis), re-arm after the burn
// clears, never fire before the ring covers the slow window; level
// rules demand the condition sustained for the whole window; StallOf
// holds a rule back while its progress counter moves.
func TestSLOEngineWindows(t *testing.T) {
	eng := sim.NewEngine()
	reg := NewRegistry()
	var errs, sealed Counter
	reg.Bind("svc/errs", &errs)
	backlog := 0.0
	reg.Gauge("svc/backlog", func() float64 { return backlog })
	reg.Bind("svc/sealed", &sealed)
	rec := NewRecorder(eng, reg, 0)
	rules := []Rule{
		{Name: "err-burn", Class: "overload", Metrics: []string{"svc/errs"},
			Threshold: 5, Fast: 100, Slow: 500},
		{Name: "mig-stall", Class: "migration-stall", Metrics: []string{"svc/backlog"},
			Level: true, Threshold: 1, Fast: 100, Slow: 500, StallOf: "svc/sealed"},
	}
	slo := NewSLO(rec, rules, 0)
	var fired []Anomaly
	for k := 0; k <= 60; k++ {
		eng.At(sim.Time(k*50), func() {
			rec.Record()
			fired = append(fired, slo.Evaluate()...)
		})
	}
	// Two error bursts, well separated so the burn clears in between.
	for _, base := range []sim.Time{1001, 2001} {
		for j := 0; j < 5; j++ {
			eng.At(base+sim.Time(j*50), func() { errs += 2 })
		}
	}
	// Migration backlog rises at 899 and holds; seals make progress
	// until 1401, then the drain wedges; backlog clears at 2499.
	eng.At(899, func() { backlog = 1 })
	for j := 0; j <= 5; j++ {
		eng.At(901+sim.Time(j*100), func() { sealed++ })
	}
	eng.At(2499, func() { backlog = 0 })
	eng.Run()

	byRule := map[string]int{}
	for _, a := range fired {
		byRule[a.Rule]++
		if a.Slow < a.Threshold {
			t.Fatalf("%s fired with slow burn %v < threshold %v", a.Rule, a.Slow, a.Threshold)
		}
	}
	if byRule["err-burn"] != 2 {
		t.Fatalf("err-burn fired %d times, want 2 (one per burst): %+v", byRule["err-burn"], fired)
	}
	if byRule["mig-stall"] != 1 {
		t.Fatalf("mig-stall fired %d times, want 1: %+v", byRule["mig-stall"], fired)
	}
	for _, a := range fired {
		if a.At < 500 {
			t.Fatalf("%s fired at %d, before the ring covered the slow window", a.Rule, a.At)
		}
		if a.Rule == "mig-stall" && a.At < 1901 {
			t.Fatalf("mig-stall fired at %d while seals were still progressing", a.At)
		}
	}
	if got := len(slo.Anomalies()); got != 3 {
		t.Fatalf("anomaly history = %d, want 3", got)
	}
	// Evidence carries the firing metrics (and the stall counter).
	for _, a := range slo.Anomalies() {
		if len(a.Evidence) == 0 {
			t.Fatalf("%s anomaly has no evidence", a.Rule)
		}
	}
}

// Same-seed incident bundles must be byte-identical: the dump path is
// structs, sorted metric names and integer-math serialization only.
func TestIncidentBundleDeterministic(t *testing.T) {
	run := func() []byte {
		eng := sim.NewEngine()
		reg := NewRegistry()
		var c Counter
		reg.Bind("svc/errs", &c)
		reg.Gauge("svc/depth", func() float64 { return float64(c.Value() % 3) })
		reg.Histogram("svc/get_lat").Add(1234)
		tr := NewTracer(eng)
		rec := NewRecorder(eng, reg, 12)
		rules := []Rule{{Name: "err-burn", Class: "overload",
			Metrics: []string{"svc/errs"}, Threshold: 3, Fast: 100, Slow: 400}}
		slo := NewSLO(rec, rules, 0)
		var inc *Incident
		for k := 0; k <= 30; k++ {
			eng.At(sim.Time(k*50), func() {
				rec.Record()
				for _, a := range slo.Evaluate() {
					if inc == nil {
						inc = BuildIncident(1, a, rec, tr, []ResourceUtil{
							{Name: "shard0/pu0", Util: 0.5, Busy: 100, Grants: 3},
							{Name: "shard1/pu0", Util: 0.5, Busy: 100, Grants: 3},
						})
					}
				}
			})
		}
		for j := 0; j < 6; j++ {
			eng.At(sim.Time(801+j*40), func() {
				c++
				op := tr.OpBegin("get", uint64(j))
				tr.Exec("svc", "pu0", "READ", eng.Now(), eng.Now()+7, op)
				tr.OpEnd(op, "get")
			})
		}
		eng.Run()
		if inc == nil {
			t.Fatal("no incident fired")
		}
		var buf bytes.Buffer
		if err := inc.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed incident bundles differ")
	}
	// Well-formed: schema tag, parseable trace, tie broken by name.
	var inc struct {
		Schema     string `json:"schema"`
		Bottleneck string `json:"bottleneck"`
		Trace      struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(a, &inc); err != nil {
		t.Fatalf("bundle not valid JSON: %v", err)
	}
	if inc.Schema != IncidentSchema {
		t.Fatalf("schema %q", inc.Schema)
	}
	if inc.Bottleneck != "shard0/pu0 50% busy" {
		t.Fatalf("bottleneck %q, want name-ordered tie winner", inc.Bottleneck)
	}
	if len(inc.Trace.TraceEvents) == 0 {
		t.Fatal("bundle trace window empty")
	}
}
