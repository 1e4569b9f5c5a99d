package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The sentinel acceptance gate: the anomaly taxonomy is exact in both
// directions — every injected fault fires its own class (and only that
// class) with a well-formed bundle, the healthy run fires nothing, the
// first bundle of a seeded run is byte-deterministic, and the recorder
// is free in virtual time.
func TestSentinelGate(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("sentinel fault-injection run")
	}
	r := Sentinel()

	for _, sc := range []string{"healthy", "crash", "overload", "migration"} {
		if r.Metrics["sentinel_"+sc+"_exact"] != 1 {
			t.Errorf("%s scenario fired the wrong anomaly class set (or a malformed bundle)", sc)
		}
	}
	if n := r.Metrics["sentinel_healthy_incidents"]; n != 0 {
		t.Errorf("healthy run captured %.0f incidents, want 0", n)
	}
	for _, sc := range []string{"crash", "overload", "migration"} {
		if n := r.Metrics["sentinel_"+sc+"_incidents"]; n < 1 {
			t.Errorf("%s scenario captured %.0f incidents, want >= 1", sc, n)
		}
	}
	if r.Metrics["sentinel_bundle_deterministic"] != 1 {
		t.Error("same-seed crash runs froze different first bundles")
	}
	// Virtual-time parity: the sentinel samples, it never schedules
	// service work, so recorder-on and recorder-off complete the same
	// hit count. The acceptance bar is 1%; the simulator delivers 0.
	if f := r.Metrics["sentinel_parity_frac"]; f < 0.99 || f > 1.01 {
		t.Errorf("recorder-on throughput %.4fx of recorder-off, want within 1%%", f)
	}
}

// The crash bundle is structurally complete: schema tag, the firing
// anomaly with evidence, metric timelines aligned with sample times,
// a bottleneck line, and a balanced non-empty trace window.
func TestSentinelCrashBundle(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("sentinel fault-injection run")
	}
	s, _ := sentinelCrashRun()
	incs := s.Incidents()
	if len(incs) == 0 {
		t.Fatal("crash scenario captured no incident")
	}
	inc := incs[0]
	if inc.Schema != telemetry.IncidentSchema {
		t.Fatalf("bundle schema %q, want %q", inc.Schema, telemetry.IncidentSchema)
	}
	if inc.Anomaly.Class != "crash" || inc.Anomaly.Rule != "crash-suspects" {
		t.Fatalf("bundle anomaly %s/%s, want crash/crash-suspects", inc.Anomaly.Class, inc.Anomaly.Rule)
	}
	if len(inc.Anomaly.Evidence) == 0 {
		t.Fatal("bundle anomaly carries no evidence metrics")
	}
	if len(inc.SampleTimes) == 0 || len(inc.Timeline) == 0 {
		t.Fatal("bundle has no metric timeline")
	}
	for _, ts := range inc.Timeline {
		if len(ts.Values) != len(inc.SampleTimes) {
			t.Fatalf("timeline %s has %d values across %d sample times",
				ts.Name, len(ts.Values), len(inc.SampleTimes))
		}
	}
	if inc.Bottleneck == "" {
		t.Fatal("bundle names no bottleneck despite a loaded run")
	}
	var tw struct {
		Events []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(inc.Trace, &tw); err != nil {
		t.Fatalf("bundle trace window does not parse: %v", err)
	}
	if len(tw.Events) == 0 {
		t.Fatal("bundle trace window is empty under load")
	}
	if !bundleWellFormed(inc) {
		t.Fatal("bundle fails the well-formedness check")
	}
	// And the service-level stats surface the same anomaly history.
	st := s.Stats()
	if len(st.Anomalies) == 0 || st.Anomalies[0].Rule != "crash-suspects" {
		t.Fatalf("ServiceStats.Anomalies = %v, want the crash-suspects anomaly first", st.Anomalies)
	}
	// WatchFault streams the same bundle redn-bench -watch archives.
	var buf bytes.Buffer
	if _, err := WatchFault(&buf); err != nil {
		t.Fatalf("WatchFault: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("WatchFault wrote invalid JSON")
	}
}

// A run is a deterministic function of its config and seed, so the
// traced run of the crash scenario is the sentinel-only run's replay:
// the two capture the same bundles byte for byte except the trace,
// which the untraced run leaves empty and the traced run fills with a
// balanced window from the oldest retained sample to the anomaly.
func TestSentinelTracedReplay(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("sentinel fault-injection run")
	}
	plain, _ := sentinelCrash(false)
	traced, _ := sentinelCrash(true)
	if plain.Tracer() != nil {
		t.Fatal("sentinel without Trace built a tracer")
	}
	pi, ti := plain.Incidents(), traced.Incidents()
	if len(pi) == 0 || len(pi) != len(ti) {
		t.Fatalf("untraced run captured %d incidents, traced %d", len(pi), len(ti))
	}
	for i := range pi {
		if string(pi[i].Trace) != `{"traceEvents":[]}` {
			t.Fatalf("incident %d: untraced bundle trace %.80s, want empty", i, pi[i].Trace)
		}
		a, b := *pi[i], *ti[i]
		a.Trace, b.Trace = nil, nil
		var ab, bb bytes.Buffer
		if err := a.WriteJSON(&ab); err != nil {
			t.Fatal(err)
		}
		if err := b.WriteJSON(&bb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
			t.Fatalf("incident %d: traced and untraced bundles differ outside the trace", i)
		}

		inc := ti[i]
		from, to := inc.SampleTimes[0], inc.Anomaly.At
		var tw struct {
			Events []struct {
				Ph  string  `json:"ph"`
				Cat string  `json:"cat"`
				ID  string  `json:"id"`
				Ts  float64 `json:"ts"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(inc.Trace, &tw); err != nil {
			t.Fatalf("incident %d: trace window does not parse: %v", i, err)
		}
		open := map[string]int{}
		n := 0
		for _, e := range tw.Events {
			if e.Ph == "M" {
				continue
			}
			n++
			if ts := sim.Time(math.Round(e.Ts * 1000)); ts < from || ts > to {
				t.Fatalf("incident %d: %s event at %v outside the window [%v, %v]", i, e.Ph, ts, from, to)
			}
			switch e.Ph {
			case "b":
				open[e.Cat+"/"+e.ID]++
			case "e":
				open[e.Cat+"/"+e.ID]--
			}
		}
		if n == 0 {
			t.Fatalf("incident %d: traced bundle has an empty trace window", i)
		}
		for k, v := range open {
			if v != 0 {
				t.Fatalf("incident %d: span %s unbalanced (%+d) in the trace window", i, k, v)
			}
		}
	}
}
