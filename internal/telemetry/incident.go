package telemetry

import (
	"bytes"
	"encoding/json"
	"io"

	"repro/internal/sim"
)

// IncidentSchema identifies the bundle format version.
const IncidentSchema = "redn-incident/v1"

// IncidentSeries is one metric's timeline across the recorder ring at
// snapshot time, index-aligned with Incident.SampleTimes. Metrics that
// did not exist in an older sample read as 0.
type IncidentSeries struct {
	Name   string    `json:"name"`
	Kind   string    `json:"kind"`
	Values []float64 `json:"values"`
}

// Incident is a self-contained, deterministic snapshot of the flight
// recorder at the moment an SLO rule fired: the anomaly and its burn
// evidence, the full metrics snapshot, every retained sample as a
// per-metric timeline, the resource-utilization report with its
// bottleneck, and — when the run is traced — the balanced Perfetto
// trace window the samples cover. Everything is plain structs and
// sorted slices — two same-seed runs marshal byte-identical bundles.
type Incident struct {
	Schema      string           `json:"schema"`
	Seq         int              `json:"seq"`
	Anomaly     Anomaly          `json:"anomaly"`
	Metrics     []Metric         `json:"metrics"`
	SampleTimes []sim.Time       `json:"sample_times_ns"`
	Timeline    []IncidentSeries `json:"timeline"`
	Resources   []ResourceUtil   `json:"resources,omitempty"`
	Bottleneck  string           `json:"bottleneck,omitempty"`
	// Provenance carries the per-op-class latency decomposition at
	// capture time — latency-class incidents answer "which phase is
	// burning the budget" straight from the bundle. Present only when
	// the service runs with provenance receipts on.
	Provenance []ClassDecomp `json:"provenance,omitempty"`
	// Trace is the traced run's window from the oldest retained sample
	// to the anomaly instant, balanced for export; {"traceEvents":[]}
	// when the run is untraced.
	Trace json.RawMessage `json:"trace"`
}

// BuildIncident assembles a bundle from the firing anomaly and the
// recorder/tracer state at this instant. seq numbers incidents within
// a run. rs may be nil (no resource report); tr may be nil (empty
// trace window). The timeline's canonical metric set is the newest
// sample's — metrics registered after older samples were taken are
// back-filled with 0.
func BuildIncident(seq int, a Anomaly, rec *Recorder, tr *Tracer, rs []ResourceUtil) *Incident {
	inc := &Incident{
		Schema:  IncidentSchema,
		Seq:     seq,
		Anomaly: a,
	}
	if latest := rec.Latest(); latest != nil {
		inc.Metrics = append([]Metric(nil), latest.Metrics...)
		inc.Timeline = make([]IncidentSeries, len(latest.Metrics))
		for i, m := range latest.Metrics {
			inc.Timeline[i] = IncidentSeries{
				Name:   m.Name,
				Kind:   m.Kind,
				Values: make([]float64, 0, rec.Len()),
			}
		}
		rec.Each(func(s *Sample) {
			inc.SampleTimes = append(inc.SampleTimes, s.At)
			for i := range inc.Timeline {
				inc.Timeline[i].Values = append(inc.Timeline[i].Values, s.Value(inc.Timeline[i].Name))
			}
		})
	}
	inc.Resources = append([]ResourceUtil(nil), rs...)
	if bn, ok := Bottleneck(inc.Resources); ok {
		inc.Bottleneck = bn.String()
	}
	from := a.At
	if o := rec.Oldest(); o != nil {
		from = o.At
	}
	var buf bytes.Buffer
	tr.writeWindowJSON(&buf, from, a.At)
	inc.Trace = json.RawMessage(bytes.TrimRight(buf.Bytes(), "\n"))
	return inc
}

// WriteJSON marshals the bundle as indented JSON. Field order follows
// the struct; all slices carry deterministic order, so same-seed
// bundles are byte-identical.
func (inc *Incident) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(inc, "", " ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
