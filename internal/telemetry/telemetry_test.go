package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

// A nil tracer must accept every call and report disabled.
func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if op := tr.OpBegin("get", 1); op != 0 {
		t.Fatalf("nil OpBegin = %d, want 0", op)
	}
	tr.OpEnd(1, "get")
	tr.AsyncBegin("leg", 9, "leg:shard0", 1)
	tr.AsyncEnd("leg", 9, "leg:shard0", 1)
	tr.Instant("svc", "hint", 1)
	tr.Exec("shard0", "port0/pu0", "WRITE", 0, 10, 1)
	tr.SetOp(5)
	if tr.Op() != 0 || tr.Len() != 0 {
		t.Fatal("nil tracer retained state")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var env struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatalf("nil tracer JSON invalid: %v", err)
	}
}

func TestTracerJSONWellFormed(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTracer(eng)
	op := tr.OpBegin("set", 42)
	if op != 1 {
		t.Fatalf("first op id = %d, want 1", op)
	}
	tr.Exec("shard0", "port0/pu1", "CAS", 100, 180, op)
	tr.Instant("coordinator", "hint:shard1", op)
	tr.AsyncBegin("leg", op<<3, "leg:shard0", op)
	tr.AsyncEnd("leg", op<<3, "leg:shard0", op)
	tr.OpEnd(op, "set")

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var env struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.Bytes())
	}
	var phases []string
	procNames := map[string]bool{}
	for _, ev := range env.TraceEvents {
		ph := ev["ph"].(string)
		phases = append(phases, ph)
		if ph == "M" && ev["name"] == "process_name" {
			procNames[ev["args"].(map[string]any)["name"].(string)] = true
		}
		if ph == "X" {
			if ev["dur"].(float64) != 0.080 {
				t.Fatalf("X dur = %v, want 0.080us", ev["dur"])
			}
			if ev["args"].(map[string]any)["op"].(float64) != 1 {
				t.Fatal("X event lost op attribution")
			}
		}
	}
	for _, want := range []string{"ops", "shard0", "coordinator"} {
		if !procNames[want] {
			t.Fatalf("missing process %q in metadata", want)
		}
	}
	var b, e, x, i int
	for _, ph := range phases {
		switch ph {
		case "b":
			b++
		case "e":
			e++
		case "X":
			x++
		case "i":
			i++
		}
	}
	if b != 2 || e != 2 || x != 1 || i != 1 {
		t.Fatalf("phase counts b=%d e=%d x=%d i=%d", b, e, x, i)
	}
}

// Same sequence of calls must serialize to identical bytes — the
// foundation of the trace-determinism guarantee.
func TestTracerDeterministicBytes(t *testing.T) {
	run := func() []byte {
		eng := sim.NewEngine()
		tr := NewTracer(eng)
		for k := 0; k < 50; k++ {
			op := tr.OpBegin("get", uint64(k))
			tr.Exec("shard0", "port0/pu0", "READ", sim.Time(k*10), sim.Time(k*10+7), op)
			tr.OpEnd(op, "get")
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("two identical runs serialized differently")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("svc/hits")
	c.Inc()
	c.Add(4)
	if r.Counter("svc/hits") != c {
		t.Fatal("Counter not idempotent")
	}
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	depth := 3.0
	r.Gauge("svc/hints_pending", func() float64 { return depth })
	h := r.Histogram("svc/get_lat")
	h.Add(100)
	snap := r.Snapshot()
	got := map[string]float64{}
	for _, m := range snap {
		got[m.Name] = m.Value
	}
	if got["svc/hits"] != 5 || got["svc/hints_pending"] != 3 || got["svc/get_lat.n"] != 1 {
		t.Fatalf("snapshot %v", got)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatal("snapshot not sorted by name")
		}
	}
	// Nil registry and nil counter are safe sinks.
	var nr *Registry
	nr.Counter("x").Inc()
	nr.Gauge("g", nil)
	if nr.Counter("x").Value() != 0 || nr.Snapshot() != nil {
		t.Fatal("nil registry leaked state")
	}
}

// Bind registers a word its owner increments; rebinding a name (a
// shard rejoining under a drained id) hands the count on, so the
// snapshot never falls.
func TestRegistryBind(t *testing.T) {
	r := NewRegistry()
	var old, cur uint64
	r.Bind("shard0/sets", (*Counter)(&old))
	old += 3
	if r.Snapshot()[0].Value != 3 {
		t.Fatalf("bound word not read in place: %v", r.Snapshot())
	}
	r.Bind("shard0/sets", (*Counter)(&cur))
	cur++
	if snap := r.Snapshot(); len(snap) != 1 || snap[0].Value != 4 || cur != 4 {
		t.Fatalf("rebind: snapshot %v, word %d; want one counter at 4", snap, cur)
	}
}

func TestBottleneck(t *testing.T) {
	rs := []ResourceUtil{
		{Name: "shard0/port0/pu0", Util: 0.42},
		{Name: "shard3/port0/pu1", Util: 0.97},
		{Name: "shard1/pcie", Util: 0.55},
	}
	bn, ok := Bottleneck(rs)
	if !ok || bn.Name != "shard3/port0/pu1" {
		t.Fatalf("bottleneck %v", bn)
	}
	if s := bn.String(); s != "shard3/port0/pu1 97% busy" {
		t.Fatalf("String() = %q", s)
	}
	if _, ok := Bottleneck(nil); ok {
		t.Fatal("empty bottleneck reported ok")
	}
}
