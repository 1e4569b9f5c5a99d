package redn

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// traceWindow is what one stretch of a service trace says about op
// attribution: the op ids begun in it by name, the shard each get
// attempt and write leg ran on, and per op id the devices its WR spans
// executed on.
type traceWindow struct {
	begun   map[string][]uint64        // op name -> ids
	ranOn   map[uint64]map[string]bool // attempt/leg op id -> shards
	wrSpans map[uint64]map[string]int  // op id -> device -> WR spans
}

// readWindow parses s's trace and keeps the events after the first
// from of them.
func readWindow(t *testing.T, s *Service, from int) (traceWindow, int) {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Tracer().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Pid  int32  `json:"pid"`
			Args struct {
				Op   uint64 `json:"op"`
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	w := traceWindow{begun: map[string][]uint64{}, ranOn: map[uint64]map[string]bool{},
		wrSpans: map[uint64]map[string]int{}}
	procs := map[int32]string{}
	n := 0
	for _, e := range tr.TraceEvents {
		if e.Ph == "M" {
			if e.Name == "process_name" {
				procs[e.Pid] = e.Args.Name
			}
			continue
		}
		if n++; n <= from {
			continue
		}
		switch {
		case e.Ph == "b" && e.Cat == "op":
			w.begun[e.Name] = append(w.begun[e.Name], e.Args.Op)
		case e.Ph == "b" && (e.Cat == "attempt" || e.Cat == "leg"):
			_, shard, _ := strings.Cut(e.Name, ":")
			if w.ranOn[e.Args.Op] == nil {
				w.ranOn[e.Args.Op] = map[string]bool{}
			}
			w.ranOn[e.Args.Op][shard] = true
		case e.Ph == "X" && e.Name != "slot" && e.Args.Op != 0:
			if w.wrSpans[e.Args.Op] == nil {
				w.wrSpans[e.Args.Op] = map[string]int{}
			}
			w.wrSpans[e.Args.Op][procs[e.Pid]]++
		}
	}
	return w, n
}

// only returns the one id begun under name in w.
func (w traceWindow) only(t *testing.T, name string) uint64 {
	t.Helper()
	if ids := w.begun[name]; len(ids) != 1 || ids[0] == 0 {
		t.Fatalf("%q ops begun: %v, want one non-zero id", name, ids)
	}
	return w.begun[name][0]
}

// Each path on which the service hands an op id to a client — a get
// attempt, a write leg, a read-repair probe — must get the NICs to
// attribute that op's WRs to it: at least one WR span carries the id,
// on the shard the path ran on, and no WR span carries another op's.
func TestWRSpansCarryTheirOp(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 3, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq,
		Replicas: 3, WriteQuorum: 2, ReadPolicy: ReadRoundRobin, ReadRepair: true,
		Buckets: 1 << 12, MaxValLen: 64, Trace: true})
	const key = 42
	if err := s.Set(key, Value(key, 48)); err != nil {
		t.Fatal(err)
	}
	s.Run()
	set, seen := readWindow(t, s, 0)
	if _, _, ok := s.Get(key, 48); !ok {
		t.Fatal("get missed")
	}
	s.Run()
	get, _ := readWindow(t, s, seen)

	// The write: one leg per owner, each leg's WRs on its owner.
	top := set.only(t, "set")
	if len(set.ranOn[top]) != 3 {
		t.Fatalf("set op %d ran legs on %v, want 3 owners", top, set.ranOn[top])
	}
	for shard := range set.ranOn[top] {
		if set.wrSpans[top][shard] == 0 {
			t.Errorf("write leg on %s: no WR span carries op %d (spans: %v)", shard, top, set.wrSpans[top])
		}
	}
	for op, on := range set.wrSpans {
		if op != top {
			t.Errorf("set window: WR spans %v carry op %d, not the set's %d", on, op, top)
		}
	}

	// The get attempt on its owner, the probe on another owner.
	gop, pop := get.only(t, "get"), get.only(t, "probe")
	if len(get.ranOn[gop]) != 1 {
		t.Fatalf("get op %d attempted on %v, want one owner", gop, get.ranOn[gop])
	}
	var served string
	for shard := range get.ranOn[gop] {
		served = shard
	}
	for op, on := range get.wrSpans {
		switch op {
		case gop:
			if len(on) != 1 || on[served] == 0 {
				t.Errorf("get attempt on %s: op %d's WR spans ran on %v", served, gop, on)
			}
		case pop:
			if len(on) != 1 || on[served] != 0 {
				t.Errorf("read-repair probe: op %d's WR spans ran on %v, want one owner other than %s", pop, on, served)
			}
		default:
			t.Errorf("get window: WR spans %v carry op %d, neither the get's %d nor its probe's %d", on, op, gop, pop)
		}
	}
	if get.wrSpans[gop] == nil || get.wrSpans[pop] == nil {
		t.Errorf("get %d spans %v, probe %d spans %v: each needs at least one", gop, get.wrSpans[gop], pop, get.wrSpans[pop])
	}
}
