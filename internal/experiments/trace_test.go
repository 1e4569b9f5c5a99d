package experiments

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

// traceEvent mirrors the subset of the Chrome trace-event fields the
// completeness checks need.
type traceEvent struct {
	Ph   string `json:"ph"`
	Name string `json:"name"`
	Cat  string `json:"cat"`
	Pid  int32  `json:"pid"`
	Tid  int32  `json:"tid"`
	ID   string `json:"id"`
	Args struct {
		Op   uint64 `json:"op"`
		Name string `json:"name"`
	} `json:"args"`
}

// Two same-seed runs must serialize to byte-identical trace JSON: the
// simulation is deterministic and the tracer must not launder that
// through map iteration or float formatting. CI runs this under -race
// alongside the rest of the package.
func TestTraceDeterministicBytes(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("trace runs in -short mode")
	}
	var a, b bytes.Buffer
	if _, err := WriteTrace(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same-seed traces differ: %d vs %d bytes", a.Len(), b.Len())
	}
}

// The mixed-workload trace must contain complete span trees for all
// four op types: an op-level b/e pair, client slot spans, WR execution
// spans on NIC PUs attributed to real op ids, quorum legs for writes,
// and balanced async begin/end events throughout. A delete is a request
// on the client's set pipeline, so its slot spans sit on set/ tracks,
// told from a set's by the op they carry.
func TestTraceSpanTreesComplete(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("trace runs in -short mode")
	}
	var buf bytes.Buffer
	if _, err := WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not well-formed JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("no events")
	}

	// Thread names, to resolve X-span tracks.
	type tkey struct {
		pid, tid int32
	}
	threads := map[tkey]string{}
	opBegins := map[string]map[uint64]bool{} // op name -> ids opened
	asyncOpen := map[string]int{}            // cat+id balance
	wrOps := map[uint64]bool{}               // op ids seen on PU WR spans
	slotTracks := map[string]bool{}          // slot-span track names
	slotOps := map[uint64]string{}           // op id -> a track one of its slot spans sits on
	legs := 0
	for _, e := range tr.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				threads[tkey{e.Pid, e.Tid}] = e.Args.Name
			}
		case "b":
			asyncOpen[e.Cat+"/"+e.ID]++
			if e.Cat == "op" {
				if opBegins[e.Name] == nil {
					opBegins[e.Name] = map[uint64]bool{}
				}
				opBegins[e.Name][e.Args.Op] = true
			}
			if e.Cat == "leg" {
				legs++
			}
		case "e":
			asyncOpen[e.Cat+"/"+e.ID]--
		case "X":
			track := threads[tkey{e.Pid, e.Tid}]
			if e.Name == "slot" {
				slotTracks[track] = true
				slotOps[e.Args.Op] = track
			} else if e.Args.Op != 0 {
				wrOps[e.Args.Op] = true
			}
		}
	}

	for _, op := range []string{"get", "set", "del", "probe"} {
		ids := opBegins[op]
		if len(ids) == 0 {
			t.Errorf("no %q op spans", op)
			continue
		}
		// At least one of this op type's instances must have WR spans
		// executing on a PU attributed to it — the span tree reaches
		// from the service layer down to the NIC.
		attributed := false
		for id := range ids {
			if wrOps[id] {
				attributed = true
				break
			}
		}
		if !attributed {
			t.Errorf("no WR span attributed to any %q op", op)
		}
	}
	for cat, n := range asyncOpen {
		if n != 0 {
			t.Errorf("unbalanced async span %s: %+d", cat, n)
		}
	}
	if legs == 0 {
		t.Error("no quorum leg spans")
	}
	// Client slot spans for every pipeline, and for a delete and a
	// version probe on the set pipeline's.
	for _, prefix := range []string{"get/", "set/"} {
		found := false
		for track := range slotTracks {
			if strings.HasPrefix(track, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no client slot spans on %s* tracks", prefix)
		}
	}
	for _, op := range []string{"del", "probe"} {
		onSet := false
		for id := range opBegins[op] {
			if strings.HasPrefix(slotOps[id], "set/") {
				onSet = true
				break
			}
		}
		if !onSet {
			t.Errorf("no client slot span of a %s op on set/* tracks", op)
		}
	}
}

// The utilization report must name the saturated NIC resource: on the
// read-dominated mixed trace run, a server-side NIC processing unit —
// a chain PU or the port's WQE-fetch stage — is the busiest resource,
// and the report surfaces it by name.
func TestBottleneckNamesNICResource(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("trace runs in -short mode")
	}
	_, st := TraceMixed()
	if len(st.Resources) == 0 {
		t.Fatal("no resource utilization in stats")
	}
	bn := st.Bottleneck
	if bn.Name == "" || bn.Util <= 0 {
		t.Fatalf("no bottleneck identified: %+v", bn)
	}
	if !regexp.MustCompile(`^shard\d+/port\d+/(fetch|pu\d+)$`).MatchString(bn.Name) {
		t.Errorf("bottleneck %q is not a server NIC processing resource", bn.Name)
	}
	if s := UtilizationSummary(st, 3); !bytes.Contains([]byte(s), []byte(bn.Name)) {
		t.Errorf("summary does not name the bottleneck: %q", s)
	}
}
