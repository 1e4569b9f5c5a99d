package redn

import (
	"bufio"
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// provenanceService builds the mixed-workload service the receipt and
// profiler gates run against: replicated writes with a quorum, read
// repair, and probes, so every op class and every phase source (window
// waits, doorbell batches, quorum straggling, retries, host fallbacks)
// is exercised.
func provenanceService(prov, profile bool) *Service {
	return NewServiceWith(ServiceConfig{
		Shards:          2,
		ClientsPerShard: 2,
		Pipeline:        8,
		Mode:            LookupSeq,
		Replicas:        2,
		WriteQuorum:     2,
		ReadPolicy:      ReadRoundRobin,
		ReadRepair:      true,
		ProbeEvery:      2,
		Buckets:         1 << 14,
		MaxValLen:       256,
		Provenance:      prov,
		Profile:         profile,
	})
}

func runProvenanceMix(s *Service) workload.LoadReport {
	keys := make([]uint64, 512)
	for i := range keys {
		keys[i] = uint64(i + 1)
		if err := s.Set(keys[i], Value(keys[i], 64)); err != nil {
			panic(err)
		}
	}
	return workload.RunClosedLoop(s.Testbed().Engine(), s, workload.ClosedLoopConfig{
		Requests:    2000,
		Window:      2 * 2 * 8,
		Keys:        &workload.Uniform{Keys: keys, Rng: workload.Rng(1)},
		ValLen:      64,
		WriteEvery:  4,
		DeleteEvery: 9,
	})
}

// The receipt identity, as a property over a real run: every retained
// receipt of every op class has its phase ledger summing to its total
// exactly — latency provenance partitions end-to-end time, it does not
// approximate it.
func TestProvenancePhaseSumIdentity(t *testing.T) {
	s := provenanceService(true, false)
	runProvenanceMix(s)
	prov := s.Provenance()
	if prov == nil {
		t.Fatal("Provenance() nil with provenance on")
	}
	classes := []uint8{telemetry.ClassGet, telemetry.ClassSet, telemetry.ClassDel, telemetry.ClassProbe}
	for _, c := range classes {
		if prov.Count(c) == 0 {
			t.Fatalf("class %s recorded no receipts — the mix must exercise every class",
				telemetry.ClassNames[c])
		}
		if n := prov.Totals(c).N(); uint64(n) != prov.Count(c) {
			t.Fatalf("class %s: totals N=%d but count=%d", telemetry.ClassNames[c], n, prov.Count(c))
		}
		for i, r := range prov.Tail(c) {
			if got := r.PhaseSum(); got != r.Total {
				t.Fatalf("class %s tail[%d] (op %d): phase sum %d != total %d — phases must partition the op exactly",
					telemetry.ClassNames[c], i, r.Op, got, r.Total)
			}
			if r.Total < 0 {
				t.Fatalf("class %s tail[%d]: negative total %d", telemetry.ClassNames[c], i, r.Total)
			}
			for p, d := range r.Phases {
				if d < 0 {
					t.Fatalf("class %s tail[%d]: negative %s phase %d",
						telemetry.ClassNames[c], i, telemetry.PhaseNames[p], d)
				}
			}
		}
	}
	// Quorum receipts carry leg structure: the retained set tail must
	// show dispatched legs and a critical-leg index within them.
	for i, r := range prov.Tail(telemetry.ClassSet) {
		if r.Legs == 0 {
			t.Fatalf("set tail[%d]: no legs recorded on a quorum write", i)
		}
		if r.Leg >= r.Legs {
			t.Fatalf("set tail[%d]: critical leg %d out of %d dispatched", i, r.Leg, r.Legs)
		}
	}
	// The decomposition must reproduce the identity in aggregate:
	// each class's phase totals sum to its Total field.
	for _, d := range prov.DecomposeAll() {
		var sum sim.Time
		for _, ps := range d.Phases {
			sum += ps.Total
		}
		if sum != d.Total {
			t.Fatalf("class %s decomposition: phase totals %d != %d", d.Class, sum, d.Total)
		}
	}
	// Stats() republishes the decomposition.
	st := s.Stats()
	if len(st.Provenance) == 0 {
		t.Fatal("Stats().Provenance empty with provenance on")
	}
}

// Every read-repair probe the service issues records exactly one
// receipt: the probe's completion hands its client ledger to provenance
// once, alongside the get and write receipts the coordinator folds.
func TestProvenanceRecordsEveryProbe(t *testing.T) {
	s := provenanceService(true, false)
	runProvenanceMix(s)
	s.Run()
	probes := s.Stats().Probes
	if probes == 0 {
		t.Fatal("the mix issued no read-repair probes")
	}
	if got := s.Provenance().Count(telemetry.ClassProbe); got != probes {
		t.Fatalf("%d probe receipts recorded for %d probes issued", got, probes)
	}
}

// The virtual-time profiler's attribution is complete: summed
// execution nanoseconds across all (class, resource) cells equal the
// resource report's summed busy time exactly (the run is unwindowed —
// no MarkUtilization — so both cover t=0 to now). The folded export
// reconciles line-by-line with the same total.
func TestProfilerReconciliation(t *testing.T) {
	s := provenanceService(true, true)
	runProvenanceMix(s)
	p := s.Profiler()
	if p == nil {
		t.Fatal("Profiler() nil with profile on")
	}
	st := s.Stats()
	var busy sim.Time
	for _, r := range st.Resources {
		busy += r.Busy
	}
	if busy == 0 {
		t.Fatal("resource report shows zero busy time after a 2000-op run")
	}
	if got := p.ExecTotal(); got != busy {
		t.Fatalf("profiler exec total %d != resource busy total %d — every busy nanosecond must be attributed",
			got, busy)
	}

	var buf bytes.Buffer
	if err := p.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	// Every folded line is "class;shard;resource;exec|wait <ns>"; the
	// exec lines sum back to ExecTotal — the artifact alone carries the
	// reconciliation CI asserts.
	line := regexp.MustCompile(`^[a-z]+;[A-Za-z0-9_-]+(;[A-Za-z0-9_/-]+)?;(exec|wait) [0-9]+$`)
	var execSum sim.Time
	frames := 0
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		frames++
		if !line.MatchString(sc.Text()) {
			t.Fatalf("malformed folded line %q", sc.Text())
		}
		fields := strings.Split(sc.Text(), " ")
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(fields[0], ";exec") {
			execSum += sim.Time(n)
		}
	}
	if frames != p.Frames() {
		t.Fatalf("folded export has %d lines, Frames() says %d", frames, p.Frames())
	}
	if execSum != p.ExecTotal() {
		t.Fatalf("folded exec sum %d != ExecTotal %d", execSum, p.ExecTotal())
	}
}

// Provenance is observation only: a run with receipts and the profiler
// on is op-for-op identical in virtual time to the same seed with them
// off. The whole load report (every latency percentile, every count)
// and the service counters must match exactly.
func TestProvenanceZeroCostDeterminism(t *testing.T) {
	sOff := provenanceService(false, false)
	repOff := runProvenanceMix(sOff)
	sOn := provenanceService(true, true)
	repOn := runProvenanceMix(sOn)

	if repOff != repOn {
		t.Fatalf("load reports diverge with provenance on:\noff: %v\non:  %v", repOff, repOn)
	}
	stOff, stOn := sOff.Stats(), sOn.Stats()
	if stOff.Hits != stOn.Hits || stOff.Misses != stOn.Misses ||
		stOff.SetOps != stOn.SetOps || stOff.DelOps != stOn.DelOps ||
		stOff.Retries != stOn.Retries || stOff.Probes != stOn.Probes ||
		stOff.FabricSets != stOn.FabricSets || stOff.HostSets != stOn.HostSets {
		t.Fatalf("service counters diverge with provenance on:\noff: %+v\non:  %+v", stOff, stOn)
	}
	if len(stOff.Provenance) != 0 || sOff.Provenance() != nil || sOff.Profiler() != nil {
		t.Fatal("provenance artifacts present with provenance off")
	}
}

// Under a read-saturated fleet the provenance layer and the
// utilization report must agree on the story: the get class's dominant
// resource is the fleet bottleneck, and Stats' TopResources ranks it
// first with the second-order bottleneck behind it.
func TestProvenanceDominantMatchesBottleneck(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 1, ClientsPerShard: 2, Pipeline: 16, Mode: LookupSeq,
		Buckets: 1 << 14, MaxValLen: 256, Provenance: true,
	})
	keys := make([]uint64, 256)
	for i := range keys {
		keys[i] = uint64(i + 1)
		if err := s.Set(keys[i], Value(keys[i], 64)); err != nil {
			t.Fatal(err)
		}
	}
	workload.RunClosedLoop(s.Testbed().Engine(), s, workload.ClosedLoopConfig{
		Requests: 3000,
		Window:   32,
		Keys:     &workload.Uniform{Keys: keys, Rng: workload.Rng(7)},
		ValLen:   64,
	})
	st := s.Stats()
	if len(st.TopResources) == 0 {
		t.Fatal("no TopResources in stats")
	}
	if st.TopResources[0] != st.Bottleneck {
		t.Fatalf("TopResources[0] %v != Bottleneck %v", st.TopResources[0], st.Bottleneck)
	}
	if len(st.TopResources) > 1 &&
		st.TopResources[0].Util < st.TopResources[1].Util {
		t.Fatalf("TopResources out of order: %v before %v", st.TopResources[0], st.TopResources[1])
	}
	dom, domT := s.Provenance().DominantResource(telemetry.ClassGet)
	if domT == 0 {
		t.Fatal("get class has no resource attribution under saturation")
	}
	if dom != st.Bottleneck.Name {
		t.Fatalf("get dominant resource %q != fleet bottleneck %q — the receipt ledger and the utilization report disagree",
			dom, st.Bottleneck.Name)
	}
}

// A latency-class incident bundle carries its own explanation: the
// per-class phase decomposition is embedded under "provenance" in the
// serialized bundle.
func TestLatencyIncidentCarriesProvenance(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 1, ClientsPerShard: 1, Pipeline: 8, Mode: LookupSeq,
		Buckets: 1 << 12, MaxValLen: 256,
		Provenance: true,
		Sentinel:   true,
		slowGetLat: 1, // every served get breaches the SLO
		sentinelRules: []telemetry.Rule{{
			Name: "latency-burn", Class: "latency",
			Metrics:   []string{"fleet/get_slow"},
			Threshold: 10, Fast: DefaultSLOFast, Slow: DefaultSLOSlow,
		}},
	})
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i + 1)
		if err := s.Set(keys[i], Value(keys[i], 64)); err != nil {
			t.Fatal(err)
		}
	}
	workload.RunClosedLoop(s.Testbed().Engine(), s, workload.ClosedLoopConfig{
		Requests: 4000,
		Window:   8,
		Keys:     &workload.Uniform{Keys: keys, Rng: workload.Rng(3)},
		ValLen:   64,
	})
	var inc *telemetry.Incident
	for _, i := range s.Incidents() {
		if i.Anomaly.Class == "latency" {
			inc = i
			break
		}
	}
	if inc == nil {
		t.Fatalf("no latency incident fired (anomalies: %+v)", s.Stats().Anomalies)
	}
	if len(inc.Provenance) == 0 {
		t.Fatal("latency incident carries no provenance section")
	}
	found := false
	for _, d := range inc.Provenance {
		if d.Class == "get" && d.Ops > 0 && len(d.Phases) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("incident provenance has no populated get decomposition: %+v", inc.Provenance)
	}
	var buf bytes.Buffer
	if err := inc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"provenance"`) {
		t.Fatal("serialized incident bundle lacks the provenance section")
	}
}

// Miss latencies are censored observations, not service times: the
// report separates them, counts them, and keeps hit percentiles clean.
func TestLoadReportSeparatesMissLatency(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 1, ClientsPerShard: 1, Pipeline: 8, Mode: LookupSeq,
		Buckets: 1 << 12, MaxValLen: 256,
	})
	keys := make([]uint64, 128)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	// Preload only even keys: half the uniform stream misses.
	for _, k := range keys {
		if k%2 == 0 {
			if err := s.Set(k, Value(k, 64)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep := workload.RunClosedLoop(s.Testbed().Engine(), s, workload.ClosedLoopConfig{
		Requests: 1000,
		Window:   8,
		Keys:     &workload.Uniform{Keys: keys, Rng: workload.Rng(5)},
		ValLen:   64,
	})
	if rep.Hits == 0 || rep.Misses == 0 {
		t.Fatalf("mix did not produce both hits and misses: %+v", rep)
	}
	if rep.Censored != rep.Misses {
		t.Fatalf("censored %d != misses %d — every miss is a censored sample", rep.Censored, rep.Misses)
	}
	if rep.HitP50 == 0 || rep.MissP50 == 0 {
		t.Fatalf("hit-p50 %v / miss-p50 %v — both populations must report", rep.HitP50, rep.MissP50)
	}
	if rep.MissP50 < rep.HitP50 {
		t.Fatalf("miss-p50 %v < hit-p50 %v — misses burn the retry/timeout budget and must dominate",
			rep.MissP50, rep.HitP50)
	}
	// The combined percentiles mix censored samples in; the hit-only
	// view cannot be slower than the combined one at the median.
	if rep.HitP50 > rep.P50 {
		t.Fatalf("hit-p50 %v > combined p50 %v", rep.HitP50, rep.P50)
	}
	if !strings.Contains(rep.String(), "censored=") {
		t.Fatal("report string does not flag censored samples")
	}
}
