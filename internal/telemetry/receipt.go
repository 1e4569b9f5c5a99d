package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Latency provenance: every async op carries a compact fixed-size
// Receipt that ledgers where its microseconds went — client phases
// (congestion-window wait, pipeline-slot queue, doorbell batching),
// the fabric span, and coordinator phases (quorum stitching, retry
// legs, host fallbacks, cache hits). The phase array is an exact
// partition of the op's end-to-end time: the receipt is finalized so
// that the phases sum to Total identically, a property the gate tests
// assert per op. Alongside the partition, the receipt folds per-WR
// resource grants (queue-wait vs execution per sim.Resource) into a
// bounded per-resource table; those spans ride the fabric phase and
// may overlap each other (chains pipeline), so they are attribution
// detail, not a second partition.

// Phase indices. The phases partition an op's submit-to-completion
// time exactly; each microsecond lands in exactly one.
const (
	// PhaseWindow is time queued at the client because the AIMD
	// congestion window was full (in flight >= window).
	PhaseWindow = iota
	// PhaseQueue is time queued at the client waiting for a free
	// pipeline slot (ring capacity, not congestion).
	PhaseQueue
	// PhaseDoorbell is time a posted WQE sat before its batch's
	// doorbell rang (doorbell coalescing across ops in one flush).
	PhaseDoorbell
	// PhaseFabric is the fabric span: doorbell to response delivery —
	// WR execution, queueing and wire time, detailed per resource in
	// the receipt's Res table.
	PhaseFabric
	// PhaseCoord is coordinator overhead around quorum legs: per-key
	// slot serialization, dispatch gaps, and the stitch between the
	// op's start and its critical leg.
	PhaseCoord
	// PhaseRetry is time burned in earlier failed attempts (replica
	// failover, suspected-owner retries) before the attempt that
	// completed the op.
	PhaseRetry
	// PhaseHost is host-software fallback time (non-fabric set/delete
	// application at host latency).
	PhaseHost
	// PhaseCache is hot-value cache hit service time.
	PhaseCache

	PhaseCount
)

// PhaseNames maps phase indices to report labels.
var PhaseNames = [PhaseCount]string{
	"window", "queue", "doorbell", "fabric", "coord", "retry", "host", "cache",
}

// Op classes a receipt can belong to: one per kind of client request.
// A delete is a request on the client's set pipeline; its receipt,
// trace op and profiler grants are still classed ClassDel.
const (
	ClassGet = iota
	ClassSet
	ClassDel
	ClassProbe
	ClassCount
)

// ClassNames maps op classes to report labels.
var ClassNames = [ClassCount]string{"get", "set", "del", "probe"}

// MaxReceiptRes bounds the per-resource fold in one receipt. Ten
// covers a full offload chain's distinct resources (PUs, fetch units,
// links, both PCIe buses, the atomic unit); overflow is counted, and
// the FabricWait/FabricExec sums stay exact regardless.
const MaxReceiptRes = 10

// ResPhase is one resource's folded contribution to an op: queue-wait
// ahead of grants (reservation horizon) vs granted execution time.
type ResPhase struct {
	Name string   `json:"res"`
	Wait sim.Time `json:"wait_ns"`
	Exec sim.Time `json:"exec_ns"`
}

// Receipt is one op's latency ledger. Fixed size: embedding arrays,
// no per-op allocation; pipelines reset and reuse one per slot.
type Receipt struct {
	Op       uint64   `json:"op"`
	Class    uint8    `json:"class"`
	Censored bool     `json:"censored"` // timed out: Total is the miss timeout, not a service time
	Leg      uint8    `json:"leg"`      // quorum: index of the critical (W-th acking) leg
	Legs     uint8    `json:"legs"`     // quorum: legs dispatched
	Start    sim.Time `json:"start_ns"`
	Total    sim.Time `json:"total_ns"`
	// Straggler is the exclusive critical-path time of the slowest
	// needed leg: the gap between the (W-1)-th and W-th acks. Zero for
	// non-quorum ops.
	Straggler sim.Time `json:"straggler_ns"`

	Phases [PhaseCount]sim.Time `json:"phases_ns"`

	// FabricWait/FabricExec sum the Res table exactly (including
	// overflowed entries): total resource queue-wait and execution
	// attributed to this op's WRs. Chains pipeline, so these may
	// overlap in wall time and are not bounded by PhaseFabric.
	FabricWait sim.Time `json:"fabric_wait_ns"`
	FabricExec sim.Time `json:"fabric_exec_ns"`

	Res        [MaxReceiptRes]ResPhase `json:"res"`
	NRes       uint8                   `json:"-"`
	ResDropped uint16                  `json:"res_dropped,omitempty"`
}

// Reset rearms the receipt for a new op. Nil-safe no-op.
func (r *Receipt) Reset(op uint64, class uint8, start sim.Time) {
	if r == nil {
		return
	}
	*r = Receipt{Op: op, Class: class, Start: start}
}

// AddPhase accumulates d into phase p. Nil-safe no-op.
func (r *Receipt) AddPhase(p int, d sim.Time) {
	if r == nil {
		return
	}
	r.Phases[p] += d
}

// AddRes folds one resource grant (wait ahead of it, execution during
// it) into the bounded per-resource table. The FabricWait/FabricExec
// sums stay exact even when the table overflows. Nil-safe no-op.
func (r *Receipt) AddRes(name string, wait, exec sim.Time) {
	if r == nil {
		return
	}
	r.FabricWait += wait
	r.FabricExec += exec
	for i := 0; i < int(r.NRes); i++ {
		if r.Res[i].Name == name {
			r.Res[i].Wait += wait
			r.Res[i].Exec += exec
			return
		}
	}
	if int(r.NRes) < MaxReceiptRes {
		r.Res[r.NRes] = ResPhase{Name: name, Wait: wait, Exec: exec}
		r.NRes++
		return
	}
	r.ResDropped++
}

// PhaseSum returns the sum of the phase partition — by construction
// equal to Total on a finalized receipt (the gate tests assert it).
func (r *Receipt) PhaseSum() sim.Time {
	var s sim.Time
	for _, p := range r.Phases {
		s += p
	}
	return s
}

// AdoptLeg copies a quorum leg's client-side ledger (phases, resource
// table, censoring) into the coordinator op's receipt, which then adds
// its own coordinator phases on top. Nil-safe in both directions.
func (r *Receipt) AdoptLeg(leg *Receipt) {
	if r == nil || leg == nil {
		return
	}
	r.Phases = leg.Phases
	r.FabricWait, r.FabricExec = leg.FabricWait, leg.FabricExec
	r.Res, r.NRes, r.ResDropped = leg.Res, leg.NRes, leg.ResDropped
	r.Censored = leg.Censored
}

// ResView returns the populated prefix of the resource table.
func (r *Receipt) ResView() []ResPhase { return r.Res[:r.NRes] }

// Provenance aggregates finalized receipts per op class: exact phase
// sums, the total-latency distribution, per-resource wait/exec totals,
// and a fixed-size top-N-slowest receipt heap (flight-recorder
// discipline: the tail evidence survives in constant memory).
type Provenance struct {
	classes [ClassCount]classProv
}

type classProv struct {
	count    uint64
	censored uint64
	totals   sim.LatencyStats
	phaseSum [PhaseCount]sim.Time
	resWait  map[string]sim.Time
	resExec  map[string]sim.Time
	tail     tailHeap
}

// NewProvenance builds an aggregator keeping the tailN slowest
// receipts per class.
func NewProvenance(tailN int) *Provenance {
	if tailN <= 0 {
		tailN = DefaultTailReceipts
	}
	pv := &Provenance{}
	for c := range pv.classes {
		cp := &pv.classes[c]
		cp.resWait = make(map[string]sim.Time)
		cp.resExec = make(map[string]sim.Time)
		cp.tail.rs = make([]Receipt, 0, tailN)
	}
	return pv
}

// DefaultTailReceipts is the per-class top-N-slowest retention.
const DefaultTailReceipts = 8

// Record folds one finalized receipt. The receipt is copied by value
// into the tail heap if it qualifies; the caller may reuse it
// immediately. Nil-safe no-op.
func (pv *Provenance) Record(r *Receipt) {
	if pv == nil || r == nil || int(r.Class) >= ClassCount {
		return
	}
	cp := &pv.classes[r.Class]
	cp.count++
	if r.Censored {
		cp.censored++
	}
	cp.totals.Add(r.Total)
	for p := 0; p < PhaseCount; p++ {
		cp.phaseSum[p] += r.Phases[p]
	}
	for _, rp := range r.ResView() {
		cp.resWait[rp.Name] += rp.Wait
		cp.resExec[rp.Name] += rp.Exec
	}
	cp.tail.offer(r)
}

// Count returns the receipts recorded for class.
func (pv *Provenance) Count(class uint8) uint64 { return pv.classes[class].count }

// Totals exposes the Total distribution for class.
func (pv *Provenance) Totals(class uint8) *sim.LatencyStats { return &pv.classes[class].totals }

// Tail returns the retained slowest receipts for class, slowest
// first; the slice is a sorted copy.
func (pv *Provenance) Tail(class uint8) []Receipt {
	if pv == nil {
		return nil
	}
	out := append([]Receipt(nil), pv.classes[class].tail.rs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// tailHeap is a fixed-capacity min-heap on Receipt.Total: the root is
// the smallest retained tail sample, displaced when a slower op
// arrives. Ties displace nothing (strict >), so retention is
// deterministic in arrival order.
type tailHeap struct {
	rs []Receipt
}

func (h *tailHeap) offer(r *Receipt) {
	if len(h.rs) < cap(h.rs) {
		h.rs = append(h.rs, *r)
		i := len(h.rs) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if h.rs[parent].Total <= h.rs[i].Total {
				break
			}
			h.rs[parent], h.rs[i] = h.rs[i], h.rs[parent]
			i = parent
		}
		return
	}
	if len(h.rs) == 0 || r.Total <= h.rs[0].Total {
		return
	}
	h.rs[0] = *r
	i := 0
	for {
		l, rt := 2*i+1, 2*i+2
		small := i
		if l < len(h.rs) && h.rs[l].Total < h.rs[small].Total {
			small = l
		}
		if rt < len(h.rs) && h.rs[rt].Total < h.rs[small].Total {
			small = rt
		}
		if small == i {
			return
		}
		h.rs[i], h.rs[small] = h.rs[small], h.rs[i]
		i = small
	}
}

// PhaseShare is one phase's share of a class's total latency.
type PhaseShare struct {
	Phase string   `json:"phase"`
	Total sim.Time `json:"total_ns"`
	Frac  float64  `json:"frac"`
}

// ResShare is one resource's aggregated wait/exec attribution.
type ResShare struct {
	Res  string   `json:"res"`
	Wait sim.Time `json:"wait_ns"`
	Exec sim.Time `json:"exec_ns"`
}

// ClassDecomp is the decomposition report for one op class: where the
// class's latency went by phase, which resources its WRs waited on
// and executed on, and what dominates the retained tail.
type ClassDecomp struct {
	Class    string   `json:"class"`
	Ops      uint64   `json:"ops"`
	Censored uint64   `json:"censored,omitempty"`
	Total    sim.Time `json:"total_ns"`
	P50      sim.Time `json:"p50_ns"`
	P99      sim.Time `json:"p99_ns"`

	Phases []PhaseShare `json:"phases"`
	Res    []ResShare   `json:"res,omitempty"`

	// TailWorst is the slowest retained receipt's Total; TailDominant
	// names the single largest resource contribution across the
	// retained tail, e.g. "78% shard0/port0/fetch queue-wait".
	TailWorst    sim.Time `json:"tail_worst_ns,omitempty"`
	TailDominant string   `json:"tail_dominant,omitempty"`
}

// Decompose builds the report for one class (zero-valued when the
// class recorded nothing).
func (pv *Provenance) Decompose(class uint8) ClassDecomp {
	cp := &pv.classes[class]
	d := ClassDecomp{
		Class:    ClassNames[class],
		Ops:      cp.count,
		Censored: cp.censored,
		P50:      cp.totals.Median(),
		P99:      cp.totals.P99(),
	}
	if cp.count == 0 {
		return d
	}
	for p := 0; p < PhaseCount; p++ {
		d.Total += cp.phaseSum[p]
	}
	for p := 0; p < PhaseCount; p++ {
		if cp.phaseSum[p] == 0 {
			continue
		}
		d.Phases = append(d.Phases, PhaseShare{
			Phase: PhaseNames[p],
			Total: cp.phaseSum[p],
			Frac:  frac(cp.phaseSum[p], d.Total),
		})
	}
	sort.Slice(d.Phases, func(i, j int) bool {
		if d.Phases[i].Total != d.Phases[j].Total {
			return d.Phases[i].Total > d.Phases[j].Total
		}
		return d.Phases[i].Phase < d.Phases[j].Phase
	})
	names := make([]string, 0, len(cp.resWait))
	for n := range cp.resWait {
		names = append(names, n)
	}
	for n := range cp.resExec {
		if _, ok := cp.resWait[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		d.Res = append(d.Res, ResShare{Res: n, Wait: cp.resWait[n], Exec: cp.resExec[n]})
	}
	sort.SliceStable(d.Res, func(i, j int) bool {
		return d.Res[i].Wait+d.Res[i].Exec > d.Res[j].Wait+d.Res[j].Exec
	})
	d.TailWorst, d.TailDominant = pv.tailDominant(class)
	return d
}

// DecomposeAll reports every class that recorded ops, get first.
func (pv *Provenance) DecomposeAll() []ClassDecomp {
	if pv == nil {
		return nil
	}
	var out []ClassDecomp
	for c := uint8(0); c < ClassCount; c++ {
		if pv.classes[c].count > 0 {
			out = append(out, pv.Decompose(c))
		}
	}
	return out
}

// DominantResource names the resource with the largest aggregated
// wait+exec attribution for class — the provenance layer's answer to
// "what is this class bottlenecked on", comparable against the
// utilization report's Bottleneck.
func (pv *Provenance) DominantResource(class uint8) (string, sim.Time) {
	cp := &pv.classes[class]
	var best string
	var bestT sim.Time
	seen := func(n string, t sim.Time) {
		if t > bestT || (t == bestT && bestT > 0 && n < best) {
			best, bestT = n, t
		}
	}
	for n, w := range cp.resWait {
		seen(n, w+cp.resExec[n])
	}
	for n, e := range cp.resExec {
		if _, ok := cp.resWait[n]; !ok {
			seen(n, e)
		}
	}
	return best, bestT
}

// tailDominant scans the retained tail for the single largest
// (resource, wait|exec) contribution, as a fraction of the tail's
// summed totals.
func (pv *Provenance) tailDominant(class uint8) (sim.Time, string) {
	tail := pv.Tail(class)
	if len(tail) == 0 {
		return 0, ""
	}
	var tailTotal sim.Time
	wait := map[string]sim.Time{}
	exec := map[string]sim.Time{}
	for i := range tail {
		tailTotal += tail[i].Total
		for _, rp := range tail[i].ResView() {
			wait[rp.Name] += rp.Wait
			exec[rp.Name] += rp.Exec
		}
	}
	var best string
	var bestT sim.Time
	var bestKind string
	consider := func(m map[string]sim.Time, kind string) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if m[n] > bestT {
				best, bestT, bestKind = n, m[n], kind
			}
		}
	}
	consider(wait, "queue-wait")
	consider(exec, "exec")
	if best == "" || tailTotal == 0 {
		return tail[0].Total, ""
	}
	return tail[0].Total, fmt.Sprintf("%.0f%% %s %s", frac(bestT, tailTotal)*100, best, bestKind)
}

// Report renders the per-class decompositions as the human-readable
// block redn-bench and Stats consumers print.
func (pv *Provenance) Report() string {
	ds := pv.DecomposeAll()
	if len(ds) == 0 {
		return "provenance: no receipts"
	}
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "%s ops=%d", d.Class, d.Ops)
		if d.Censored > 0 {
			fmt.Fprintf(&b, " censored=%d", d.Censored)
		}
		fmt.Fprintf(&b, " p50=%v p99=%v:", d.P50, d.P99)
		for i, ps := range d.Phases {
			if i == 4 {
				break
			}
			fmt.Fprintf(&b, " %s %.0f%%", ps.Phase, ps.Frac*100)
		}
		if d.TailDominant != "" {
			fmt.Fprintf(&b, "\n  tail (worst %v): %s", d.TailWorst, d.TailDominant)
		}
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n")
}

func frac(part, whole sim.Time) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
