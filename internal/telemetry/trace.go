// Package telemetry is the observability layer for the simulated
// fabric: per-op trace spans exported as Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing), a metrics registry of
// counters, gauges and bounded histograms, and resource-utilization
// reports derived from sim.Resource accounting.
//
// Everything is built for a deterministic single-threaded simulation:
// a nil *Tracer is the disabled state and every method is a
// zero-allocation no-op on it, timestamps come from the virtual clock
// only, and name interning is insertion-ordered so two runs with the
// same seed serialize byte-identical JSON.
package telemetry

import (
	"bufio"
	"io"
	"strconv"

	"repro/internal/sim"
)

// Span/event phases, matching the trace-event format.
const (
	phComplete   = 'X' // duration on a (pid,tid) track
	phAsyncBegin = 'b' // nestable async begin, grouped by (cat,id)
	phAsyncEnd   = 'e'
	phInstant    = 'i'
)

type event struct {
	ph   byte
	name string
	cat  string
	pid  int32
	tid  int32
	ts   sim.Time
	dur  sim.Time // phComplete only
	id   uint64   // async events only
	op   uint64   // args.op attribution; 0 = none
	key  uint64   // args.key; OpBegin only
	wKey bool
}

// Tracer records simulation events for trace-event export. Create one
// with NewTracer and plumb it through ServiceConfig; a nil Tracer is
// the disabled state — all methods no-op without allocating. It keeps
// every event: a run is deterministic in its config and seed, so an
// incident's window is cut from a traced run (writeWindowJSON).
type Tracer struct {
	eng    *sim.Engine
	events []event
	nextOp uint64

	procIDs   map[string]int32
	procNames []string
	thrIDs    map[thrKey]int32
	thrNames  []string
	thrProcs  []int32
}

// NewTracer returns an enabled tracer reading timestamps from eng.
func NewTracer(eng *sim.Engine) *Tracer {
	return &Tracer{
		eng:     eng,
		procIDs: make(map[string]int32),
		thrIDs:  make(map[thrKey]int32),
	}
}

// add appends one event. Every recording method funnels through here.
func (t *Tracer) add(e event) { t.events = append(t.events, e) }

// Enabled reports whether tracing is on. Guard any span-name
// formatting with this so the disabled path stays allocation-free.
func (t *Tracer) Enabled() bool { return t != nil }

// opsProc is the synthetic process hosting op-level async tracks.
const opsProc = "ops"

func (t *Tracer) proc(name string) int32 {
	if id, ok := t.procIDs[name]; ok {
		return id
	}
	id := int32(len(t.procNames)) + 1 // pids start at 1
	t.procIDs[name] = id
	t.procNames = append(t.procNames, name)
	return id
}

// thrKey names one track of one process; a struct key, so looking a
// track up builds no string.
type thrKey struct{ proc, track string }

func (t *Tracer) thread(proc, track string) (int32, int32) {
	pid := t.proc(proc)
	key := thrKey{proc, track}
	if id, ok := t.thrIDs[key]; ok {
		return pid, id
	}
	id := int32(len(t.thrNames)) + 1 // tids start at 1, globally unique
	t.thrIDs[key] = id
	t.thrNames = append(t.thrNames, track)
	t.thrProcs = append(t.thrProcs, pid)
	return pid, id
}

// OpBegin opens a new top-level async span for one client-visible
// operation and returns its op id (>= 1; 0 when disabled). The id
// doubles as the args.op attribution tag on every child event.
func (t *Tracer) OpBegin(name string, key uint64) uint64 {
	if t == nil {
		return 0
	}
	t.nextOp++
	op := t.nextOp
	t.add(event{
		ph: phAsyncBegin, name: name, cat: "op", pid: t.proc(opsProc),
		ts: t.eng.Now(), id: op, op: op, key: key, wKey: true,
	})
	return op
}

// OpEnd closes the op span opened by OpBegin. name must match.
func (t *Tracer) OpEnd(op uint64, name string) {
	if t == nil || op == 0 {
		return
	}
	t.add(event{
		ph: phAsyncEnd, name: name, cat: "op", pid: t.proc(opsProc),
		ts: t.eng.Now(), id: op, op: op,
	})
}

// AsyncBegin opens an async span on its own (cat,id) track — e.g. one
// quorum leg — attributed to op.
func (t *Tracer) AsyncBegin(cat string, id uint64, name string, op uint64) {
	if t == nil {
		return
	}
	t.add(event{
		ph: phAsyncBegin, name: name, cat: cat, pid: t.proc(opsProc),
		ts: t.eng.Now(), id: id, op: op,
	})
}

// AsyncEnd closes the matching AsyncBegin.
func (t *Tracer) AsyncEnd(cat string, id uint64, name string, op uint64) {
	if t == nil {
		return
	}
	t.add(event{
		ph: phAsyncEnd, name: name, cat: cat, pid: t.proc(opsProc),
		ts: t.eng.Now(), id: id, op: op,
	})
}

// Instant drops a point event on proc's "events" thread — hint/repair
// enqueues, doorbell flushes.
func (t *Tracer) Instant(proc, name string, op uint64) {
	if t == nil {
		return
	}
	pid, tid := t.thread(proc, "events")
	t.add(event{
		ph: phInstant, name: name, pid: pid, tid: tid,
		ts: t.eng.Now(), op: op,
	})
}

// Exec records a completed duration span [start, end) on the track
// (proc, track) — a WR occupying a PU, a client slot held for an op.
func (t *Tracer) Exec(proc, track, name string, start, end sim.Time, op uint64) {
	if t == nil {
		return
	}
	pid, tid := t.thread(proc, track)
	t.add(event{
		ph: phComplete, name: name, pid: pid, tid: tid,
		ts: start, dur: end - start, op: op,
	})
}

// OpContext is the identity an op's work carries down to the NIC: the
// trace op id its WR spans attribute to, the profiler class its
// resource grants fold into ("" folds into "other"), and the latency
// receipt those grants also fold into (nil = none riding). One context
// covers every queue that runs one offload's chain: each QP points at
// its context from wiring on, a pipeline slot's context is retagged per
// op, and a shared trigger QP's stays class-only because its batched
// SENDs interleave ops.
type OpContext struct {
	Op      uint64
	Class   string
	Receipt *Receipt
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// micros renders a sim.Time (ns) as microseconds with fixed 3-decimal
// precision using integer math only, so output is deterministic.
func micros(buf []byte, t sim.Time) []byte {
	buf = strconv.AppendInt(buf, int64(t)/1000, 10)
	frac := int64(t) % 1000
	buf = append(buf, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	return buf
}

// WriteJSON serializes the trace in Chrome trace-event JSON
// ({"traceEvents":[...]}): process/thread name metadata first, then
// events oldest-first. Two same-seed runs produce byte-identical
// output.
func (t *Tracer) WriteJSON(w io.Writer) error {
	return t.writeJSON(w, nil)
}

// writeWindowJSON serializes like WriteJSON but keeps only the events
// whose ts lies in [from, to], and of those drops the async begin/end
// events whose partner falls outside the window — a span that opened
// before it would otherwise export a dangling "e" (and a span still in
// flight a dangling "b"), which trace validators reject. X, i and
// metadata events inside the window always survive; matching is per
// (cat,id) in record order, so nested spans on one track pair
// innermost first. This is the cut incident bundles embed.
func (t *Tracer) writeWindowJSON(w io.Writer, from, to sim.Time) error {
	if t == nil {
		return t.writeJSON(w, nil)
	}
	keep := make([]bool, len(t.events))
	type spanKey struct {
		cat string
		id  uint64
	}
	open := make(map[spanKey][]int)
	for i := range t.events {
		e := &t.events[i]
		if e.ts < from || e.ts > to {
			continue
		}
		switch e.ph {
		case phAsyncBegin:
			k := spanKey{e.cat, e.id}
			open[k] = append(open[k], i)
		case phAsyncEnd:
			k := spanKey{e.cat, e.id}
			if s := open[k]; len(s) > 0 {
				open[k] = s[:len(s)-1]
				keep[s[len(s)-1]] = true
				keep[i] = true
			}
		default:
			keep[i] = true
		}
	}
	return t.writeJSON(w, keep)
}

// writeJSON is the shared exporter; keep (indexed like t.events)
// filters events when non-nil.
func (t *Tracer) writeJSON(w io.Writer, keep []bool) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[")
	first := true
	comma := func() {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
	}
	if t != nil {
		for i, name := range t.procNames {
			comma()
			bw.WriteString("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":")
			bw.WriteString(strconv.Itoa(i + 1))
			bw.WriteString(",\"args\":{\"name\":")
			bw.WriteString(strconv.Quote(name))
			bw.WriteString("}}")
		}
		for i, name := range t.thrNames {
			comma()
			bw.WriteString("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":")
			bw.WriteString(strconv.Itoa(int(t.thrProcs[i])))
			bw.WriteString(",\"tid\":")
			bw.WriteString(strconv.Itoa(i + 1))
			bw.WriteString(",\"args\":{\"name\":")
			bw.WriteString(strconv.Quote(name))
			bw.WriteString("}}")
		}
		var num []byte
		for i := range t.events {
			if keep != nil && !keep[i] {
				continue
			}
			e := &t.events[i]
			comma()
			bw.WriteString("{\"ph\":\"")
			bw.WriteByte(e.ph)
			bw.WriteString("\",\"name\":")
			bw.WriteString(strconv.Quote(e.name))
			if e.cat != "" {
				bw.WriteString(",\"cat\":")
				bw.WriteString(strconv.Quote(e.cat))
			}
			bw.WriteString(",\"pid\":")
			bw.WriteString(strconv.Itoa(int(e.pid)))
			bw.WriteString(",\"tid\":")
			bw.WriteString(strconv.Itoa(int(e.tid)))
			bw.WriteString(",\"ts\":")
			bw.Write(micros(num[:0], e.ts))
			if e.ph == phComplete {
				bw.WriteString(",\"dur\":")
				bw.Write(micros(num[:0], e.dur))
			}
			if e.ph == phAsyncBegin || e.ph == phAsyncEnd {
				bw.WriteString(",\"id\":\"")
				bw.WriteString(strconv.FormatUint(e.id, 10))
				bw.WriteString("\"")
			}
			if e.ph == phInstant {
				bw.WriteString(",\"s\":\"t\"")
			}
			if e.op != 0 || e.wKey {
				bw.WriteString(",\"args\":{")
				if e.op != 0 {
					bw.WriteString("\"op\":")
					bw.WriteString(strconv.FormatUint(e.op, 10))
					if e.wKey {
						bw.WriteString(",")
					}
				}
				if e.wKey {
					bw.WriteString("\"key\":")
					bw.WriteString(strconv.FormatUint(e.key, 10))
				}
				bw.WriteString("}")
			}
			bw.WriteString("}")
		}
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}
