package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Host spans: the benchmark times its own calls into each layer. The
// hierarchy is run > segment > engine.run > callback > {bench.gen,
// service.submit, service.flush}; a layer's self time is its spans'
// duration minus their children's.
type spanName uint8

const (
	spanRun spanName = iota
	spanSegment
	spanEngineRun
	spanCallback
	spanGen
	spanSubmit
	spanFlush
	nSpanNames
)

var spanNames = [nSpanNames]string{"run", "segment", "engine.run", "callback",
	"bench.gen", "service.submit", "service.flush"}

// maxKeptSpans bounds the spans retained for the trace file; self-time
// totals cover every span regardless.
const maxKeptSpans = 200000

type span struct {
	name       spanName
	parent     int32 // index into kept, -1 at the root
	op         uint64
	start, end int64 // host ns since the tracer started
}

type openSpan struct {
	name     spanName
	kept     int32 // index into kept, -1 when over the cap
	start    int64
	children int64 // summed duration of direct children
}

// spanTracer keeps spans in memory and writes them out once, at exit. A
// nil tracer records nothing: the untraced passes pay one nil check per
// call site.
type spanTracer struct {
	t0    time.Time
	stack []openSpan
	kept  []span
	self  [nSpanNames]int64
	count [nSpanNames]int64
}

func newSpanTracer() *spanTracer {
	return &spanTracer{t0: time.Now(), stack: make([]openSpan, 0, 16), kept: make([]span, 0, maxKeptSpans)}
}

func (t *spanTracer) begin(name spanName, op uint64) {
	if t == nil {
		return
	}
	t.beginAt(int64(time.Since(t.t0)), name, op)
}

// next ends the open span and begins a sibling at the same instant, on
// one clock read.
func (t *spanTracer) next(name spanName, op uint64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.endAt(now)
	t.beginAt(now, name, op)
}

func (t *spanTracer) beginAt(now int64, name spanName, op uint64) {
	kept := int32(-1)
	if len(t.kept) < maxKeptSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].kept
		}
		kept = int32(len(t.kept))
		t.kept = append(t.kept, span{name: name, parent: parent, op: op, start: now})
	}
	t.stack = append(t.stack, openSpan{name: name, kept: kept, start: now})
}

func (t *spanTracer) end() {
	if t == nil {
		return
	}
	t.endAt(int64(time.Since(t.t0)))
}

func (t *spanTracer) endAt(now int64) {
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	dur := now - s.start
	t.self[s.name] += dur - s.children
	t.count[s.name]++
	if s.kept >= 0 {
		t.kept[s.kept].end = now
	}
	if n > 0 {
		t.stack[n-1].children += dur
	}
}

// writeChromeTrace writes the retained spans as Chrome trace-event JSON
// (complete "X" events on one thread; Perfetto nests them by time).
func (t *spanTracer) writeChromeTrace(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.kept {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"op":%d}}`,
			spanNames[s.name], float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.op)
	}
	fmt.Fprint(w, "\n]}\n")
	return w.Flush()
}
