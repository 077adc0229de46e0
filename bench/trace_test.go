package bench_test

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/sim"
)

// span is one traced interval. IDs are unique within a traceSource;
// Parent is the span that caused this one (-1: none) and spans of one
// logical request share TraceID.
type span struct {
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int64  `json:"parent"`
	TraceID int64  `json:"trace_id"`
}

// spanAgg sums every span of one name, stored or not.
type spanAgg struct {
	Count  int64 `json:"count"`
	SelfNs int64 `json:"self_ns"`
}

// spanAggs is the aggregate per span name.
type spanAggs map[string]*spanAgg

func (s spanAggs) add(name string, count, selfNs int64) {
	a := s[name]
	if a == nil {
		a = &spanAgg{}
		s[name] = a
	}
	a.Count += count
	a.SelfNs += selfNs
}

// traceSource is one producer's part of the trace file.
type traceSource struct {
	Source  string   `json:"source"`
	Spans   []span   `json:"spans"`
	Dropped int64    `json:"dropped"` // spans beyond the cap: aggregated, not stored
	Agg     spanAggs `json:"aggregate"`
}

// maxStoredSpans caps the spans one traced run keeps in memory and
// writes out; aggregates still cover every span.
const maxStoredSpans = 200_000

// traceFile is what -trace-out receives.
type traceFile struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Sources  []*traceSource `json:"sources"`
	room     int            // spans the file may still store
}

func newTraceFile(workload string, seed uint64) *traceFile {
	return &traceFile{Workload: workload, Seed: seed, room: maxStoredSpans}
}

// recorder collects the nested spans of an isolated-core driver: begin
// and end bracket a call, the innermost open span is the parent of the
// next begin, and a span opened at depth zero starts a new trace. A nil
// recorder records nothing, so a driver's timed loop and its traced pass
// share one body.
type recorder struct {
	src   *traceSource
	file  *traceFile
	base  time.Time
	open  []openSpan
	next  int64
	trace int64 // id of the open depth-zero span
}

type openSpan struct {
	id      int64
	name    string
	start   int64
	childNs int64
}

func (f *traceFile) recorder(source string) *recorder {
	src := &traceSource{Source: source, Agg: spanAggs{}}
	f.Sources = append(f.Sources, src)
	return &recorder{src: src, file: f, base: time.Now()}
}

func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	o := openSpan{id: r.next, name: name, start: int64(time.Since(r.base))}
	r.next++
	if len(r.open) == 0 {
		r.trace = o.id
	}
	r.open = append(r.open, o)
}

func (r *recorder) end() {
	if r == nil {
		return
	}
	now := int64(time.Since(r.base))
	o := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	parent := int64(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1].id
		r.open[n-1].childNs += now - o.start
	}
	// Self time: the span minus the part its children cover.
	r.src.Agg.add(o.name, 1, now-o.start-o.childNs)
	r.file.store(r.src, span{ID: o.id, Name: o.name, StartNs: o.start, EndNs: now, Parent: parent, TraceID: r.trace})
}

func (f *traceFile) store(src *traceSource, sp span) {
	if f.room == 0 {
		src.Dropped++
		return
	}
	f.room--
	src.Spans = append(src.Spans, sp)
}

// desTracer turns the kernel's public event hook into spans: one per
// fired event, named by the event label, lasting until the next fire
// (handler plus kernel pop). The parent is the event during whose fire
// it was scheduled; the trace id is the nearest *.begin ancestor, which
// is one transaction incarnation. Event handlers never nest, so a DES
// span has no children in time and its self time is its duration. A
// tracer observes one Run call: sequence numbers restart with the kernel.
type desTracer struct {
	src  *traceSource
	file *traceFile
	base time.Time

	// Indexed by event sequence number, which the kernel assigns densely
	// from zero in schedule order.
	parent []int32
	root   []int32

	cur      int32 // sequence number of the firing event; -1 before the first
	curLabel string
	curStart int64
	firstNs  int64
}

// desTracer returns the tracer for one Run call expected to schedule
// about the given number of events; sizing the per-event tables once
// keeps their growth out of the traced wall time.
func (f *traceFile) desTracer(source string, events int) *desTracer {
	src := &traceSource{Source: source, Agg: spanAggs{}, Spans: make([]span, 0, min(events, f.room))}
	f.Sources = append(f.Sources, src)
	return &desTracer{
		src: src, file: f, base: time.Now(), cur: -1,
		parent: make([]int32, 0, events), root: make([]int32, 0, events),
	}
}

// Trace implements sim.Tracer.
func (t *desTracer) Trace(action sim.TraceAction, seq uint64, _, _ sim.Time, label string) {
	switch action {
	case sim.TraceSchedule:
		if int(seq) != len(t.parent) {
			panic(fmt.Sprintf("bench: kernel scheduled seq %d after %d events", seq, len(t.parent)))
		}
		t.parent = append(t.parent, t.cur)
		t.root = append(t.root, -1)
	case sim.TraceFire:
		now := int64(time.Since(t.base))
		t.close(now)
		if t.cur < 0 {
			t.firstNs = now
		}
		t.cur, t.curLabel, t.curStart = int32(seq), label, now
		switch p := t.parent[seq]; {
		case strings.HasSuffix(label, ".begin"):
			t.root[seq] = int32(seq)
		case p >= 0:
			t.root[seq] = t.root[p]
		}
	}
}

func (t *desTracer) close(now int64) {
	if t.cur < 0 {
		return
	}
	t.src.Agg.add(t.curLabel, 1, now-t.curStart)
	t.file.store(t.src, span{
		ID: int64(t.cur), Name: t.curLabel, StartNs: t.curStart, EndNs: now,
		Parent: int64(t.parent[t.cur]), TraceID: int64(t.root[t.cur]),
	})
}

// finish closes the last span once Run has returned and reports the
// wall time the spans cover, first fire to now.
func (t *desTracer) finish() time.Duration {
	now := int64(time.Since(t.base))
	t.close(now)
	t.cur = -1
	return time.Duration(now - t.firstNs)
}
