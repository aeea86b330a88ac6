package main

import (
	"encoding/json"
	"io"
	"runtime/metrics"
	"strings"
	"time"
)

// span is one timed call into a layer's public API. Spans nest: a call
// made while another span is open becomes its child, so a layer's self
// time is its duration minus the part its children cover.
type span struct {
	name       string // "<layer>.<op>", e.g. "engine.measure"
	parent     int    // index of the enclosing span, -1 at top level
	start, end time.Duration
	allocStart uint64 // heap bytes allocated by the process so far
	allocEnd   uint64
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps the spans of one traced run in memory. The traced runs
// are sequential, so one stack of open spans is enough. A nil *tracer
// records nothing, which is how the untraced path calls the same code.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocBytes() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if k := len(t.open); k > 0 {
		parent = t.open[k-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent,
		allocStart: t.allocBytes(), start: time.Since(t.origin)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans close in LIFO order.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.end = time.Since(t.origin)
	s.allocEnd = t.allocBytes()
	t.open = t.open[:len(t.open)-1]
}

// layerTimes folds the spans into per-name totals: inclusive duration,
// self duration (minus direct children), self allocated bytes and call
// count. top is the summed duration of top-level spans, which never
// overlap in a sequential run, so top / wall is the trace's coverage.
type layerTotal struct {
	incl, self time.Duration
	selfAlloc  uint64
	calls      int
}

func (t *tracer) layerTimes() (map[string]*layerTotal, time.Duration) {
	childDur := make([]time.Duration, len(t.spans))
	childAlloc := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childDur[s.parent] += s.dur()
			childAlloc[s.parent] += s.allocEnd - s.allocStart
		}
	}
	out := make(map[string]*layerTotal)
	var top time.Duration
	for i, s := range t.spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.name] = lt
		}
		lt.incl += s.dur()
		lt.self += s.dur() - childDur[i]
		lt.selfAlloc += s.allocEnd - s.allocStart - childAlloc[i]
		lt.calls++
		if s.parent < 0 {
			top += s.dur()
		}
	}
	return out, top
}

// traceEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON.
func (t *tracer) writeChrome(w io.Writer, meta map[string]any) error {
	events := make([]traceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, traceEvent{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"alloc_bytes": s.allocEnd - s.allocStart},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	})
}

// layerOf returns the layer part of a span name ("engine.measure" ->
// "engine").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
