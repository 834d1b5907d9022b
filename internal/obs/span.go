package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"
)

// TraceHeader carries the trace ID across the coordinator/worker HTTP
// protocol: the coordinator stamps it on lease responses, workers echo it
// on heartbeats and uploads, and both sides attach it to their spans, so a
// run's lease/round timeline can be reassembled fleet-wide from /debug/trace
// dumps keyed by one ID.
const TraceHeader = "X-Trace-Id"

// Span is one completed timed event. Fields are fixed (no attribute map) so
// spans record without heap allocation; the Trace ID is the run fingerprint
// for run-scoped spans, tying traces to store artifacts.
type Span struct {
	Trace   string  `json:"trace"`
	Name    string  `json:"name"`
	Start   int64   `json:"start_us"` // µs since epoch
	DurMS   float64 `json:"dur_ms"`
	Worker  string  `json:"worker,omitempty"`
	Round   int     `json:"round,omitempty"`
	Attempt int     `json:"attempt,omitempty"`
	Err     string  `json:"err,omitempty"`
}

// Live is an in-flight span handle, used by value so starting and ending a
// span performs no heap allocation. Populate the optional fields between
// Start and End.
type Live struct {
	t     *Tracer
	span  Span
	start time.Time
}

// Tracer records completed spans into a fixed-size ring buffer. A nil
// Tracer is a no-op: Start returns a handle whose End does nothing, so
// instrumented paths need no enablement branches. The ring overwrites
// oldest-first; /debug/trace and store persistence read snapshots.
type Tracer struct {
	mu   sync.Mutex
	ring []Span
	next int
}

// DefaultTraceCap bounds the default tracer's ring: enough for several
// thousand rounds of spans without measurable memory cost.
const DefaultTraceCap = 4096

// NewTracer creates a tracer holding up to capacity spans (<= 0 uses
// DefaultTraceCap).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{ring: make([]Span, 0, capacity)}
}

var (
	defaultTracer     *Tracer
	defaultTracerOnce sync.Once
)

// DefaultTracer returns the process-wide tracer, creating it on first use.
func DefaultTracer() *Tracer {
	defaultTracerOnce.Do(func() { defaultTracer = NewTracer(0) })
	return defaultTracer
}

// Start begins a span. The returned handle is by-value; call End (possibly
// after setting Worker/Round/Attempt/Err via the Span field) to record it.
func (t *Tracer) Start(trace, name string) Live {
	return Live{t: t, span: Span{Trace: trace, Name: name}, start: time.Now()}
}

// End records the span (no-op for handles from a nil Tracer).
func (l Live) End() {
	if l.t == nil {
		return
	}
	l.span.Start = l.start.UnixMicro()
	l.span.DurMS = float64(time.Since(l.start)) / float64(time.Millisecond)
	l.t.record(l.span)
}

// EndErr records the span with err (if non-nil) as its error.
func (l Live) EndErr(err error) {
	if l.t == nil {
		return
	}
	if err != nil {
		l.span.Err = err.Error()
	}
	l.End()
}

// WithRound sets the round number on the in-flight span.
func (l Live) WithRound(round int) Live { l.span.Round = round; return l }

func (t *Tracer) record(s Span) {
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.next] = s
		t.next = (t.next + 1) % cap(t.ring)
	}
	t.mu.Unlock()
}

// Record adds an already-assembled span (used when replaying spans shipped
// from another process). A nil Tracer drops it.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.record(s)
}

// Spans returns a snapshot of the buffered spans, oldest first. A nil
// Tracer returns nil.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	if len(t.ring) == cap(t.ring) {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// Collect returns the buffered spans for one trace ID, oldest first. It
// filters under the ring lock and allocates only its matches — it runs once
// per completed cell, where a snapshot of the whole ring would dominate the
// cell's allocation. A nil Tracer returns nil.
func (t *Tracer) Collect(trace string) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	start := 0
	if len(t.ring) == cap(t.ring) {
		start = t.next // wrapped: the oldest span sits at the write cursor
	}
	for _, part := range [2][]Span{t.ring[start:], t.ring[:start]} {
		for i := range part {
			if part[i].Trace == trace {
				out = append(out, part[i])
			}
		}
	}
	return out
}

// WriteJSONL dumps the buffered spans as JSON lines, oldest first,
// optionally filtered to one trace ID.
func (t *Tracer) WriteJSONL(w io.Writer, trace string) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.Spans() {
		if trace != "" && s.Trace != trace {
			continue
		}
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Handler returns the /debug/trace endpoint: JSONL of buffered spans,
// filterable with ?trace=<id>.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		t.WriteJSONL(w, req.URL.Query().Get("trace"))
	})
}
