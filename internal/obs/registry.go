// Package obs is the unified observability layer: a zero-dependency
// metrics registry with Prometheus text exposition, a ring-buffer span
// tracer with run-fingerprint trace IDs, structured-logging helpers over
// log/slog, and the HTTP surface that exposes all of it (/metrics,
// /healthz, /readyz, /debug/trace, /debug/pprof).
//
// Design constraints, in order:
//
//   - Allocation-free on the hot path. Counters, gauges and histograms are
//     single atomic words (histograms: one word per bucket); label lookups
//     happen once at setup time (With interns a child and callers cache the
//     handle), never per observation.
//   - Nil-safe handles. A nil *Counter/*Gauge/*Histogram (and a nil
//     *Registry, whose constructors return nil handles) is a no-op, so
//     instrumented code paths never branch on "is observability enabled" —
//     they just call through. The no-op registry used by golden tests is
//     literally (*Registry)(nil).
//   - Stdlib only. Exposition is hand-rolled Prometheus text format
//     (version 0.0.4), logging is log/slog, profiling is net/http/pprof,
//     process metrics come from runtime/metrics.
//
// Metric naming follows fedwcm_<layer>_<what>[_<unit>][_total]: the layer
// prefix (http, serve, dispatch, worker, store, envcache, fl, go) locates the
// subsystem, durations are seconds, sizes are bytes, and monotonic series
// end in _total. See docs/API.md for the full series reference.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil Counter is a no-op (the disabled-observability path).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down, stored as atomic bits.
// A nil Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Add adds delta (CAS loop; contended adds retry).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nu := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nu) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (cumulative on
// exposition, per-bucket internally). Observe is lock-free: a binary search
// over the upper bounds plus three atomic adds. A nil Histogram is a no-op.
type Histogram struct {
	upper   []float64 // sorted upper bounds; +Inf bucket is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// DefBuckets covers request/round latencies from 100µs to ~100s.
var DefBuckets = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound >= v; everything above lands in +Inf.
	lo, hi := 0, len(h.upper)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.upper[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nu := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nu) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// metric families ---------------------------------------------------------

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one labelled time series inside a family: exactly one of the
// value fields is set. fn-backed series (CounterFunc/GaugeFunc) read their
// value at exposition time, so JSON status endpoints and /metrics can share
// one source of truth.
type series struct {
	labels string // pre-rendered `{k="v",...}`, or "" for the unlabelled series
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

type family struct {
	name, help, typ string
	labelNames      []string
	buckets         []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series
	order  []string // insertion order, for stable exposition
}

// child returns (creating if needed) the series for the given label values.
func (f *family) child(lvs []string, make_ func() *series) *series {
	if len(lvs) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %s expects %d label values, got %d", f.name, len(f.labelNames), len(lvs)))
	}
	key := strings.Join(lvs, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := make_()
	s.labels = renderLabels(f.labelNames, lvs)
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is idempotent: asking for an existing
// name returns the existing metric (types must match — a conflict panics,
// it is a programming error). A nil *Registry hands out nil handles, so
// "no registry" and "no-op metrics" are the same thing.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

var (
	defaultReg  *Registry
	defaultOnce sync.Once
)

// Default returns the process-wide registry, creating it (with the Go
// runtime metrics pre-registered) on first use. Binaries expose it at
// /metrics; components fall back to it when configured with a nil registry
// is not intended (tests that need isolation pass their own).
func Default() *Registry {
	defaultOnce.Do(func() {
		defaultReg = NewRegistry()
		RegisterRuntimeMetrics(defaultReg)
	})
	return defaultReg
}

// family returns (creating if needed) the named family, checking type and
// label agreement.
func (r *Registry) family(name, help, typ string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, typ, f.typ))
		}
		if len(f.labelNames) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered with %d labels (was %d)", name, len(labels), len(f.labelNames)))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labelNames: labels, buckets: buckets,
		series: make(map[string]*series),
	}
	r.fams[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter returns the registered counter, creating it if needed.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.family(name, help, typeCounter, nil, nil)
	return f.child(nil, func() *series { return &series{c: &Counter{}} }).c
}

// Gauge returns the registered gauge, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.family(name, help, typeGauge, nil, nil)
	return f.child(nil, func() *series { return &series{g: &Gauge{}} }).g
}

// Histogram returns the registered histogram, creating it if needed.
// buckets nil selects DefBuckets; bounds must be sorted ascending.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.family(name, help, typeHistogram, nil, buckets)
	return f.child(nil, func() *series { return newHistogramSeries(f.buckets) }).h
}

func newHistogramSeries(buckets []float64) *series {
	return &series{h: &Histogram{
		upper:   buckets,
		buckets: make([]atomic.Uint64, len(buckets)+1),
	}}
}

// CounterFunc registers a counter whose value is read from fn at exposition
// time — the bridge for components that already keep their own counters
// (store.Stats, EnvCache.Stats), so the series cannot drift from the struct.
// Re-registering replaces fn (the newest component instance wins).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.family(name, help, typeCounter, nil, nil)
	s := f.child(nil, func() *series { return &series{} })
	f.mu.Lock()
	s.fn = fn
	f.mu.Unlock()
}

// GaugeFunc registers a gauge read from fn at exposition time (queue
// depths, cache entry counts, goroutine counts). Re-registering replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.family(name, help, typeGauge, nil, nil)
	s := f.child(nil, func() *series { return &series{} })
	f.mu.Lock()
	s.fn = fn
	f.mu.Unlock()
}

// CounterVec is a counter family with labels. Resolve children once with
// With and cache the handle — With takes the family lock.
type CounterVec struct{ f *family }

// CounterVec returns the labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.family(name, help, typeCounter, labels, nil)}
}

// With returns the child counter for the given label values (interned).
func (v *CounterVec) With(lvs ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(lvs, func() *series { return &series{c: &Counter{}} }).c
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the labelled histogram family (buckets nil selects
// DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.family(name, help, typeHistogram, labels, buckets)}
}

// With returns the child histogram for the given label values (interned).
func (v *HistogramVec) With(lvs ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.child(lvs, func() *series { return newHistogramSeries(v.f.buckets) }).h
}

// snapshotFamilies returns families in registration order; label series
// within a family come out in insertion order. Exposition sorts family
// names so scrapes are diff-stable across processes.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()
	return fams
}
