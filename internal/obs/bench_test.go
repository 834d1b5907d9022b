package obs

import (
	"io"
	"strconv"
	"testing"
)

// populatedRegistry approximates a busy fedserve process: a few dozen
// counters/gauges, labelled vecs and latency histograms with data in every
// bucket.
func populatedRegistry() *Registry {
	r := NewRegistry()
	for i := 0; i < 30; i++ {
		c := r.Counter("bench_counter_"+strconv.Itoa(i)+"_total", "bench counter")
		c.Add(uint64(i * 17))
		r.Gauge("bench_gauge_"+strconv.Itoa(i), "bench gauge").Set(float64(i) * 0.5)
	}
	for i := 0; i < 8; i++ {
		h := r.Histogram("bench_hist_"+strconv.Itoa(i)+"_seconds", "bench histogram", DefBuckets)
		for j := 0; j < 64; j++ {
			h.Observe(float64(j) * 0.01)
		}
	}
	v := r.CounterVec("bench_vec_total", "bench vec", "route", "code")
	hv := r.HistogramVec("bench_vec_seconds", "bench vec histogram", DefBuckets, "route")
	for _, route := range []string{"/v1/runs", "/v1/sweeps", "/v1/runs/{id}", "/metrics"} {
		for _, code := range []string{"200", "202", "404"} {
			v.With(route, code).Add(9)
		}
		hv.With(route).Observe(0.02)
	}
	return r
}

// BenchmarkMetricsExposition is the /metrics scrape cost: one full text
// exposition of a realistically sized registry.
func BenchmarkMetricsExposition(b *testing.B) {
	r := populatedRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// hotPath is the per-event instrumentation the fl engine and dispatch hit
// every round: counter inc, gauge set, histogram observe, and a
// pre-resolved vec child.
func hotPath() func(i int) {
	r := NewRegistry()
	c := r.Counter("hot_total", "")
	g := r.Gauge("hot_gauge", "")
	h := r.Histogram("hot_seconds", "", DefBuckets)
	child := r.CounterVec("hot_vec_total", "", "worker").With("w1")
	return func(i int) {
		c.Inc()
		g.Set(float64(i))
		h.Observe(float64(i&63) * 0.01)
		child.Inc()
	}
}

// BenchmarkMetricsHotPath is the per-event instrumentation cost.
func BenchmarkMetricsHotPath(b *testing.B) {
	event := hotPath()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		event(i)
	}
}

// TestMetricsHotPathAllocatesNothing: the fl engine observes every round
// through these calls, so they must stay allocation-free.
func TestMetricsHotPathAllocatesNothing(t *testing.T) {
	event := hotPath()
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() { event(i); i++ }); allocs != 0 {
		t.Fatalf("metrics hot path: %v allocs per event, want 0", allocs)
	}
}

// BenchmarkMetricsVecLookup includes the label-resolution path (With on a
// warm cache), the cost paid when call sites cannot pre-resolve children.
func BenchmarkMetricsVecLookup(b *testing.B) {
	r := NewRegistry()
	v := r.CounterVec("lookup_total", "", "status")
	v.With("stored").Inc() // warm the intern cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.With("stored").Inc()
	}
}
