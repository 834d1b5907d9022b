package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// Set stores v. No production gauge is set outright (the one plain gauge,
// HTTP in-flight, moves by Inc/Dec), so only the tests' fixtures use it.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter value %d, want 42", got)
	}
	if again := r.Counter("c_total", "a counter"); again != c {
		t.Fatal("re-registering a counter must return the same handle")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(1)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 3.5 {
		t.Fatalf("gauge value %v, want 3.5", got)
	}
}

func TestNilHandlesAreNoops(t *testing.T) {
	// A nil registry hands out nil handles everywhere — the no-op
	// instrumentation path used by golden tests. None of these may panic.
	var r *Registry
	r.Counter("x", "").Inc()
	r.Gauge("x", "").Set(1)
	r.Histogram("x", "", nil).Observe(1)
	r.CounterVec("x", "", "l").With("v").Inc()
	r.HistogramVec("x", "", nil, "l").With("v").Observe(1)
	r.CounterFunc("x", "", func() float64 { return 0 })
	r.GaugeFunc("x", "", func() float64 { return 0 })
	var sb strings.Builder
	if n, err := r.WriteTo(&sb); n != 0 || err != nil {
		t.Fatalf("nil registry WriteTo = (%d, %v), want (0, nil)", n, err)
	}
	if c := r.Counter("x", ""); c.Value() != 0 {
		t.Fatal("nil counter must read zero")
	}
}

func TestConcurrentIncrements(t *testing.T) {
	// Exercised with -race in CI: counters, gauges, histograms and vec
	// children must tolerate concurrent writers without locks on the hot
	// path and still sum exactly.
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1, 10})
	vec := r.CounterVec("v_total", "", "worker")
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := vec.With("w" + string(rune('0'+w)))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 20))
				child.Inc()
				vec.With("shared").Inc()
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Errorf("gauge %v, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count %d, want %d", got, workers*perWorker)
	}
	if got := vec.With("shared").Value(); got != workers*perWorker {
		t.Errorf("shared vec child %d, want %d", got, workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		if got := vec.With("w" + string(rune('0'+w))).Value(); got != perWorker {
			t.Errorf("vec child %d: %d, want %d", w, got, perWorker)
		}
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 2, 5})
	// Boundary values land in the bucket whose upper bound they equal
	// (le is inclusive, as in Prometheus).
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 10} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count %d, want 6", got)
	}
	if got, want := h.Sum(), 0.5+1+1.5+2+3+10; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum %v, want %v", got, want)
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, line := range []string{
		`lat_bucket{le="1"} 2`,    // 0.5, 1
		`lat_bucket{le="2"} 4`,    // + 1.5, 2
		`lat_bucket{le="5"} 5`,    // + 3
		`lat_bucket{le="+Inf"} 6`, // + 10
		`lat_count 6`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestExpositionGolden(t *testing.T) {
	// Families render sorted by name with HELP/TYPE headers; label values
	// escape backslash, quote and newline; histograms expand cumulatively.
	r := NewRegistry()
	r.Gauge("aaa_gauge", "first by name").Set(1.5)
	v := r.CounterVec("bbb_total", "labelled counter", "path")
	v.With(`sp"am\n`).Add(3)
	v.With("ok").Inc()
	h := r.HistogramVec("ccc_seconds", "vec histogram", []float64{1}, "route")
	h.With("/x").Observe(0.5)
	h.With("/x").Observe(2)

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aaa_gauge first by name
# TYPE aaa_gauge gauge
aaa_gauge 1.5
# HELP bbb_total labelled counter
# TYPE bbb_total counter
bbb_total{path="sp\"am\\n"} 3
bbb_total{path="ok"} 1
# HELP ccc_seconds vec histogram
# TYPE ccc_seconds histogram
ccc_seconds_bucket{route="/x",le="1"} 1
ccc_seconds_bucket{route="/x",le="+Inf"} 2
ccc_seconds_sum{route="/x"} 2.5
ccc_seconds_count{route="/x"} 2
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestFuncMetricsLastRegistrationWins(t *testing.T) {
	// Components re-register Func metrics when rebuilt (e.g. a test server
	// per subtest over the shared default registry); the newest closure must
	// serve the scrape.
	r := NewRegistry()
	r.GaugeFunc("fn", "", func() float64 { return 1 })
	r.GaugeFunc("fn", "", func() float64 { return 2 })
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fn 2\n") {
		t.Fatalf("last registration must win:\n%s", sb.String())
	}
}

func TestRegistryConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	for name, fn := range map[string]func(){
		"type":        func() { r.Gauge("m", "") },
		"label-count": func() { r.CounterVec("m", "", "l") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s conflict must panic", name)
				}
			}()
			fn()
		}()
	}
}
