package serve

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// TestMetricsEndpointCoversAllLayers runs one real cell through the server's
// default local-dispatch path and asserts a single /metrics scrape surfaces
// series from every instrumented layer: serve (HTTP + SSE + run gauges),
// dispatch (the coordinator behind the local backend), sweep (env cache), store, fl engine, and the Go
// runtime — the fedserve process view an operator actually scrapes.
func TestMetricsEndpointCoversAllLayers(t *testing.T) {
	// nil Metrics in Config resolves to obs.Default(), exactly as the
	// fedserve binary runs; fl engine metrics land there too via
	// DefaultRunMetrics, so the scrape is the full process view.
	_, ts := newTestServer(t, Config{})

	// The cell carries the collapse probe: its readings are ordinary per-round
	// metrics, so they reach the served history and the diag gauges with no
	// series code of their own.
	spec := tinySpec()
	spec.Probes = []string{"collapse"}
	_, first := postSpec(t, ts, spec)
	done := waitTerminal(t, ts, first.ID)
	if done.Status == StatusFailed {
		t.Fatalf("run failed: %+v", done)
	}
	if st := done.History.Stats; len(st) != 2 || st[0].Metrics["concentration"] < 1 || st[1].Metrics["concentration"] < 1 {
		t.Fatalf("served history carries %+v, want a concentration reading ≥ 1 per evaluation", st)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed exposition line %q", line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		series[name] = f
	}

	// Counters that this test's own traffic must have moved (>= because the
	// default registry is process-wide and other tests may add to it).
	for _, name := range []string{
		`fedwcm_http_requests_total{route="/v1/runs",code="202"}`, // serve: counter
		`fedwcm_http_request_seconds_count{route="/v1/runs"}`,     // serve: histogram
		`fedwcm_dispatch_uploads_total{status="stored"}`,          // dispatch: counter
		"fedwcm_store_puts_total",                                 // store: counter
		"fedwcm_store_put_seconds_count",                          // store: histogram
		"fedwcm_store_put_bytes_total",                            // store: bytes
		"fedwcm_envcache_misses_total",                            // sweep env cache: counter
		"fedwcm_fl_rounds_total",                                  // fl engine: counter
		"fedwcm_fl_round_seconds_count",                           // fl engine: histogram
		"fedwcm_fl_client_steps_total",                            // fl engine: per-client counter
	} {
		if series[name] < 1 {
			t.Errorf("%s = %v, want >= 1", name, series[name])
		}
	}
	// Gauges and runtime series that must at least be present in the scrape.
	for _, name := range []string{
		"fedwcm_serve_runs_active",               // serve: gauge
		"fedwcm_serve_sweeps_tracked",            // serve: gauge
		"fedwcm_dispatch_queue_depth",            // dispatch: gauge
		"fedwcm_envcache_entries",                // sweep env cache: gauge
		"fedwcm_fl_test_acc",                     // fl engine: gauge
		`fedwcm_fl_diag{metric="concentration"}`, // fl engine: probe reading
		"fedwcm_go_goroutines",                   // runtime
		"fedwcm_go_heap_bytes",                   // runtime
	} {
		if _, ok := series[name]; !ok {
			t.Errorf("scrape is missing %s", name)
		}
	}

	// The health surface mounted alongside /metrics answers on the same mux.
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != want {
			t.Errorf("%s: HTTP %d, want %d", path, r.StatusCode, want)
		}
	}
}
