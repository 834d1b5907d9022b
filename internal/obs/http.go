package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// HTTPMetrics instruments an HTTP mux: request counts and latency by route,
// plus an in-flight gauge. Routes are the static patterns handlers were
// registered under (never raw URLs), so label cardinality stays bounded.
type HTTPMetrics struct {
	reqs     *CounterVec
	latency  *HistogramVec
	inFlight *Gauge
}

// NewHTTPMetrics registers the http-layer series on reg (nil reg → no-op).
func NewHTTPMetrics(reg *Registry) *HTTPMetrics {
	if reg == nil {
		return nil
	}
	return &HTTPMetrics{
		reqs:     reg.CounterVec("fedwcm_http_requests_total", "HTTP requests served, by route and status code.", "route", "code"),
		latency:  reg.HistogramVec("fedwcm_http_request_seconds", "HTTP request latency in seconds, by route.", nil, "route"),
		inFlight: reg.Gauge("fedwcm_http_in_flight", "HTTP requests currently being served."),
	}
}

// statusRecorder captures the response code written by the wrapped handler.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer when it supports flushing; SSE
// handlers depend on it.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Wrap instruments handler under the given route label. A nil receiver
// returns handler unchanged.
func (m *HTTPMetrics) Wrap(route string, handler http.Handler) http.Handler {
	if m == nil {
		return handler
	}
	lat := m.latency.With(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.inFlight.Inc()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		handler.ServeHTTP(rec, r)
		m.inFlight.Dec()
		lat.Observe(time.Since(start).Seconds())
		m.reqs.With(route, statusText(rec.code)).Inc()
	})
}

// statusText maps codes to label values without fmt (hot path).
func statusText(code int) string {
	switch code {
	case 200:
		return "200"
	case 202:
		return "202"
	case 204:
		return "204"
	case 400:
		return "400"
	case 404:
		return "404"
	case 409:
		return "409"
	case 500:
		return "500"
	}
	// Rare codes allocate; bounded by the handful of codes the API emits.
	return itoa3(code)
}

func itoa3(code int) string {
	if code < 0 || code > 999 {
		return "000"
	}
	b := [3]byte{byte('0' + code/100), byte('0' + code/10%10), byte('0' + code%10)}
	return string(b[:])
}

// jsonBuf is a pooled response buffer with its encoder.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// jsonBufs holds WriteJSON's buffers. One that grew past maxPooledJSON (a
// large sweep's status listing) is left to the GC, so a rare big body does
// not pin its memory.
var jsonBufs = sync.Pool{New: func() any {
	jb := new(jsonBuf)
	jb.enc = json.NewEncoder(&jb.buf)
	return jb
}}

const maxPooledJSON = 64 << 10

// WriteJSON is the one JSON response writer of the API surface (run/sweep
// endpoints in internal/serve, the worker protocol in internal/dispatch). It
// encodes v, and its trailing newline, before touching the response, so an
// encode failure (e.g. a NaN in a diverged run's history — encoding/json
// rejects NaN) turns into a well-formed 500 instead of a 200 with a
// truncated body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	jb := jsonBufs.Get().(*jsonBuf)
	defer func() {
		if jb.buf.Cap() <= maxPooledJSON {
			jb.buf.Reset()
			jsonBufs.Put(jb)
		}
	}()
	if err := jb.enc.Encode(v); err != nil {
		jb.enc.Encode(map[string]string{"error": "encoding response: " + err.Error()})
		code = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(jb.buf.Bytes())
}

// HTTPError writes the API's error shape: {"error": "<formatted message>"}.
func HTTPError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Mount registers the observability HTTP surface on mux:
//
//	GET /metrics       Prometheus text exposition of reg
//	GET /healthz       200 once the process is up (liveness)
//	GET /readyz        200 when ready() (nil ready → always); 503 otherwise
//	GET /debug/trace   JSONL span dump from tracer (?trace=<id> filters)
//	GET /debug/pprof/  the standard pprof index, profiles and symbolizers
//
// All three binaries (fedserve, its -remote coordinator mode, and -worker
// processes) mount the same surface, so fleet-wide scraping and profiling
// is uniform.
func Mount(mux *http.ServeMux, reg *Registry, tracer *Tracer, ready func() bool) {
	mux.Handle("GET /metrics", reg.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if ready != nil && !ready() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ready\n"))
	})
	if tracer != nil {
		mux.Handle("GET /debug/trace", tracer.Handler())
	}
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// RegisterRuntimeMetrics registers process-level gauges (goroutines, heap
// bytes) read at scrape time.
func RegisterRuntimeMetrics(reg *Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("fedwcm_go_goroutines", "Number of live goroutines.", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	reg.GaugeFunc("fedwcm_go_heap_bytes", "Heap memory in use, from runtime/metrics.", runtimeSampler("/memory/classes/heap/objects:bytes"))
}

// runtimeSampler returns a closure sampling one runtime/metrics value.
func runtimeSampler(name string) func() float64 {
	sample := []metrics.Sample{{Name: name}}
	return func() float64 {
		metrics.Read(sample)
		switch sample[0].Value.Kind() {
		case metrics.KindUint64:
			return float64(sample[0].Value.Uint64())
		case metrics.KindFloat64:
			return sample[0].Value.Float64()
		}
		return 0
	}
}
