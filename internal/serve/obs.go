package serve

import (
	"fedwcm/internal/obs"
)

// serveMetrics is the server's handle set, resolved once in New. Sweep cell
// terminations are counted where the driver reports them (feed, next to
// finishCell), so /metrics and /v1/sweeps/{id} cannot diverge.
type serveMetrics struct {
	http      *obs.HTTPMetrics
	sseRuns   *obs.Gauge      // live /v1/runs/{id}/events subscribers
	sseSweeps *obs.Gauge      // live /v1/sweeps/{id}/events subscribers
	cells     *obs.CounterVec // sweep cells reaching a terminal state, by status

	// Binary-transport accounting for Accept-negotiated run responses. The
	// same family names are registered by dispatch's coordinator and worker;
	// on a shared registry they resolve to one family.
	wireBytes  *obs.CounterVec
	wireEncode *obs.Histogram
}

func newServeMetrics(reg *obs.Registry, s *Server) serveMetrics {
	if reg == nil {
		return serveMetrics{}
	}
	reg.GaugeFunc("fedwcm_serve_runs_active", "Run records held in memory (in-flight or failed).", func() float64 {
		return float64(s.eng.Inflight())
	})
	reg.GaugeFunc("fedwcm_serve_sweeps_tracked", "Sweep records held in memory.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.sweeps))
	})
	return serveMetrics{
		http:       obs.NewHTTPMetrics(reg),
		sseRuns:    reg.Gauge("fedwcm_serve_sse_run_subscribers", "Open SSE streams on /v1/runs/{id}/events."),
		sseSweeps:  reg.Gauge("fedwcm_serve_sse_sweep_subscribers", "Open SSE streams on /v1/sweeps/{id}/events."),
		cells:      reg.CounterVec("fedwcm_serve_sweep_cells_total", "Sweep cells reaching a terminal state, by status.", "status"),
		wireBytes:  reg.CounterVec("fedwcm_wire_bytes_total", "Wire-codec payload bytes moved, by message kind and direction (tx/rx).", "kind", "dir"),
		wireEncode: reg.Histogram("fedwcm_wire_encode_seconds", "Latency of wire-codec encodes.", nil),
	}
}

// observeWireEncode counts one wire-encoded response body (nil-safe on an
// unmetered server).
func (sm serveMetrics) observeWireEncode(kind string, n int, seconds float64) {
	if sm.wireBytes == nil {
		return
	}
	sm.wireBytes.With(kind, "tx").Add(uint64(n))
	sm.wireEncode.Observe(seconds)
}
