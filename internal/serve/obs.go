package serve

import (
	"fedwcm/internal/obs"
)

// serveMetrics is the server's handle set, resolved once in New. Sweep cell
// terminations are counted where the driver reports them (feed, next to
// finishCell), so /metrics and /v1/sweeps/{id} cannot diverge.
type serveMetrics struct {
	http  *obs.HTTPMetrics
	cells *obs.CounterVec // sweep cells reaching a terminal state, by status
}

func newServeMetrics(reg *obs.Registry, s *Server) serveMetrics {
	if reg == nil {
		return serveMetrics{}
	}
	reg.GaugeFunc("fedwcm_serve_runs_active", "Job records the dispatch backend holds in memory (live, failed, or finished but not stored).", func() float64 {
		if r, ok := s.eng.Executor.(interface{ Records() int }); ok {
			return float64(r.Records())
		}
		return 0
	})
	reg.GaugeFunc("fedwcm_serve_sweeps_tracked", "Sweep records held in memory.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.sweeps))
	})
	return serveMetrics{
		http:  obs.NewHTTPMetrics(reg),
		cells: reg.CounterVec("fedwcm_serve_sweep_cells_total", "Sweep cells reaching a terminal state, by status.", "status"),
	}
}
