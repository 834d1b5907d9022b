package fl

import (
	"sync"

	"fedwcm/internal/obs"
)

// RunMetrics is the fl-layer instrumentation bundle: every handle is
// resolved once at construction, so the round loop touches only atomic
// counters and histograms — zero allocations and no registry lookups on
// the hot path. Built over a nil registry it is a complete no-op (all
// handles nil), which is how the golden-history tests prove
// instrumentation cannot influence trajectories. Every run in the process
// shares it, so it holds only series that sum across runs; a run's own
// readings are its RoundStats.
type RunMetrics struct {
	Rounds         *obs.Counter   // fedwcm_fl_rounds_total
	RoundSeconds   *obs.Histogram // fedwcm_fl_round_seconds
	ClientSeconds  *obs.Histogram // fedwcm_fl_client_step_seconds
	ClientsTrained *obs.Counter   // fedwcm_fl_client_steps_total
	Dropped        *obs.Counter   // fedwcm_fl_clients_dropped_total
	Stragglers     *obs.Counter   // fedwcm_fl_stragglers_total (WorkFrac < 1)
}

// NewRunMetrics resolves the fl metric family on reg. A nil reg returns a
// usable all-no-op bundle.
func NewRunMetrics(reg *obs.Registry) *RunMetrics {
	m := &RunMetrics{}
	if reg == nil {
		return m
	}
	m.Rounds = reg.Counter("fedwcm_fl_rounds_total", "Federated rounds completed.")
	m.RoundSeconds = reg.Histogram("fedwcm_fl_round_seconds", "Wall-clock duration of one federated round.", nil)
	m.ClientSeconds = reg.Histogram("fedwcm_fl_client_step_seconds", "Wall-clock duration of one client's local training.", nil)
	m.ClientsTrained = reg.Counter("fedwcm_fl_client_steps_total", "Client local-training executions.")
	m.Dropped = reg.Counter("fedwcm_fl_clients_dropped_total", "Sampled clients that dropped before training.")
	m.Stragglers = reg.Counter("fedwcm_fl_stragglers_total", "Sampled clients trained with a partial work fraction.")
	return m
}

var (
	defaultRunMetrics     *RunMetrics
	defaultRunMetricsOnce sync.Once
)

// DefaultRunMetrics returns the process-wide bundle over obs.Default().
// The engine falls back to it when Env.Metrics is unset, so instrumentation
// is on by default everywhere (including benchmarks — the hot path is
// allocation-free by design, and BenchmarkRoundHotPath holds that floor).
func DefaultRunMetrics() *RunMetrics {
	defaultRunMetricsOnce.Do(func() { defaultRunMetrics = NewRunMetrics(obs.Default()) })
	return defaultRunMetrics
}
