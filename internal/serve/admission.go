package serve

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"fedwcm/internal/dispatch"
	"fedwcm/internal/obs"
)

// TenantHeader names the tenant a submission is accounted against for
// admission control. Requests without it share the "default" tenant, so
// single-tenant deployments need no client changes.
const TenantHeader = "X-Tenant"

// defaultTenant buckets unlabelled traffic.
const defaultTenant = "default"

// AdmissionConfig bounds what the run/sweep submission APIs accept. The
// zero value disables admission control entirely — every existing
// deployment and test keeps its behaviour until a limit is asked for.
type AdmissionConfig struct {
	// TenantRPS is the sustained submissions/second each tenant may make
	// (POST /v1/runs and POST /v1/sweeps share the budget). 0 disables
	// rate limiting.
	TenantRPS float64
	// TenantBurst is the token-bucket capacity: how far above the sustained
	// rate a tenant may spike. 0 derives max(1, ceil(TenantRPS)).
	TenantBurst int
	// MaxPending sheds submissions while the executor's queue holds at
	// least this many undispatched jobs — backpressure from the control
	// plane itself, shared by all tenants. 0 disables.
	MaxPending int
	// MaxTenants bounds the tracked bucket set (an unauthenticated header
	// must not grow server memory without limit); 0 = 1024. Over the cap
	// the least-recently-seen bucket is recycled, which at worst briefly
	// refreshes a hostile tenant's budget — never starves an honest one.
	MaxTenants int
}

// enabled reports whether any limit is configured.
func (c AdmissionConfig) enabled() bool { return c.TenantRPS > 0 || c.MaxPending > 0 }

// admission is the gate in front of the submission handlers: a per-tenant
// token bucket plus an executor queue-depth check. Rejections are 429s
// with a Retry-After the client can trust.
type admission struct {
	cfg     AdmissionConfig
	pending func() int // executor queue depth; nil when unknowable

	mu      sync.Mutex
	buckets map[string]*bucket

	admitted *obs.Counter
	rejected *obs.CounterVec
}

type bucket struct {
	tokens float64
	last   time.Time // last refill
}

// newAdmission builds the gate, or nil when cfg asks for nothing.
func newAdmission(cfg AdmissionConfig, pending func() int, reg *obs.Registry) *admission {
	if !cfg.enabled() {
		return nil
	}
	if cfg.TenantBurst <= 0 {
		cfg.TenantBurst = int(math.Max(1, math.Ceil(cfg.TenantRPS)))
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 1024
	}
	a := &admission{cfg: cfg, pending: pending, buckets: make(map[string]*bucket)}
	if reg != nil {
		a.admitted = reg.Counter("fedwcm_serve_admission_admitted_total",
			"Run/sweep submissions that passed admission control.")
		a.rejected = reg.CounterVec("fedwcm_serve_admission_rejected_total",
			"Run/sweep submissions shed by admission control, by reason (rate, backpressure).", "reason")
		reg.GaugeFunc("fedwcm_serve_admission_tenants", "Tenant token buckets currently tracked.", func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return float64(len(a.buckets))
		})
	}
	return a
}

// admit charges one submission to the request's tenant. ok=false carries
// the rejection reason and how long the client should wait before trying
// again.
func (a *admission) admit(req *http.Request) (retryAfter time.Duration, reason string, ok bool) {
	// Backpressure first: when the queue is saturated, tokens must not be
	// spent on a request that would be shed anyway.
	if a.cfg.MaxPending > 0 && a.pending != nil && a.pending() >= a.cfg.MaxPending {
		if a.rejected != nil {
			a.rejected.With("backpressure").Inc()
		}
		// Queue drain time is unknowable from here; a short constant keeps
		// honest clients cheap to retry without thundering back instantly.
		return 2 * time.Second, "backpressure", false
	}
	if a.cfg.TenantRPS > 0 {
		tenant := req.Header.Get(TenantHeader)
		if tenant == "" {
			tenant = defaultTenant
		}
		now := time.Now()
		a.mu.Lock()
		b := a.buckets[tenant]
		if b == nil {
			a.evictLocked()
			b = &bucket{tokens: float64(a.cfg.TenantBurst), last: now}
			a.buckets[tenant] = b
		}
		b.tokens = math.Min(float64(a.cfg.TenantBurst), b.tokens+now.Sub(b.last).Seconds()*a.cfg.TenantRPS)
		b.last = now
		if b.tokens < 1 {
			wait := time.Duration((1 - b.tokens) / a.cfg.TenantRPS * float64(time.Second))
			a.mu.Unlock()
			if a.rejected != nil {
				a.rejected.With("rate").Inc()
			}
			return wait, "rate", false
		}
		b.tokens--
		a.mu.Unlock()
	}
	if a.admitted != nil {
		a.admitted.Inc()
	}
	return 0, "", true
}

// evictLocked makes room for one more bucket when the tenant cap is hit,
// recycling the least-recently-seen entry. Caller holds a.mu.
func (a *admission) evictLocked() {
	if len(a.buckets) < a.cfg.MaxTenants {
		return
	}
	var oldest string
	var oldestAt time.Time
	for k, b := range a.buckets {
		if oldest == "" || b.last.Before(oldestAt) {
			oldest, oldestAt = k, b.last
		}
	}
	delete(a.buckets, oldest)
}

// admitted wraps a submission handler with the gate; with no gate
// configured it is the handler itself, untouched.
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	if s.adm == nil {
		return h
	}
	return func(w http.ResponseWriter, req *http.Request) {
		retryAfter, reason, ok := s.adm.admit(req)
		if !ok {
			secs := int(math.Ceil(retryAfter.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
			obs.HTTPError(w, http.StatusTooManyRequests, "submission shed (%s); retry after %ds", reason, secs)
			return
		}
		h(w, req)
	}
}

// execPending reads the executor's undispatched queue depth for the
// backpressure check: the Coordinator exports it via Stats, dispatch.Local
// via Pending. Both are matched by method set, not by type, so an executor
// that wraps one (the benchmark's tracing shim embeds a Coordinator) keeps
// its backpressure. An executor exposing neither reads as empty and
// backpressure never triggers.
func (s *Server) execPending() int {
	switch e := s.eng.Executor.(type) {
	case interface {
		Stats() dispatch.CoordinatorStats
	}:
		return e.Stats().Pending
	case interface{ Pending() int }:
		return e.Pending()
	}
	return 0
}
