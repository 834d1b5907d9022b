// Package serve exposes the experiment harness as an HTTP service: specs
// come in as JSON, run ids are spec fingerprints, and every cell — a direct
// run or one of a sweep's — is resolved by one sweep.Engine (a store hit,
// or one submit to the dispatch backend, which joins the cell's execution
// if one is live), so a grid cell is computed at most once no matter how
// many clients ask for it. A run's status, progress and SSE stream are read
// from the backend's job handle (dispatch.Handle), the one record of its
// execution. This package owns what is HTTP: request decoding, sweep
// records and their eviction, and SSE streams.
//
// Endpoints (full reference with examples in docs/API.md):
//
//	POST /v1/runs               submit a RunSpec; cache hits return the
//	                            stored history immediately (status
//	                            "cached"), misses are queued on a bounded
//	                            worker pool (202)
//	GET  /v1/runs/{id}          status + progress + history for a run id
//	GET  /v1/runs/{id}/events   SSE per-round progress ("round" events, then
//	                            one terminal "done" event)
//	POST /v1/sweeps             submit a sweep.Spec grid; cells hit the
//	                            store or queue behind in-flight runs
//	GET  /v1/sweeps/{id}        per-cell status: cached / queued / running /
//	                            done / failed
//	GET  /v1/sweeps/{id}/result aggregated mean±std groups + rendered table
//	                            (202 while cells are still running)
//	GET  /v1/sweeps/{id}/events SSE per-cell completion ("cell" events, then
//	                            one terminal "done" event)
//	GET  /v1/experiments        registry listing: experiment ids, methods,
//	                            datasets
//
// Execution is delegated to a dispatch.Executor — an in-process bounded
// pool by default, or a remote-worker coordinator (fedserve -remote) whose
// lease endpoints this server mounts alongside the public API. Either way
// the executor's queue bounds memory: a full queue rejects direct run
// submissions with 503, while accepted sweeps trickle their cells in as
// space frees up.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"fedwcm/internal/data"
	"fedwcm/internal/dispatch"
	"fedwcm/internal/experiments"
	"fedwcm/internal/fl"
	"fedwcm/internal/fl/methods"
	"fedwcm/internal/obs"
	"fedwcm/internal/store"
	"fedwcm/internal/sweep"
)

// Config wires a Server.
type Config struct {
	Store *store.Store // required: result cache and artifact store
	// Executor, when set, is the dispatch backend runs execute on (e.g. a
	// dispatch.Coordinator for the remote-worker mode; its worker endpoints
	// are mounted automatically). The server owns it from here on: Close
	// closes it. Nil builds a dispatch.Local from the fields below.
	Executor   dispatch.Executor
	Workers    int // local backend: concurrent training runs; 0 = 2
	QueueDepth int // local backend: queued (not yet running) submissions; 0 = 64
	// Envs backs environment construction for the local backend's runner:
	// runs and sweep cells sharing a dataset+partition sub-spec build it
	// once. Nil gets a fresh cache of DefaultEnvCacheCap; ignored by an
	// Executor set above (the cache counters then stay zero).
	Envs *sweep.EnvCache
	// Logf defaults to the unified slog route (obs.Logf("serve")).
	Logf func(format string, args ...any)
	// Metrics receives the server's series (HTTP, sweep cells, the local
	// backend's dispatch series, the store's and the env cache's) and is the
	// registry /metrics serves; nil uses the process default, obs.Default().
	// Training's fedwcm_fl_* series always land on obs.Default(), through
	// fl.DefaultRunMetrics, whatever is passed here: fl.Env takes no metrics
	// bundle from outside its package. So a server built on obs.NewRegistry() scrapes no fl
	// series (and no fedwcm_go_* series, which only obs.Default() registers).
	// Tracer backs /debug/trace; nil uses the process default tracer.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
}

// Server is the run service. Create with New, serve with net/http, stop
// with Close.
type Server struct {
	cfg Config
	mux *http.ServeMux
	eng *sweep.Engine // resolves every cell, over the dispatch backend and cfg.Store

	mu         sync.Mutex
	sweeps     map[string]*sweepRun // sweep fingerprint → in-process record
	sweepOrder []*sweepRun          // the records of sweeps, oldest first
	closing    bool                 // set by Close under mu; no new sweep once true

	feedWg sync.WaitGroup // sweep feeders

	sm serveMetrics
}

// New validates cfg, builds (or adopts) the dispatch backend and returns
// the server.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: Config.Store is required")
	}
	if cfg.Envs == nil {
		cfg.Envs = sweep.NewEnvCache(0)
	}
	if cfg.Logf == nil {
		cfg.Logf = obs.Logf("serve")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.DefaultTracer()
	}
	s := &Server{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		sweeps: make(map[string]*sweepRun),
	}
	s.sm = newServeMetrics(cfg.Metrics, s)
	cfg.Store.Instrument(cfg.Metrics)
	cfg.Envs.Instrument(cfg.Metrics)
	exec := cfg.Executor
	if exec == nil {
		local, err := dispatch.NewLocal(dispatch.LocalConfig{
			Runner:  sweep.DispatchRunner(cfg.Envs),
			Workers: cfg.Workers,
			Queue:   cfg.QueueDepth,
			Store:   cfg.Store,
			Logf:    cfg.Logf,
			Metrics: cfg.Metrics,
			Tracer:  cfg.Tracer,
		})
		if err != nil {
			return nil, err
		}
		exec = local
	}
	s.eng = &sweep.Engine{Store: cfg.Store, Executor: exec}
	// Routes are wrapped with the http-layer metrics under their static
	// patterns, so label cardinality is the route table, not the URL space.
	handle := func(pattern, route string, h http.HandlerFunc) {
		s.mux.Handle(pattern, s.sm.http.Wrap(route, h))
	}
	handle("POST /v1/runs", "/v1/runs", s.handleSubmit)
	handle("GET /v1/runs/{id}", "/v1/runs/{id}", s.handleStatus)
	handle("GET /v1/runs/{id}/events", "/v1/runs/{id}/events", s.handleEvents)
	handle("POST /v1/sweeps", "/v1/sweeps", s.handleSweepSubmit)
	handle("GET /v1/sweeps/{id}", "/v1/sweeps/{id}", s.handleSweepStatus)
	handle("GET /v1/sweeps/{id}/result", "/v1/sweeps/{id}/result", s.handleSweepResult)
	handle("GET /v1/sweeps/{id}/events", "/v1/sweeps/{id}/events", s.handleSweepEvents)
	handle("GET /v1/experiments", "/v1/experiments", s.handleRegistry)
	// A backend with worker-facing endpoints (the remote coordinator)
	// serves them from this listener too.
	if m, ok := exec.(interface{ Mount(*http.ServeMux) }); ok {
		m.Mount(s.mux)
	}
	obs.Mount(s.mux, cfg.Metrics, cfg.Tracer, nil)
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops accepting new work, cancels in-flight jobs and drains every
// subscriber. Ordering: refuse new sweeps (closing flag), close the executor
// — which unblocks sweep feeders waiting for queue space, fails queued jobs,
// and cancels running ones via context so they return within a round — then
// wait for the feeders. Every job handle reaches a terminal state on this
// path, so SSE streams end with a "done" event instead of being abandoned
// mid-stream.
func (s *Server) Close() {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	s.eng.Executor.Close()
	s.feedWg.Wait()
}

// Run lifecycle states as reported over the API — a job handle's states,
// plus "cached": the status of a response served straight from the store
// (submission hit, or a GET for an artifact with no job record).
const (
	StatusQueued = dispatch.StatusQueued
	StatusDone   = dispatch.StatusDone
	StatusFailed = dispatch.StatusFailed
	StatusCached = sweep.CellCached
)

// runResponse is the JSON shape shared by submit and status responses.
type runResponse struct {
	ID       string         `json:"id"`
	Status   string         `json:"status"`
	Progress []fl.RoundStat `json:"progress,omitempty"`
	History  *fl.History    `json:"history,omitempty"`
	Error    string         `json:"error,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields() // a typo'd field means a different cell than intended
	var spec sweep.RunSpec
	if err := dec.Decode(&spec); err != nil {
		obs.HTTPError(w, http.StatusBadRequest, "decoding spec: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		obs.HTTPError(w, http.StatusBadRequest, "invalid spec: %v", err)
		return
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		obs.HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	hist, h, err := s.eng.Resolve(sweep.Cell{ID: fp, Spec: spec}, false)
	switch {
	case errors.Is(err, dispatch.ErrClosed):
		obs.HTTPError(w, http.StatusServiceUnavailable, "server shutting down")
	case errors.Is(err, dispatch.ErrQueueFull):
		obs.HTTPError(w, http.StatusServiceUnavailable, "run queue full (%d pending)", s.execPending())
	case err != nil:
		obs.HTTPError(w, http.StatusInternalServerError, "%v", err)
	case h == nil:
		obs.WriteJSON(w, http.StatusOK, runResponse{ID: fp, Status: StatusCached, History: hist})
	default:
		obs.WriteJSON(w, http.StatusAccepted, runResponse{ID: fp, Status: h.Status()})
	}
}

// execPending reads the executor's undispatched queue depth for the 503
// message: the Coordinator exports it via Stats, dispatch.Local via
// Pending. Both are matched by method set, not by type, so an executor that
// wraps one (the benchmark's tracing shim embeds a Coordinator) still
// reports it. An executor exposing neither reads as empty.
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

// lookup resolves the request's run id against the backend's job records
// first, then the store. When ok is false the error response has been
// written: a malformed id cannot name anything, so it is 404 like an
// unknown one; 500 means the store itself failed.
func (s *Server) lookup(w http.ResponseWriter, req *http.Request) (id string, r dispatch.Handle, stored *fl.History, ok bool) {
	id = req.PathValue("id")
	if store.ValidFingerprint(id) {
		if r = s.eng.Lookup(id); r != nil {
			return id, r, nil, true
		}
		hist, found, err := s.cfg.Store.Get(id)
		if err != nil {
			obs.HTTPError(w, http.StatusInternalServerError, "%v", err)
			return id, nil, nil, false
		}
		if found {
			return id, nil, hist, true
		}
	}
	obs.HTTPError(w, http.StatusNotFound, "unknown run %s", id)
	return id, nil, nil, false
}

func (s *Server) handleStatus(w http.ResponseWriter, req *http.Request) {
	id, r, stored, ok := s.lookup(w, req)
	if !ok {
		return
	}
	if r == nil {
		obs.WriteJSON(w, http.StatusOK, runResponse{ID: id, Status: StatusCached, History: stored})
		return
	}
	resp := runResponse{ID: id, Status: r.Status()}
	if resp.Status == StatusDone || resp.Status == StatusFailed {
		var err error
		if resp.History, err = r.Result(); err != nil {
			resp.Error = err.Error()
		}
	}
	if resp.History == nil { // the history carries the same stats; don't send both
		resp.Progress = r.Rounds().Events()
	}
	obs.WriteJSON(w, http.StatusOK, resp)
}

// handleEvents streams per-round progress as Server-Sent Events: one
// "round" event per RoundStat (replayed from the start for late joiners),
// then a terminal "done" event carrying the final status. Every round is
// delivered — a slow reader catches up from the log — and rounds that were
// ready together leave in one flush.
func (s *Server) handleEvents(w http.ResponseWriter, req *http.Request) {
	_, r, stored, ok := s.lookup(w, req)
	if !ok {
		return
	}
	serveSSE(w, func(emit func(event string, v any), flush func()) {
		rounds := func(batch []fl.RoundStat) {
			for _, st := range batch {
				emit("round", st)
			}
		}
		if r == nil { // artifact with no job record: replay and finish
			rounds(stored.Stats)
			emit("done", map[string]string{"status": StatusCached})
			flush()
			return
		}
		if !r.Rounds().Stream(req.Context(), func(batch []fl.RoundStat) { rounds(batch); flush() }) {
			return
		}
		final := map[string]string{"status": r.Status()}
		if _, err := r.Result(); err != nil {
			final["error"] = err.Error()
		}
		emit("done", final)
		flush()
	})
}

// registryResponse lists what can be submitted: the paper's registered
// experiments plus the method and dataset registries specs draw from.
type registryResponse struct {
	Experiments []experimentInfo `json:"experiments"`
	Methods     []string         `json:"methods"`
	Datasets    []string         `json:"datasets"`
}

type experimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

func (s *Server) handleRegistry(w http.ResponseWriter, req *http.Request) {
	resp := registryResponse{Methods: methods.Names(), Datasets: data.Names()}
	for _, e := range experiments.All() {
		resp.Experiments = append(resp.Experiments, experimentInfo{ID: e.ID, Title: e.Title})
	}
	obs.WriteJSON(w, http.StatusOK, resp)
}
