// Package serve exposes the experiment harness as an HTTP service backed by
// the content-addressed store (internal/store): specs come in as JSON, run
// ids are spec fingerprints, and results are cached so any grid cell is
// computed at most once no matter how many clients ask for it. Above single
// runs sits the sweep API: a declarative grid (sweep.Spec) expands into
// cells scheduled through the same pool and store, and its results
// aggregate server-side into mean±std groups.
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
// Identical in-flight submissions coalesce onto one execution
// (single-flight), for sweeps cell-by-cell; identical finished submissions
// are store hits. Execution itself is delegated to a dispatch.Executor —
// an in-process bounded pool by default, or a remote-worker coordinator
// (fedserve -remote) whose lease endpoints this server mounts alongside
// the public API. Either way the executor's queue bounds memory: a full
// queue rejects direct run submissions with 503, while accepted sweeps
// trickle their cells in as space frees up.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"fedwcm/internal/data"
	"fedwcm/internal/dispatch"
	"fedwcm/internal/experiments"
	"fedwcm/internal/fl"
	"fedwcm/internal/fl/methods"
	"fedwcm/internal/obs"
	"fedwcm/internal/store"
	"fedwcm/internal/sweep"
	"fedwcm/internal/wire"
)

// Runner executes one spec, reporting per-round progress and honouring ctx
// cancellation. The default is sweep.RunSpec.RunCtx against the shared env
// cache; tests substitute counting or canned runners.
type Runner = sweep.Runner

// Config wires a Server.
type Config struct {
	Store *store.Store // required: result cache and artifact store
	// Executor, when set, is the dispatch backend runs execute on (e.g. a
	// dispatch.Coordinator for the remote-worker mode; its worker endpoints
	// are mounted automatically). The server owns it from here on: Close
	// closes it. Nil builds a dispatch.Local from the fields below.
	Executor   dispatch.Executor
	Workers    int    // local backend: concurrent training runs; 0 = 2
	QueueDepth int    // local backend: queued (not yet running) submissions; 0 = 64
	Runner     Runner // local backend: nil = run specs for real
	// Envs backs environment construction for the default runner: runs and
	// sweep cells sharing a dataset+partition sub-spec build it once. Nil
	// gets a fresh cache of DefaultEnvCacheCap; ignored when Runner or
	// Executor is overridden (the cache counters then stay zero).
	Envs *sweep.EnvCache
	// Admission bounds what the run/sweep submission endpoints accept
	// (per-tenant rate limits, queue-depth backpressure). The zero value
	// admits everything.
	Admission AdmissionConfig
	// Logf defaults to the unified slog route (obs.Logf("serve")).
	Logf func(format string, args ...any)
	// Metrics receives the server's series (HTTP, SSE, sweep cells, plus the
	// store's and env cache's); nil uses the process default registry. Tracer
	// backs /debug/trace; nil uses the process default tracer.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
}

// Server is the run service. Create with New, serve with net/http, stop
// with Close.
type Server struct {
	cfg  Config
	mux  *http.ServeMux
	exec dispatch.Executor

	mu       sync.Mutex
	runs     map[string]*run      // fingerprint → in-process record
	sweeps   map[string]*sweepRun // sweep fingerprint → in-process record
	sweepSeq uint64               // creation counter for sweep eviction order
	closing  bool                 // set by Close under mu; no enqueue once true

	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup // run watchers
	feedWg    sync.WaitGroup // sweep feeders

	sm  serveMetrics
	adm *admission // nil unless Config.Admission asks for limits
}

// New validates cfg, builds (or adopts) the dispatch backend and returns
// the server.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: Config.Store is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
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
		runs:   make(map[string]*run),
		sweeps: make(map[string]*sweepRun),
		closed: make(chan struct{}),
	}
	s.sm = newServeMetrics(cfg.Metrics, s)
	cfg.Store.Instrument(cfg.Metrics)
	cfg.Envs.Instrument(cfg.Metrics)
	if cfg.Executor != nil {
		s.exec = cfg.Executor
	} else {
		runner := dispatch.Runner(sweep.DispatchRunner(cfg.Envs))
		if cfg.Runner != nil {
			// Test/override path: decode the dispatched job back into the
			// spec shape the override expects.
			override := cfg.Runner
			runner = func(ctx context.Context, job dispatch.Job, onRound func(fl.RoundStat)) (*fl.History, error) {
				var spec sweep.RunSpec
				if err := json.Unmarshal(job.Spec, &spec); err != nil {
					return nil, fmt.Errorf("serve: decoding job spec: %w", err)
				}
				return override(ctx, spec, onRound)
			}
		}
		local, err := dispatch.NewLocal(dispatch.LocalConfig{
			Runner:  runner,
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
		s.exec = local
	}
	// Routes are wrapped with the http-layer metrics under their static
	// patterns, so label cardinality is the route table, not the URL space.
	handle := func(pattern, route string, h http.HandlerFunc) {
		s.mux.Handle(pattern, s.sm.http.Wrap(route, h))
	}
	s.adm = newAdmission(cfg.Admission, s.execPending, cfg.Metrics)
	handle("POST /v1/runs", "/v1/runs", s.admitted(s.handleSubmit))
	handle("GET /v1/runs/{id}", "/v1/runs/{id}", s.handleStatus)
	handle("GET /v1/runs/{id}/events", "/v1/runs/{id}/events", s.handleEvents)
	handle("POST /v1/sweeps", "/v1/sweeps", s.admitted(s.handleSweepSubmit))
	handle("GET /v1/sweeps/{id}", "/v1/sweeps/{id}", s.handleSweepStatus)
	handle("GET /v1/sweeps/{id}/result", "/v1/sweeps/{id}/result", s.handleSweepResult)
	handle("GET /v1/sweeps/{id}/events", "/v1/sweeps/{id}/events", s.handleSweepEvents)
	handle("GET /v1/experiments", "/v1/experiments", s.handleRegistry)
	// Raw artifact bytes for store replication: every server (shard or not)
	// exports what its store holds, so peers can read through to it.
	handle("GET /v1/artifacts/{id}", "/v1/artifacts/{id}", cfg.Store.ArtifactHandler())
	// A backend with worker-facing endpoints (the remote coordinator)
	// serves them from this listener too.
	if m, ok := s.exec.(interface{ Mount(*http.ServeMux) }); ok {
		m.Mount(s.mux)
	}
	obs.Mount(s.mux, cfg.Metrics, cfg.Tracer, nil)
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops accepting new work, cancels in-flight jobs and drains every
// subscriber. Ordering: refuse new submissions (closing flag), close the
// executor — which unblocks sweep feeders waiting for queue space, fails
// queued jobs, and cancels running ones via context so they return within
// a round — then wait for the feeders and run watchers. Every run record
// reaches a terminal state on this path, so SSE streams end with a "done"
// event instead of being abandoned mid-stream.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closing = true
		s.mu.Unlock()
		close(s.closed)
	})
	s.exec.Close()
	s.feedWg.Wait()
	s.wg.Wait()
}

// watch drives one run record from its dispatch handle: the handle
// completes (the backend has already persisted a success to the store),
// the record finishes, and — once the artifact is servable from the store
// — the record is dropped so s.runs stays bounded by in-flight + failed
// work.
func (s *Server) watch(r *run, h dispatch.Handle) {
	defer s.wg.Done()
	<-h.Done()
	hist, err := h.Result()
	r.finish(hist, err)
	if err == nil {
		if _, ok, serr := s.cfg.Store.Get(r.id); serr == nil && ok {
			s.dropRun(r.id, r)
		}
		// A run whose persist failed keeps its record: callers still get
		// the history from memory, only re-serving after restart is lost.
	}
}

// runResponse is the JSON shape shared by submit and status responses.
type runResponse struct {
	ID       string         `json:"id"`
	Status   string         `json:"status"`
	Progress []fl.RoundStat `json:"progress,omitempty"`
	History  *fl.History    `json:"history,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// writeJSON encodes v before touching the response so an encode failure
// (e.g. a NaN in a diverged run's history — json.Marshal rejects NaN) turns
// into a well-formed 500 instead of a 200 with a truncated body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(map[string]string{"error": "encoding response: " + err.Error()})
		code = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeRun writes a run status response in whichever encoding the client
// asked for: clients that list wire.ContentType in Accept (the dispatch
// client does) get the compact binary codec, everyone else gets the JSON
// shape unchanged. Errors keep flowing through httpError as JSON either
// way — only success bodies are worth compressing.
func (s *Server) writeRun(w http.ResponseWriter, req *http.Request, code int, rr runResponse) {
	if !strings.Contains(req.Header.Get("Accept"), wire.ContentType) {
		writeJSON(w, code, rr)
		return
	}
	start := time.Now()
	body := wire.EncodeRunStatus(&wire.RunStatus{
		ID:       rr.ID,
		Status:   rr.Status,
		Error:    rr.Error,
		Progress: rr.Progress,
		History:  rr.History,
	})
	s.sm.observeWireEncode("runstatus", len(body), time.Since(start).Seconds())
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(code)
	w.Write(body)
}

// Sentinel failures from ensureCell, mapped to HTTP statuses by the
// handlers that can hit them.
var (
	errQueueFull = errors.New("run queue full")
	errClosing   = errors.New("server shutting down")
)

// ensureCell resolves one grid cell to either a finished history (hist !=
// nil, status "cached") or a live run record (r != nil) — submitting a
// fresh job to the dispatch backend when the cell is neither stored nor in
// flight. It is the single-flight core shared by direct run submission and
// sweep scheduling; block selects between failing fast on a full queue
// (direct submissions → 503) and waiting for space (sweep feeders
// trickling a grid in).
func (s *Server) ensureCell(spec sweep.RunSpec, fp string, block bool) (r *run, hist *fl.History, status string, err error) {
	// Fast path, outside the lock: the grid cell has been computed before.
	if hist, ok, err := s.cfg.Store.Get(fp); err != nil {
		return nil, nil, "", fmt.Errorf("store: %w", err)
	} else if ok {
		return nil, hist, StatusCached, nil
	}

	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil, nil, "", errClosing
	}
	// Single-flight: identical in-flight submissions share one record. A
	// done record only lingers here when persisting it failed (or in the
	// instant before execute drops it), so it is served as a cache hit.
	if r, ok := s.runs[fp]; ok {
		status, _, hist, _ := r.snapshot()
		switch status {
		case StatusDone:
			s.mu.Unlock()
			return nil, hist, StatusCached, nil
		case StatusFailed:
			// A failed attempt does not pin the cell failed forever; fall
			// through and replace the record with a fresh attempt.
		default:
			s.mu.Unlock()
			return r, nil, status, nil
		}
	}
	// Re-check the store under the lock: a run can Put its artifact and
	// drop its record between the unlocked Get above and here, and
	// re-executing a computed cell would break compute-at-most-once. On a
	// true miss this is a cheap ENOENT probe.
	if hist, ok, err := s.cfg.Store.Get(fp); err != nil {
		s.mu.Unlock()
		return nil, nil, "", fmt.Errorf("store: %w", err)
	} else if ok {
		s.mu.Unlock()
		return nil, hist, StatusCached, nil
	}
	// The record must be visible (for coalescing) before the submit, and
	// the submit cannot hold the lock (a blocking submit waits for queue
	// space). A recorded-but-not-yet-submitted run is indistinguishable
	// from a queued one to observers; a refused submit finishes the record
	// (any coalescer that joined meanwhile observes the failure) and drops
	// it so a later resubmission starts fresh. The watcher's wg.Add happens
	// under the same critical section as the closing check, so Close — which
	// sets closing under mu before waiting — can never start waiting between
	// the check and the Add.
	r = newRun(fp, spec)
	s.runs[fp] = r
	s.wg.Add(1)
	s.mu.Unlock()
	specJSON, err := spec.CanonicalJSON()
	if err != nil {
		s.wg.Done()
		r.finish(nil, err)
		s.dropRun(fp, r)
		return nil, nil, "", err
	}
	h, err := s.exec.Submit(dispatch.Job{ID: fp, Spec: specJSON}, dispatch.SubmitOpts{
		Block:   block,
		OnRound: r.progress.publish,
		OnStart: r.setRunning,
	})
	if err != nil {
		s.wg.Done()
		r.finish(nil, err)
		s.dropRun(fp, r)
		switch {
		case errors.Is(err, dispatch.ErrQueueFull):
			return nil, nil, "", errQueueFull
		case errors.Is(err, dispatch.ErrClosed):
			return nil, nil, "", errClosing
		}
		return nil, nil, "", err
	}
	go s.watch(r, h) // owns the wg slot added above
	return r, nil, StatusQueued, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields() // a typo'd field means a different cell than intended
	var spec experiments.RunSpec
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "decoding spec: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "invalid spec: %v", err)
		return
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	_, hist, status, err := s.ensureCell(spec, fp, false)
	switch {
	case errors.Is(err, errClosing):
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
	case errors.Is(err, errQueueFull):
		httpError(w, http.StatusServiceUnavailable, "run queue full (%d pending)", s.cfg.QueueDepth)
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
	case hist != nil:
		s.writeRun(w, req, http.StatusOK, runResponse{ID: fp, Status: StatusCached, History: hist})
	default:
		s.writeRun(w, req, http.StatusAccepted, runResponse{ID: fp, Status: status})
	}
}

// dropRun removes a run's record once its artifact is in the store (or the
// record was superseded), so s.runs stays bounded by live + failed work.
func (s *Server) dropRun(fp string, r *run) {
	s.mu.Lock()
	if s.runs[fp] == r {
		delete(s.runs, fp)
	}
	s.mu.Unlock()
}

// lookup resolves a run id against in-process records first, then the
// store — read-through: on a replicated store (shards pointing at each
// other), an artifact computed by a peer is fetched, verified and served
// as if it were local. The bool reports whether the id is known at all; a
// malformed id cannot name anything, so it is "not found" rather than an
// error (errors mean the store itself failed and map to 500).
func (s *Server) lookup(ctx context.Context, id string) (*run, *fl.History, bool, error) {
	if !store.ValidFingerprint(id) {
		return nil, nil, false, nil
	}
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if ok {
		return r, nil, true, nil
	}
	hist, ok, err := s.cfg.Store.Fetch(ctx, id)
	if err != nil || !ok {
		return nil, nil, false, err
	}
	return nil, hist, true, nil
}

func (s *Server) handleStatus(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	r, stored, ok, err := s.lookup(req.Context(), id)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, "unknown run %s", id)
		return
	}
	if r == nil {
		s.writeRun(w, req, http.StatusOK, runResponse{ID: id, Status: StatusCached, History: stored})
		return
	}
	status, progress, hist, errMsg := r.snapshot()
	if hist != nil {
		progress = nil // history carries the same stats; don't send both
	}
	s.writeRun(w, req, http.StatusOK, runResponse{ID: id, Status: status, Progress: progress, History: hist, Error: errMsg})
}

// handleEvents streams per-round progress as Server-Sent Events: one
// "round" event per RoundStat (replayed from the start for late joiners),
// then a terminal "done" event carrying the final status.
func (s *Server) handleEvents(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	r, stored, ok, err := s.lookup(req.Context(), id)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, "unknown run %s", id)
		return
	}
	serveSSE(w, s.sm.sseRuns, func(emit func(event string, v any)) {
		if r == nil { // artifact with no live record: replay and finish
			for _, st := range stored.Stats {
				emit("round", st)
			}
			emit("done", map[string]string{"status": StatusCached})
			return
		}
		if !stream(req.Context(), r.progress, func(st fl.RoundStat) { emit("round", st) }) {
			return
		}
		status, _, _, errMsg := r.snapshot()
		final := map[string]string{"status": status}
		if errMsg != "" {
			final["error"] = errMsg
		}
		emit("done", final)
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
	writeJSON(w, http.StatusOK, resp)
}
