package dispatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"fedwcm/internal/dispatch/wal"
	"fedwcm/internal/fl"
	"fedwcm/internal/obs"
	"fedwcm/internal/store"
	"fedwcm/internal/wire"
)

// CoordinatorConfig wires a Coordinator.
type CoordinatorConfig struct {
	Store *store.Store // required: the artifact exchange finished histories land in
	// LeaseTTL is how long a worker may hold a job without heartbeating
	// before the job is requeued onto surviving workers. 0 = 15s.
	LeaseTTL time.Duration
	// MaxAttempts caps how many leases a job may consume (first execution
	// included) before lease expiry fails it for good. 0 = 3.
	MaxAttempts int
	// Queue bounds jobs waiting for a lease. 0 = 4096 (one maximal sweep).
	Queue int
	// MaxWorkerSlots caps the per-worker in-flight limit a worker may
	// declare at registration. 0 = 8.
	MaxWorkerSlots int
	// WALPath, when non-empty, backs the queue with a write-ahead log
	// (internal/dispatch/wal): submit/lease/requeue/complete transitions are
	// journaled with per-append fsyncs, and NewCoordinator replays the log so
	// a restarted coordinator re-enters pending jobs and requeues previously
	// leased ones without consuming an attempt. Empty = in-memory only.
	WALPath string
	// WALCompactEvery checkpoints the WAL (rewriting it down to the live job
	// set) after this many completed jobs. 0 = 1024.
	WALCompactEvery int
	// Logf defaults to the unified slog route (obs.Logf("dispatch")); tests
	// pass t.Logf.
	Logf func(format string, args ...any)
	// Metrics receives the coordinator's series; nil uses the process
	// default registry. Tracer records lease-level spans; nil uses the
	// process default tracer.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
}

// Coordinator is the remote dispatch backend: jobs queue here, workers
// registered over HTTP pull them via time-limited leases, heartbeat
// progress, and upload finished histories keyed by the job fingerprint.
// The upload path writes straight into the store, so duplicate uploads —
// a requeued job finished by two workers, a tardy worker acking after its
// lease expired — are idempotent by content address. Lease expiry requeues
// the job (capped by MaxAttempts); an explicit deregistration requeues
// without consuming an attempt (clean handover).
//
// Every one of those rules lives in the queue (queue.go); the Coordinator is
// what is not the state machine: the lock, the wake channels, the log and
// its durability rules, the reaper's clock, the order progress callbacks
// are delivered in, and five handlers of one shape — decode; lock, one queue
// call, wake, unlock; carry out the effects; encode.
//
// Mount attaches the worker-facing endpoints to a mux; internal/serve does
// this for any Executor that implements it, so `fedserve -remote` serves
// the public run API and the worker protocol from one listener.
type Coordinator struct {
	cfg CoordinatorConfig
	lockedQueue

	closeOnce sync.Once
	reaperWG  sync.WaitGroup

	// Durability state. wal is nil on an in-memory coordinator. walMu gates
	// log access: appends hold it shared (the log group-commits internally),
	// checkpoints hold it exclusively so a compaction can never discard a
	// concurrently acknowledged record. Appends never run under c.mu — an
	// fsync inside the coordinator lock would serialize every handler behind
	// the disk.
	walMu      sync.RWMutex
	wal        *wal.Log
	recovered  int // jobs replayed from the WAL at startup (guarded by c.mu)
	reattached int // leases adopted by re-attaching workers (guarded by c.mu)
	completes  int // terminal jobs since the last checkpoint (guarded by c.mu)

	cm coordMetrics
}

// relay is a job's progress high-water mark. A requeued job is re-run from
// round zero by the next worker (runs are deterministic, so the stats repeat
// exactly): relayed counts rounds already delivered to subscribers over the
// job's lifetime, attemptSeen the rounds received in the current attempt —
// reset by every fresh grant — so only genuinely new rounds are relayed.
//
// mu — not c.mu — guards both and is held across the subscriber callbacks
// themselves, so a heartbeat relay and the result backfill can never
// interleave or reorder a job's round stream. Delivery only ever holds mu.
type relay struct {
	mu          sync.Mutex
	relayed     int
	attemptSeen int
}

// deliver relays the rounds of stats past the high-water mark. counted says
// stats are the next rounds of the current attempt (a heartbeat) rather than
// the job's whole history (the upload's backfill).
func (r *relay) deliver(subs []func(fl.RoundStat), stats []fl.RoundStat, counted bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := 0
	if counted {
		seen = r.attemptSeen
		r.attemptSeen += len(stats)
	}
	for _, st := range stats {
		if seen++; seen > r.relayed {
			r.relayed = seen
			for _, f := range subs {
				f(st)
			}
		}
	}
}

// NewCoordinator validates cfg, starts the lease reaper and returns the
// coordinator.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("dispatch: CoordinatorConfig.Store is required")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 4096
	}
	if cfg.MaxWorkerSlots <= 0 {
		cfg.MaxWorkerSlots = 8
	}
	if cfg.WALCompactEvery <= 0 {
		cfg.WALCompactEvery = 1024
	}
	if cfg.Logf == nil {
		cfg.Logf = obs.Logf("dispatch")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.DefaultTracer()
	}
	c := &Coordinator{
		cfg:         cfg,
		lockedQueue: newLockedQueue(newQueue(cfg.Queue, cfg.MaxAttempts, cfg.LeaseTTL, cfg.WALPath != "")),
	}
	c.cm = newCoordMetrics(cfg.Metrics, c.Stats)
	if cfg.WALPath != "" {
		if err := c.recoverWAL(); err != nil {
			return nil, err
		}
	}
	c.reaperWG.Add(1)
	go c.reaper()
	return c, nil
}

// recoverWAL opens (creating if absent) the write-ahead log and rebuilds the
// queue from it: apply the records, drop what the store already holds, hand
// over every lease. A job whose artifact landed in the store — the crash
// window between store.Put and the complete record — is finished, not
// re-entered. A job that was leased when the log ended requeues at the front
// WITHOUT consuming an attempt: the crash was the coordinator's, not the
// worker's, and the worker may still finish it (its next heartbeat adopts
// the lease without a recompute). Recovery ends with a checkpoint, so
// replayed completes don't accrete across restarts — and nothing the steps
// above would journal needs to be.
func (c *Coordinator) recoverWAL() error {
	lg, recov, err := wal.Open(c.cfg.WALPath)
	if err != nil {
		return fmt.Errorf("dispatch: opening WAL %s: %w", c.cfg.WALPath, err)
	}
	c.wal = lg
	if recov.Torn {
		c.cfg.Logf("dispatch: wal %s: truncated %d-byte torn tail (crash mid-append)", c.cfg.WALPath, recov.Truncated)
	}
	now := time.Now()
	for _, r := range recov.Records {
		c.q.apply(now, r)
	}
	stored := 0
	for _, r := range c.q.live() {
		if r.Type != wal.TypeSubmit {
			continue
		}
		// The store, not the log, is the artifact of record.
		if _, ok, gerr := c.cfg.Store.Get(r.Job); gerr == nil && ok {
			c.q.finish(now, "", r.Job, outcomeStored)
			stored++
		}
	}
	leased := len(c.q.restart(now).ended)
	c.recovered = len(c.q.jobs)
	if len(recov.Records) > 0 {
		c.cfg.Logf("dispatch: wal %s: %d records, recovered %d jobs (%d previously leased; %d more already stored)",
			c.cfg.WALPath, len(recov.Records), c.recovered, leased, stored)
	}
	c.checkpoint()
	return nil
}

// appendWAL journals records on a durable coordinator (no-op otherwise).
// Never call it while holding c.mu: appends fsync. A failed append is
// reported to the caller so acknowledgement-bearing paths (Submit) can
// fail closed instead of promising durability the log didn't deliver.
func (c *Coordinator) appendWAL(recs []wal.Record) error {
	if c.wal == nil || len(recs) == 0 {
		return nil
	}
	c.walMu.RLock()
	err := c.wal.Append(recs...)
	c.walMu.RUnlock()
	return c.appended(len(recs), err)
}

// appendWALAsync journals drain-path records (lease grants, requeues,
// completes) through the log's group commit without waiting for the fsync.
// Each of these transitions is individually safe to lose to a crash —
// recovery replays the pre-transition state and the queue converges (a
// lost lease replays as pending and the live worker re-attaches via
// heartbeat adoption; a lost complete replays the job, which the store
// fast-path drops on recovery; a lost requeue replays as leased and is
// handed over anyway; a lost exhausted-fail replays as one more requeue and
// fails again on its next expiry) — so the drain path amortizes fsyncs in
// the background leader instead of paying commit latency on every
// transition.
func (c *Coordinator) appendWALAsync(recs []wal.Record) {
	if c.wal == nil || len(recs) == 0 {
		return
	}
	c.walMu.RLock()
	err := c.wal.AppendAsync(recs...)
	c.walMu.RUnlock()
	c.appended(len(recs), err)
}

func (c *Coordinator) appended(n int, err error) error {
	if err != nil {
		c.cm.walErrors.Inc()
		c.cfg.Logf("dispatch: wal append: %v", err)
		return err
	}
	c.cm.walRecords.Add(uint64(n))
	return nil
}

// checkpoint rewrites the WAL down to the live job set. The exclusive walMu
// hold means no append can land between the snapshot and the swap and be
// lost with the old file.
func (c *Coordinator) checkpoint() {
	if c.wal == nil {
		return
	}
	c.walMu.Lock()
	defer c.walMu.Unlock()
	c.mu.Lock()
	live := c.q.live()
	c.completes = 0
	c.mu.Unlock()
	if err := c.wal.Compact(live); err != nil {
		c.cfg.Logf("dispatch: wal checkpoint: %v", err)
		return
	}
	c.cm.walCheckpoints.Inc()
}

// run carries out what a transition left to do once c.mu is released:
// journal (drain-path records never wait for their fsync), then callbacks,
// metrics and spans — and every WALCompactEvery terminal jobs, however they
// ended, a checkpoint, so the log tracks the live set instead of the
// submission history.
func (c *Coordinator) run(fx effects) {
	c.appendWALAsync(fx.recs)
	if g := fx.granted; g.j != nil {
		if g.fresh { // a fresh attempt re-reports from round zero
			g.j.relay.mu.Lock()
			g.j.relay.attemptSeen = 0
			g.j.relay.mu.Unlock()
		}
		c.cm.leaseWait.Observe(g.waited.Seconds())
		c.cm.slotsBusy.With(g.label).Set(float64(g.busy))
	}
	for _, f := range fx.starts {
		f()
	}
	for _, e := range fx.ended {
		c.cm.leaseHold.Observe(e.held.Seconds())
		c.cfg.Tracer.Record(obs.Span{
			Trace: e.job, Name: "dispatch.lease",
			Start: e.since.UnixMicro(), DurMS: float64(e.held) / float64(time.Millisecond),
			Worker: e.worker, Attempt: e.attempt, Err: e.outcome,
		})
		c.cm.slotsBusy.With(e.label).Set(float64(e.busy))
		if e.requeued {
			c.cm.requeues.Inc()
		}
		if e.outcome == outcomeExpired {
			c.cm.expiries.Inc()
			c.cfg.Logf("dispatch: job %.12s: lease expired on worker %s, attempt %d/%d — %s",
				e.job, e.worker, e.attempt, c.cfg.MaxAttempts, map[bool]string{true: "requeueing", false: "failing"}[e.requeued])
		}
	}
	for _, f := range fx.failed {
		f.h.complete(nil, f.err)
	}
	if fx.terminal > 0 && c.wal != nil {
		c.mu.Lock()
		c.completes += fx.terminal
		due := c.completes >= c.cfg.WALCompactEvery
		c.mu.Unlock()
		if due {
			c.checkpoint()
		}
	}
}

// Submit queues the job for the next free worker. Identical in-flight
// submissions coalesce onto one job (their progress callbacks are all
// relayed), and a job whose artifact is already stored completes
// immediately without queueing — cached cells are never re-shipped.
func (c *Coordinator) Submit(job Job, opts SubmitOpts) (Handle, error) {
	h, j, fx, err := c.enqueue(job, opts, c.cached)
	if err != nil {
		return nil, err
	}
	if len(fx.recs) > 0 {
		// Durable submit: the job is visible for coalescing but not leasable
		// until its record is on disk. The fsync runs outside c.mu; concurrent
		// submitters share it via the log's group commit.
		werr := c.appendWAL(fx.recs)
		c.mu.Lock()
		fx = c.q.admit(time.Now(), j, werr)
		c.wakeLocked(fx)
		c.mu.Unlock()
		if werr != nil {
			c.run(fx) // fails the handle, for whoever joined it meanwhile
			return nil, werr
		}
		select {
		case <-c.closed: // Close raced the fsync and already failed the handle
			return nil, ErrClosed
		default:
		}
	}
	c.run(fx)
	return h, nil
}

// cached is the store fast path: the artifact exchange already has this cell.
func (c *Coordinator) cached(job Job) (*handle, error) {
	hist, ok, err := c.cfg.Store.Get(job.ID)
	if err != nil || !ok {
		return nil, err
	}
	h := newHandle(job)
	h.complete(hist, nil)
	return h, nil
}

// Close fails every non-terminal job with ErrClosed and stops the reaper.
// Workers discover the shutdown on their next poll (connection refused or
// 404) and re-register when a coordinator returns. On a durable
// coordinator the WAL is closed WITHOUT journaling completes for the
// drained jobs: shutdown is not completion, and the next NewCoordinator on
// the same path re-enters them.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		queued, running := c.shutdown()
		for _, h := range append(queued, running...) {
			h.complete(nil, ErrClosed)
		}
		if c.wal != nil {
			c.walMu.Lock()
			c.wal.Close()
			c.walMu.Unlock()
		}
	})
	c.reaperWG.Wait()
}

var _ Executor = (*Coordinator)(nil)

// reaper is the queue's clock: every quarter TTL it expires the leases whose
// workers stopped heartbeating.
func (c *Coordinator) reaper() {
	defer c.reaperWG.Done()
	tick := min(max(c.cfg.LeaseTTL/4, 5*time.Millisecond), time.Second)
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.closed:
			return
		case now := <-t.C:
			c.mu.Lock()
			fx := c.q.expire(now)
			c.wakeLocked(fx)
			c.mu.Unlock()
			c.run(fx)
		}
	}
}

// Stats is a point-in-time snapshot of the coordinator, reported by sweep
// status responses (and useful in tests).
type CoordinatorStats struct {
	Workers int `json:"workers"`
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	// Durable reports whether a WAL backs the queue. Recovered counts jobs
	// replayed from the WAL at startup; Reattached counts leases adopted by
	// workers that kept computing across a coordinator restart (or a lease
	// expiry) and re-attached without a recompute.
	Durable    bool `json:"durable,omitempty"`
	Recovered  int  `json:"recovered,omitempty"`
	Reattached int  `json:"reattached,omitempty"`
}

// Stats snapshots the queue.
func (c *Coordinator) Stats() CoordinatorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CoordinatorStats{
		Workers: len(c.q.workers), Pending: len(c.q.fifo), Leased: c.q.leased(),
		Durable: c.wal != nil, Recovered: c.recovered, Reattached: c.reattached,
	}
}

// --- wire types (shared with Worker, which lives in this package) ---

type registerRequest struct {
	Name  string `json:"name,omitempty"`
	Slots int    `json:"slots,omitempty"` // concurrent leases; 0 = 1
}

type registerResponse struct {
	ID       string `json:"id"`
	Slots    int    `json:"slots"` // possibly capped by the coordinator
	LeaseTTL int64  `json:"lease_ttl_ms"`
}

type leaseRequest struct {
	WaitMS int64 `json:"wait_ms,omitempty"` // long-poll budget; capped at 30s
}

type leaseResponse struct {
	Job Job `json:"job"`
}

type resultResponse struct {
	Status string `json:"status"` // "stored", "duplicate" or "failed"
	// Next is the job granted to the slot this upload freed, when the upload
	// asked for one (?lease=1) and one was pending.
	Next *Job `json:"next,omitempty"`
}

// readWire reads a heartbeat or result body. Both ends of this hop ship from
// one tree, so the binary codec (internal/wire) is the only encoding: any
// other Content-Type is answered 415 (and false returned).
func readWire(w http.ResponseWriter, req *http.Request, what string) ([]byte, bool) {
	if !strings.HasPrefix(req.Header.Get("Content-Type"), wire.ContentType) {
		obs.HTTPError(w, http.StatusUnsupportedMediaType, "%s must be %s", what, wire.ContentType)
		return nil, false
	}
	body, err := io.ReadAll(req.Body)
	if err != nil {
		obs.HTTPError(w, http.StatusBadRequest, "reading %s: %v", what, err)
		return nil, false
	}
	return body, true
}

// Mount attaches the worker protocol to mux. Endpoint reference with
// example flows: docs/API.md.
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/workers", c.handleRegister)
	mux.HandleFunc("DELETE /v1/workers/{id}", c.handleDeregister)
	mux.HandleFunc("POST /v1/workers/{id}/lease", c.handleLease)
	mux.HandleFunc("POST /v1/workers/{id}/jobs/{job}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/workers/{id}/jobs/{job}/result", c.handleResult)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, req *http.Request) {
	var r registerRequest
	// An empty body is a valid registration (defaults apply: anonymous
	// worker, one slot) — the decoder's io.EOF on zero bytes is not an
	// error, matching handleLease/handleHeartbeat. Malformed JSON still 400s.
	if err := json.NewDecoder(req.Body).Decode(&r); err != nil && !errors.Is(err, io.EOF) {
		obs.HTTPError(w, http.StatusBadRequest, "decoding registration: %v", err)
		return
	}
	r.Slots = min(max(r.Slots, 1), c.cfg.MaxWorkerSlots)
	c.mu.Lock()
	id := c.q.register(time.Now(), r.Name, r.Slots)
	c.mu.Unlock()
	c.cfg.Logf("dispatch: worker %s registered (name %q, %d slots)", id, r.Name, r.Slots)
	obs.WriteJSON(w, http.StatusCreated, registerResponse{
		ID: id, Slots: r.Slots, LeaseTTL: c.cfg.LeaseTTL.Milliseconds(),
	})
}

// handleDeregister is the clean-shutdown path: the worker's in-flight jobs
// requeue immediately (to the front, without consuming an attempt) instead
// of waiting out their leases.
func (c *Coordinator) handleDeregister(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	c.mu.Lock()
	label, fx, err := c.q.forget(time.Now(), id)
	c.wakeLocked(fx)
	c.mu.Unlock()
	if err != nil {
		obs.HTTPError(w, http.StatusNotFound, "unknown worker %s", id)
		return
	}
	c.run(fx) // journals the refunded attempt counts
	c.cm.slotsBusy.With(label).Set(0)
	c.cfg.Logf("dispatch: worker %s deregistered (%d jobs requeued)", id, len(fx.ended))
	obs.WriteJSON(w, http.StatusOK, map[string]int{"requeued": len(fx.ended)})
}

// leaseTo leases the head of the queue to the worker, for the lease long-poll
// and the result ack (complete-and-lease-next) alike; notify is the channel
// to wait on when nothing was granted. The lease is journaled without
// waiting for the fsync: if the append is lost to a crash, recovery simply
// replays the job as pending — the worker's in-flight computation
// re-attaches via heartbeat adoption, so the window costs nothing.
func (c *Coordinator) leaseTo(wid string) (job *Job, notify <-chan struct{}, err error) {
	c.mu.Lock()
	fx, err := c.q.grant(time.Now(), wid)
	c.wakeLocked(fx)
	notify = c.notify
	c.mu.Unlock()
	if err != nil || fx.granted.j == nil {
		return nil, notify, err
	}
	c.run(fx)
	return &fx.granted.j.h.job, nil, nil
}

// leaseOnAck is complete-and-lease-next: the worker whose upload is being
// acknowledged asked (?lease=1) for the slot it just freed to be refilled,
// so the ack carries the next job instead of costing a lease round trip.
// The grant is an ordinary one — same transition, same journal record, lost
// to a crash or a dropped response exactly like a polled lease — held under
// the worker id the upload was posted as. nil when that worker is unknown,
// at its in-flight limit, or nothing is pending.
func (c *Coordinator) leaseOnAck(wid string) *Job {
	job, _, _ := c.leaseTo(wid)
	if job != nil {
		c.cm.leasesOnAck.Inc()
	}
	return job
}

// handleLease hands the next pending job to the worker, long-polling up to
// the requested budget when the queue is empty or the worker is at its
// in-flight limit. 204 means "nothing yet, poll again"; 404 means the
// worker is unknown (pruned or post-restart) and must re-register.
func (c *Coordinator) handleLease(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	var lr leaseRequest
	if req.ContentLength != 0 {
		if err := json.NewDecoder(req.Body).Decode(&lr); err != nil {
			obs.HTTPError(w, http.StatusBadRequest, "decoding lease request: %v", err)
			return
		}
	}
	wait := time.Duration(lr.WaitMS) * time.Millisecond
	if wait > 30*time.Second {
		wait = 30 * time.Second
	}
	deadline := time.Now().Add(wait)
	for {
		job, notify, err := c.leaseTo(id)
		if err != nil {
			obs.HTTPError(w, http.StatusNotFound, "unknown worker %s (re-register)", id)
			return
		}
		if job != nil {
			w.Header().Set(obs.TraceHeader, job.ID)
			obs.WriteJSON(w, http.StatusOK, leaseResponse{Job: *job})
			return
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		timer := time.NewTimer(remaining)
		select {
		case <-notify:
		case <-timer.C:
		case <-req.Context().Done():
		case <-c.closed:
		}
		timer.Stop()
		select {
		case <-req.Context().Done():
			return
		case <-c.closed:
			w.WriteHeader(http.StatusNoContent)
			return
		default:
		}
		if !time.Now().Before(deadline) {
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
}

// handleHeartbeat extends the lease and relays progress. 410 tells the
// worker its lease is gone (expired and requeued, or the job finished
// elsewhere): abandon the work.
//
// A heartbeat for a job this worker does NOT hold, but which is sitting in
// the pending queue, is a re-attach: the worker kept computing across a
// coordinator restart (the job came back via WAL replay) or across its own
// lease expiry, re-registered on 404, and is now heartbeating under its new
// id. Adopting the lease — instead of answering 410 and forcing a recompute
// — lets in-flight work survive a coordinator crash. Adoption counts as a
// lease grant (attempts++, journaled); its heartbeat rounds are not relayed
// because a mid-stream worker cannot be ordered against what an earlier
// incarnation delivered — the result upload backfills the full history.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, req *http.Request) {
	wid, jid := req.PathValue("id"), req.PathValue("job")
	// rounds are the stats recorded since the previous heartbeat, relayed to
	// the job's progress subscribers. An empty body is a bare liveness ping.
	var rounds []fl.RoundStat
	if req.ContentLength != 0 {
		body, ok := readWire(w, req, "heartbeat")
		if !ok {
			return
		}
		start := time.Now()
		var err error
		if rounds, err = wire.DecodeStats(body); err != nil {
			obs.HTTPError(w, http.StatusBadRequest, "decoding heartbeat: %v", err)
			return
		}
		c.cm.wire.observeDecode("stats", len(body), time.Since(start).Seconds())
	}
	c.mu.Lock()
	j, gap, fx, err := c.q.beat(time.Now(), wid, jid)
	c.wakeLocked(fx)
	adopted := fx.granted.j != nil
	if adopted {
		c.reattached++
	}
	var subs []func(fl.RoundStat)
	relayed := err == nil && !j.adopted
	if relayed {
		subs = j.onRound
	}
	c.mu.Unlock()
	switch {
	case errors.Is(err, errUnknownWorker):
		obs.HTTPError(w, http.StatusNotFound, "unknown worker %s (re-register)", wid)
		return
	case err != nil:
		obs.HTTPError(w, http.StatusGone, "lease on job %s lost", jid)
		return
	case adopted:
		c.cm.reattached.Inc()
		c.cfg.Logf("dispatch: job %.12s: worker %s re-attached mid-flight (attempt %d resumes)", jid, wid, fx.granted.attempt)
	default:
		c.cm.beatGap.Observe(gap.Seconds())
	}
	c.run(fx)
	// A retry of a requeued job re-reports the rounds its predecessor already
	// delivered; deliver relays only those past the high-water mark. An
	// adopted lease's rounds are not even counted: the upload backfills.
	if relayed {
		j.relay.deliver(subs, rounds, true)
	}
	obs.WriteJSON(w, http.StatusOK, struct{}{})
}

// handleResult ingests a finished job: the history is persisted under the
// job fingerprint (the ack the worker waits for) and the handle completes.
// Uploads are idempotent by content address — a duplicate from a second
// worker that computed the same requeued job, or from a worker whose lease
// expired mid-upload, is acknowledged without a second store write.
//
// With ?lease=1 every 200 ack may carry the uploader's next job (see
// leaseOnAck); 4xx answers never do.
func (c *Coordinator) handleResult(w http.ResponseWriter, req *http.Request) {
	wid, jid := req.PathValue("id"), req.PathValue("job")
	wantNext := req.URL.Query().Get("lease") == "1"
	ack := func(status string) {
		resp := resultResponse{Status: status}
		if wantNext {
			resp.Next = c.leaseOnAck(wid)
		}
		obs.WriteJSON(w, http.StatusOK, resp)
	}
	body, ok := readWire(w, req, "result")
	if !ok {
		return
	}
	start := time.Now()
	hist, errMsg, err := wire.DecodeResult(body)
	if err != nil {
		obs.HTTPError(w, http.StatusBadRequest, "decoding result: %v", err)
		return
	}
	c.cm.wire.observeDecode("result", len(body), time.Since(start).Seconds())
	// The outcome is decided before the job is detached so the lease span
	// carries it.
	outcome := outcomeStored
	switch {
	case errMsg != "":
		outcome = outcomeWorkerError
	case hist == nil || len(hist.Stats) == 0:
		outcome = outcomeEmpty
	}
	c.mu.Lock()
	j, fx, err := c.q.finish(time.Now(), wid, jid, outcome)
	c.wakeLocked(fx)
	c.mu.Unlock()
	switch {
	case errors.Is(err, errUnknownJob):
		// Terminal already (or never submitted): the store arbitrates. An
		// artifact under this fingerprint means an equivalent upload landed
		// first — acknowledge the duplicate so the worker frees its slot.
		if _, found, err := c.cfg.Store.Get(jid); err == nil && found {
			c.cm.dup.Inc()
			c.cm.uploads.With("duplicate").Inc()
			ack("duplicate")
			return
		}
		obs.HTTPError(w, http.StatusNotFound, "unknown job %s", jid)
		return
	case err != nil:
		c.cm.uploads.With("rejected").Inc()
		obs.HTTPError(w, http.StatusGone, "lease on job %s lost; error discarded", jid)
		return
	case outcome == outcomeWorkerError:
		// An execution error is deterministic (same spec, same code path on
		// every worker) — retrying elsewhere would fail identically, so the
		// job fails now; the retry budget is reserved for lease expiry.
		c.cm.uploads.With("failed").Inc()
		c.run(fx)
		j.h.complete(nil, fmt.Errorf("dispatch: job %.12s failed on worker %s: %s", jid, wid, errMsg))
		ack("failed")
		return
	case outcome == outcomeEmpty:
		// Reject before completing the handle: an empty upload must not pin
		// the cell "done" with nothing in the store. The job is already
		// detached; the worker sees the error and the submitter sees the
		// failure.
		c.cm.uploads.With("rejected").Inc()
		c.run(fx)
		j.h.complete(nil, fmt.Errorf("dispatch: job %.12s: worker %s uploaded an empty history", jid, wid))
		obs.HTTPError(w, http.StatusBadRequest, "empty history for job %s", jid)
		return
	}
	c.cm.uploads.With("stored").Inc()
	if err := c.cfg.Store.Put(jid, hist); err != nil {
		// Mirror the local backend: the computation succeeded, so the
		// submitter gets the history even though re-serving after restart
		// is lost.
		c.cfg.Logf("dispatch: persisting job %.12s: %v", jid, err)
	}
	// The complete record is journaled only after the artifact is durably in
	// the store: a crash between the two replays the job, finds the artifact
	// on recovery, and drops it — never the reverse, where the log says done
	// but the store has nothing.
	c.run(fx)
	// Persist the job's trace alongside the history: lease spans recorded by
	// this coordinator (workers keep their own execution spans). Best-effort
	// — traces are debugging artifacts, not part of the result contract.
	if spans := c.cfg.Tracer.Collect(jid); len(spans) > 0 {
		if err := c.cfg.Store.PutTrace(jid, spans); err != nil {
			c.cfg.Logf("dispatch: persisting trace for job %.12s: %v", jid, err)
		}
	}
	// Backfill progress the heartbeats never carried (rounds recorded after
	// the final beat — or all of them, for a job faster than one beat): the
	// history holds the full ordered round list, so relaying past the
	// high-water mark delivers every round exactly once, matching the local
	// backend's progress contract, and a straggling heartbeat relay for the
	// same job cannot interleave its rounds with (or duplicate) the backfill.
	j.relay.deliver(j.onRound, hist.Stats, false)
	j.h.complete(hist, nil)
	ack("stored")
}
