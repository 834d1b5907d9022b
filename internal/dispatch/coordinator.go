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
// Mount attaches the worker-facing endpoints to a mux; internal/serve does
// this for any Executor that implements it, so `fedserve -remote` serves
// the public run API and the worker protocol from one listener.
type Coordinator struct {
	cfg CoordinatorConfig

	mu      sync.Mutex
	workers map[string]*remoteWorker
	jobs    map[string]*remoteJob // every non-terminal job by fingerprint
	pending []*remoteJob          // FIFO awaiting a lease; requeues go to the front
	notify  chan struct{}         // closed+remade when work or capacity appears
	space   chan struct{}         // closed+remade when the pending queue shrinks
	seq     uint64

	closed    chan struct{}
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

type remoteWorker struct {
	id       string
	name     string
	slots    int // max concurrent leases
	inflight map[string]*remoteJob
	lastSeen time.Time
}

// label is the worker's metric label: the operator-chosen name when one was
// registered (stable across restarts), the coordinator-assigned id otherwise.
func (w *remoteWorker) label() string {
	if w.name != "" {
		return w.name
	}
	return w.id
}

// remoteJob states.
const (
	jobPending = iota
	jobLeased
)

type remoteJob struct {
	h        *handle
	onRound  []func(fl.RoundStat)
	onStart  []func()
	started  bool
	state    int
	worker   string // current lease holder when leased
	expiry   time.Time
	attempts int // leases granted so far
	// Observation timestamps: enqueuedAt feeds the lease-wait histogram
	// (reset on requeue — each wait is its own observation), leasedAt the
	// lease-hold histogram and lease spans, lastBeat the heartbeat-gap one.
	enqueuedAt time.Time
	leasedAt   time.Time
	lastBeat   time.Time
	// Heartbeat dedup across attempts: a requeued job is re-run from round
	// zero by the next worker (runs are deterministic, so the stats repeat
	// exactly). relayed counts rounds already delivered to subscribers over
	// the job's lifetime; attemptSeen counts rounds received in the current
	// attempt and resets on each lease grant, so only genuinely new rounds
	// are relayed.
	//
	// relayMu — not c.mu — guards relayed/attemptSeen and is held across the
	// subscriber callbacks themselves, so a heartbeat relay and the result
	// backfill can never interleave or reorder a job's round stream. Lock
	// order is c.mu → relayMu; delivery only ever holds relayMu.
	relayMu     sync.Mutex
	relayed     int
	attemptSeen int
	// suppressRelay (guarded by c.mu) marks an adopted lease: the worker is
	// mid-stream, so its heartbeat rounds cannot be ordered against what an
	// earlier incarnation already delivered. Heartbeats only extend the
	// lease; the result upload backfills the full ordered history.
	suppressRelay bool
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
		cfg:     cfg,
		workers: make(map[string]*remoteWorker),
		jobs:    make(map[string]*remoteJob),
		notify:  make(chan struct{}),
		space:   make(chan struct{}),
		closed:  make(chan struct{}),
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

// recoverWAL opens (creating if absent) the write-ahead log and re-enters
// every non-terminal job it journals. Jobs whose artifact already landed in
// the store — the crash window between store.Put and the complete record —
// are dropped as done. A job that was leased when the log ended requeues at
// the front WITHOUT consuming an attempt: the crash was the coordinator's,
// not the worker's, and the worker may still finish it (heartbeat adoption
// in handleHeartbeat resumes such a lease without a recompute). Recovery
// ends with a checkpoint, so replayed completes don't accrete across
// restarts.
func (c *Coordinator) recoverWAL() error {
	lg, recov, err := wal.Open(c.cfg.WALPath)
	if err != nil {
		return fmt.Errorf("dispatch: opening WAL %s: %w", c.cfg.WALPath, err)
	}
	c.wal = lg
	if recov.Torn {
		c.cfg.Logf("dispatch: wal %s: truncated %d-byte torn tail (crash mid-append)", c.cfg.WALPath, recov.Truncated)
	}
	var leased, pending []*remoteJob
	now := time.Now()
	for _, js := range recov.Jobs {
		if _, ok, gerr := c.cfg.Store.Get(js.ID); gerr == nil && ok {
			continue // already computed: the store, not the WAL, is the artifact of record
		}
		j := &remoteJob{
			h:          newHandle(Job{ID: js.ID, Spec: js.Spec}),
			state:      jobPending,
			attempts:   js.Attempts,
			enqueuedAt: now,
		}
		if js.Leased && j.attempts > 0 {
			j.attempts--
		}
		c.jobs[js.ID] = j
		if js.Leased {
			leased = append(leased, j)
		} else {
			pending = append(pending, j)
		}
	}
	// Previously leased jobs go first: they have waited longest, and their
	// workers may re-attach to them.
	c.pending = append(leased, pending...)
	c.recovered = len(c.pending)
	if c.recovered > 0 || recov.Completes > 0 {
		c.cfg.Logf("dispatch: wal %s: recovered %d jobs (%d previously leased; %d already terminal)",
			c.cfg.WALPath, c.recovered, len(leased), recov.Records-len(recov.Jobs))
	}
	c.checkpoint()
	return nil
}

// appendWAL journals records on a durable coordinator (no-op otherwise).
// Never call it while holding c.mu: appends fsync. A failed append is
// reported to the caller so acknowledgement-bearing paths (Submit) can
// fail closed instead of promising durability the log didn't deliver.
func (c *Coordinator) appendWAL(recs ...wal.Record) error {
	if c.wal == nil || len(recs) == 0 {
		return nil
	}
	c.walMu.RLock()
	err := c.wal.Append(recs...)
	c.walMu.RUnlock()
	if err != nil {
		c.cm.walErrors.Inc()
		c.cfg.Logf("dispatch: wal append: %v", err)
		return err
	}
	c.cm.walRecords.Add(uint64(len(recs)))
	return nil
}

// appendWALAsync journals drain-path records (lease grants, requeues,
// completes) through the log's group commit without waiting for the fsync.
// Each of these transitions is individually safe to lose to a crash —
// recovery replays the pre-transition state and the queue converges (a
// lost lease replays as pending and the live worker re-attaches via
// heartbeat adoption; a lost complete replays the job, which the store
// fast-path drops on recovery; a lost requeue expires again) — so the
// drain path amortizes fsyncs in the background leader instead of paying
// commit latency on every transition.
func (c *Coordinator) appendWALAsync(recs ...wal.Record) {
	if c.wal == nil || len(recs) == 0 {
		return
	}
	c.walMu.RLock()
	err := c.wal.AppendAsync(recs...)
	c.walMu.RUnlock()
	if err != nil {
		c.cm.walErrors.Inc()
		c.cfg.Logf("dispatch: wal append: %v", err)
		return
	}
	c.cm.walRecords.Add(uint64(len(recs)))
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
	live := make([]wal.Record, 0, len(c.jobs)+4)
	for id, j := range c.jobs {
		live = append(live, wal.Record{Type: wal.TypeSubmit, Job: id, Spec: j.h.job.Spec, Attempts: j.attempts})
		if j.state == jobLeased {
			live = append(live, wal.Record{Type: wal.TypeLease, Job: id, Worker: j.worker, Attempts: j.attempts})
		}
	}
	c.completes = 0
	c.mu.Unlock()
	if err := c.wal.Compact(live); err != nil {
		c.cfg.Logf("dispatch: wal checkpoint: %v", err)
		return
	}
	c.cm.walCheckpoints.Inc()
}

// noteCompleteAndMaybeCheckpoint journals a terminal transition and, every
// WALCompactEvery completions, checkpoints so the log tracks the live set
// instead of the full submission history.
func (c *Coordinator) noteCompleteAndMaybeCheckpoint(jid, status string) {
	if c.wal == nil {
		return
	}
	c.appendWALAsync(wal.Record{Type: wal.TypeComplete, Job: jid, Status: status})
	c.mu.Lock()
	c.completes++
	due := c.completes >= c.cfg.WALCompactEvery
	c.mu.Unlock()
	if due {
		c.checkpoint()
	}
}

// endLeaseLocked observes the end of j's current lease (upload, expiry or
// clean handover): the lease-hold histogram and a "dispatch.lease" span
// under the job's trace ID. outcome "" means a successful upload; anything
// else lands in the span's error field. Caller holds c.mu.
func (c *Coordinator) endLeaseLocked(j *remoteJob, wid, outcome string) {
	if j.leasedAt.IsZero() {
		return
	}
	now := time.Now()
	held := now.Sub(j.leasedAt)
	c.cm.leaseHold.Observe(held.Seconds())
	sp := obs.Span{
		Trace: j.h.job.ID, Name: "dispatch.lease",
		Start: j.leasedAt.UnixMicro(), DurMS: float64(held) / float64(time.Millisecond),
		Worker: wid, Attempt: j.attempts, Err: outcome,
	}
	c.cfg.Tracer.Record(sp)
	if wk, ok := c.workers[wid]; ok {
		c.cm.slotsBusy.With(wk.label()).Set(float64(len(wk.inflight)))
	}
	j.leasedAt = time.Time{}
}

// notifyLocked wakes every lease long-poller; caller holds c.mu.
func (c *Coordinator) notifyLocked() {
	close(c.notify)
	c.notify = make(chan struct{})
}

// spaceLocked wakes every blocked Submit; caller holds c.mu.
func (c *Coordinator) spaceLocked() {
	close(c.space)
	c.space = make(chan struct{})
}

// Submit queues the job for the next free worker. Identical in-flight
// submissions coalesce onto one job (their progress callbacks are all
// relayed), and a job whose artifact is already stored completes
// immediately without queueing — cached cells are never re-shipped.
func (c *Coordinator) Submit(job Job, opts SubmitOpts) (Handle, error) {
	for {
		select {
		case <-c.closed:
			return nil, ErrClosed
		default:
		}
		// Store fast path: the artifact exchange already has this cell.
		if hist, ok, err := c.cfg.Store.Get(job.ID); err != nil {
			return nil, err
		} else if ok {
			h := newHandle(job)
			h.complete(hist, nil)
			return h, nil
		}
		c.mu.Lock()
		// Re-check under the lock: Close fails jobs while holding c.mu, so a
		// submission that only saw the pre-lock check could otherwise insert
		// into an already-drained coordinator and orphan its handle forever.
		select {
		case <-c.closed:
			c.mu.Unlock()
			return nil, ErrClosed
		default:
		}
		if j, ok := c.jobs[job.ID]; ok { // single-flight: share the execution
			if opts.OnRound != nil {
				j.onRound = append(j.onRound, opts.OnRound)
			}
			if opts.OnStart != nil {
				if j.started {
					c.mu.Unlock()
					opts.OnStart()
					return j.h, nil
				}
				j.onStart = append(j.onStart, opts.OnStart)
			}
			c.mu.Unlock()
			return j.h, nil
		}
		if len(c.pending) >= c.cfg.Queue {
			space := c.space
			c.mu.Unlock()
			if !opts.Block {
				return nil, ErrQueueFull
			}
			select {
			case <-space:
				continue // re-check from the top (including the store)
			case <-c.closed:
				return nil, ErrClosed
			}
		}
		j := &remoteJob{h: newHandle(job), state: jobPending, enqueuedAt: time.Now()}
		if opts.OnRound != nil {
			j.onRound = append(j.onRound, opts.OnRound)
		}
		if opts.OnStart != nil {
			j.onStart = append(j.onStart, opts.OnStart)
		}
		c.jobs[job.ID] = j
		if c.wal == nil {
			c.pending = append(c.pending, j)
			c.notifyLocked()
			c.mu.Unlock()
			return j.h, nil
		}
		// Durable submit: the job is visible for coalescing (in c.jobs) but
		// not leasable until its record is on disk — a lease granted before
		// the fsync could complete a job a crashed coordinator would forget
		// it ever accepted. The fsync itself runs outside c.mu; concurrent
		// submitters share it via the log's group commit.
		c.mu.Unlock()
		if err := c.appendWAL(wal.Record{Type: wal.TypeSubmit, Job: job.ID, Spec: job.Spec}); err != nil {
			c.mu.Lock()
			if c.jobs[job.ID] == j {
				delete(c.jobs, job.ID)
			}
			c.mu.Unlock()
			j.h.complete(nil, err)
			return nil, err
		}
		c.mu.Lock()
		select {
		case <-c.closed: // Close raced the fsync and already failed the handle
			c.mu.Unlock()
			return nil, ErrClosed
		default:
		}
		c.pending = append(c.pending, j)
		c.notifyLocked()
		c.mu.Unlock()
		return j.h, nil
	}
}

// Close fails every non-terminal job with ErrClosed and stops the reaper.
// Workers discover the shutdown on their next poll (connection refused or
// 404) and re-register when a coordinator returns. On a durable
// coordinator the WAL is closed WITHOUT journaling completes for the
// drained jobs: shutdown is not completion, and the next NewCoordinator on
// the same path re-enters them.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.mu.Lock()
		for id, j := range c.jobs {
			j.h.complete(nil, ErrClosed)
			delete(c.jobs, id)
		}
		c.pending = nil
		for _, w := range c.workers {
			w.inflight = make(map[string]*remoteJob)
		}
		c.notifyLocked()
		c.spaceLocked()
		c.mu.Unlock()
		if c.wal != nil {
			c.walMu.Lock()
			c.wal.Close()
			c.walMu.Unlock()
		}
	})
	c.reaperWG.Wait()
}

var _ Executor = (*Coordinator)(nil)

// reaper expires leases: a job whose worker stopped heartbeating is
// requeued to the front of the queue (it has waited longest), consuming
// one attempt; past MaxAttempts it fails for good. Workers with no
// in-flight leases that have not been seen for ten TTLs are pruned.
func (c *Coordinator) reaper() {
	defer c.reaperWG.Done()
	tick := c.cfg.LeaseTTL / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.closed:
			return
		case now := <-t.C:
			c.expireLeases(now)
		}
	}
}

func (c *Coordinator) expireLeases(now time.Time) {
	var walRecs []wal.Record
	c.mu.Lock()
	woke := false
	for wid, w := range c.workers {
		for id, j := range w.inflight {
			if now.Before(j.expiry) {
				continue
			}
			delete(w.inflight, id)
			j.worker = ""
			c.cm.expiries.Inc()
			c.endLeaseLocked(j, wid, "lease expired")
			if j.attempts >= c.cfg.MaxAttempts {
				c.cfg.Logf("dispatch: job %.12s: lease expired on worker %s, attempt %d/%d — failing",
					id, wid, j.attempts, c.cfg.MaxAttempts)
				j.h.complete(nil, fmt.Errorf("dispatch: job %.12s failed: lease expired after %d attempts", id, j.attempts))
				delete(c.jobs, id)
				walRecs = append(walRecs, wal.Record{Type: wal.TypeComplete, Job: id, Status: "failed"})
				continue
			}
			c.cfg.Logf("dispatch: job %.12s: lease expired on worker %s, attempt %d/%d — requeueing",
				id, wid, j.attempts, c.cfg.MaxAttempts)
			j.state = jobPending
			j.enqueuedAt = now
			c.cm.requeues.Inc()
			c.pending = append([]*remoteJob{j}, c.pending...)
			walRecs = append(walRecs, wal.Record{Type: wal.TypeRequeue, Job: id, Attempts: j.attempts})
			woke = true
		}
		if len(w.inflight) == 0 && now.Sub(w.lastSeen) > 10*c.cfg.LeaseTTL {
			delete(c.workers, wid)
		}
	}
	if woke {
		c.notifyLocked()
	}
	c.mu.Unlock()
	// Journal outside c.mu. Crash windows here are safe in both directions:
	// a requeue the log missed replays as "leased" and requeues on recovery
	// anyway; an exhausted-fail the log missed replays as one more requeue
	// and fails again on its next expiry.
	c.appendWALAsync(walRecs...)
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
	st := CoordinatorStats{
		Workers: len(c.workers), Pending: len(c.pending),
		Durable: c.wal != nil, Recovered: c.recovered, Reattached: c.reattached,
	}
	for _, w := range c.workers {
		st.Leased += len(w.inflight)
	}
	return st
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
	if r.Slots <= 0 {
		r.Slots = 1
	}
	if r.Slots > c.cfg.MaxWorkerSlots {
		r.Slots = c.cfg.MaxWorkerSlots
	}
	c.mu.Lock()
	c.seq++
	id := fmt.Sprintf("w-%d", c.seq)
	c.workers[id] = &remoteWorker{
		id: id, name: r.Name, slots: r.Slots,
		inflight: make(map[string]*remoteJob),
		lastSeen: time.Now(),
	}
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
	wk, ok := c.workers[id]
	if !ok {
		c.mu.Unlock()
		obs.HTTPError(w, http.StatusNotFound, "unknown worker %s", id)
		return
	}
	requeued := 0
	var walRecs []wal.Record
	for jid, j := range wk.inflight {
		delete(wk.inflight, jid)
		c.endLeaseLocked(j, id, "handover")
		j.state, j.worker = jobPending, ""
		j.attempts-- // clean handover: the retry budget is for crashes
		j.enqueuedAt = time.Now()
		c.cm.requeues.Inc()
		c.pending = append([]*remoteJob{j}, c.pending...)
		walRecs = append(walRecs, wal.Record{Type: wal.TypeRequeue, Job: jid, Attempts: j.attempts})
		requeued++
	}
	delete(c.workers, id)
	c.cm.slotsBusy.With(wk.label()).Set(0)
	if requeued > 0 {
		c.notifyLocked()
	}
	c.mu.Unlock()
	c.appendWALAsync(walRecs...) // journals the refunded attempt counts
	c.cfg.Logf("dispatch: worker %s deregistered (%d jobs requeued)", id, requeued)
	obs.WriteJSON(w, http.StatusOK, map[string]int{"requeued": requeued})
}

// grant is the part of a lease grant that must run outside c.mu: the journal
// record and the OnStart callbacks (see announce).
type grant struct {
	job      Job
	worker   string
	attempts int
	starts   []func() // OnStart callbacks owed; nil once the job has started before
}

// grantLocked leases the head of the pending queue to wk — the one place a
// queued job becomes a leased one, shared by the lease long-poll and the
// result ack (complete-and-lease-next). ok is false when wk is at its
// in-flight limit or nothing is pending. Caller holds c.mu and must call
// announce with the returned grant after releasing it.
func (c *Coordinator) grantLocked(wk *remoteWorker) (grant, bool) {
	if len(wk.inflight) >= wk.slots || len(c.pending) == 0 {
		return grant{}, false
	}
	j := c.pending[0]
	c.pending = c.pending[1:]
	now := time.Now()
	j.state, j.worker = jobLeased, wk.id
	j.expiry = now.Add(c.cfg.LeaseTTL)
	j.attempts++
	j.suppressRelay = false // a fresh attempt re-reports from round zero, so relaying can resume
	j.relayMu.Lock()
	j.attemptSeen = 0 // fresh attempt re-runs from round zero
	j.relayMu.Unlock()
	c.cm.leaseWait.Observe(now.Sub(j.enqueuedAt).Seconds())
	j.leasedAt, j.lastBeat = now, now
	wk.inflight[j.h.job.ID] = j
	c.cm.slotsBusy.With(wk.label()).Set(float64(len(wk.inflight)))
	g := grant{job: j.h.job, worker: wk.id, attempts: j.attempts}
	if !j.started {
		g.starts = j.onStart
	}
	j.started, j.onStart = true, nil
	c.spaceLocked()
	return g, true
}

// announce finishes a grant outside c.mu. The lease is journaled without
// waiting for the fsync: if the append is lost to a crash, recovery simply
// replays the job as pending — the worker's in-flight computation re-attaches
// via heartbeat adoption, so the window costs nothing.
func (c *Coordinator) announce(g grant) {
	c.appendWALAsync(wal.Record{Type: wal.TypeLease, Job: g.job.ID, Worker: g.worker, Attempts: g.attempts})
	for _, f := range g.starts {
		f()
	}
}

// leaseOnAck is complete-and-lease-next: the worker whose upload is being
// acknowledged asked (?lease=1) for the slot it just freed to be refilled,
// so the ack carries the next job instead of costing a lease round trip.
// The grant is an ordinary one — same fields, same journal record, lost to a
// crash or a dropped response exactly like a polled lease — held under the
// worker id the upload was posted as. nil when that worker is unknown, at
// its in-flight limit, or nothing is pending.
func (c *Coordinator) leaseOnAck(wid string) *Job {
	c.mu.Lock()
	wk, ok := c.workers[wid]
	var g grant
	if ok {
		g, ok = c.grantLocked(wk)
	}
	c.mu.Unlock()
	if !ok {
		return nil
	}
	c.cm.leasesOnAck.Inc()
	c.announce(g)
	return &g.job
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
		c.mu.Lock()
		wk, ok := c.workers[id]
		if !ok {
			c.mu.Unlock()
			obs.HTTPError(w, http.StatusNotFound, "unknown worker %s (re-register)", id)
			return
		}
		wk.lastSeen = time.Now()
		if g, ok := c.grantLocked(wk); ok {
			c.mu.Unlock()
			c.announce(g)
			w.Header().Set(obs.TraceHeader, g.job.ID)
			obs.WriteJSON(w, http.StatusOK, leaseResponse{Job: g.job})
			return
		}
		notify := c.notify
		c.mu.Unlock()
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
	wk, ok := c.workers[wid]
	if !ok {
		c.mu.Unlock()
		obs.HTTPError(w, http.StatusNotFound, "unknown worker %s (re-register)", wid)
		return
	}
	wk.lastSeen = time.Now()
	j, held := wk.inflight[jid]
	adopted := false
	if !held {
		j2, live := c.jobs[jid]
		if !live || j2.state != jobPending || len(wk.inflight) >= wk.slots {
			c.mu.Unlock()
			obs.HTTPError(w, http.StatusGone, "lease on job %s lost", jid)
			return
		}
		for i, p := range c.pending {
			if p == j2 {
				c.pending = append(c.pending[:i], c.pending[i+1:]...)
				c.spaceLocked()
				break
			}
		}
		now := time.Now()
		j2.state, j2.worker = jobLeased, wid
		j2.attempts++
		j2.suppressRelay = true
		c.cm.leaseWait.Observe(now.Sub(j2.enqueuedAt).Seconds())
		j2.leasedAt = now
		wk.inflight[jid] = j2
		c.cm.slotsBusy.With(wk.label()).Set(float64(len(wk.inflight)))
		c.cm.reattached.Inc()
		c.reattached++
		j, adopted = j2, true
	}
	now := time.Now()
	j.expiry = now.Add(c.cfg.LeaseTTL)
	if !adopted {
		c.cm.beatGap.Observe(now.Sub(j.lastBeat).Seconds())
	}
	j.lastBeat = now
	subs := append([]func(fl.RoundStat){}, j.onRound...)
	starts := j.onStart
	started := j.started
	j.started, j.onStart = true, nil
	suppress := j.suppressRelay
	attempts := j.attempts
	c.mu.Unlock()
	if adopted {
		c.cfg.Logf("dispatch: job %.12s: worker %s re-attached mid-flight (attempt %d resumes)", jid, wid, attempts)
		c.appendWALAsync(wal.Record{Type: wal.TypeLease, Job: jid, Worker: wid, Attempts: attempts})
		if !started {
			for _, f := range starts {
				f()
			}
		}
	}
	if !suppress && len(rounds) > 0 {
		// Relay only rounds past the high-water mark: a retry of a requeued
		// job re-reports the rounds its predecessor already delivered.
		// relayMu is held across the subscriber calls themselves so a
		// concurrent result backfill cannot interleave with this delivery.
		j.relayMu.Lock()
		for _, st := range rounds {
			j.attemptSeen++
			if j.attemptSeen > j.relayed {
				j.relayed = j.attemptSeen
				for _, f := range subs {
					f(st)
				}
			}
		}
		j.relayMu.Unlock()
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
	c.mu.Lock()
	if wk, ok := c.workers[wid]; ok {
		wk.lastSeen = time.Now()
	}
	j, ok := c.jobs[jid]
	if !ok {
		c.mu.Unlock()
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
	}
	// An error upload is only honoured from the current lease holder: a
	// stale worker (lease expired, job requeued) reporting a worker-local
	// failure must not kill a retry that is actively recomputing the job.
	// Successful uploads are accepted from anyone — the result is a
	// deterministic function of the job, so whoever finishes first wins.
	if errMsg != "" && (j.state != jobLeased || j.worker != wid) {
		c.cm.uploads.With("rejected").Inc()
		c.mu.Unlock()
		obs.HTTPError(w, http.StatusGone, "lease on job %s lost; error discarded", jid)
		return
	}
	// The span outcome is decided before the job is detached so the lease
	// span carries it.
	outcome := ""
	switch {
	case errMsg != "":
		outcome = "worker error"
	case hist == nil || len(hist.Stats) == 0:
		outcome = "empty history"
	}
	// Detach the job wherever it currently lives: its uploader's inflight
	// set, another worker's (requeued + re-leased), or the pending queue.
	subs := append([]func(fl.RoundStat){}, j.onRound...)
	delete(c.jobs, jid)
	if j.worker != "" {
		if wk, ok := c.workers[j.worker]; ok {
			delete(wk.inflight, jid)
		}
		c.endLeaseLocked(j, j.worker, outcome)
	}
	if j.state == jobPending {
		for i, p := range c.pending {
			if p == j {
				c.pending = append(c.pending[:i], c.pending[i+1:]...)
				// The queue shrank: wake submitters blocked on a full queue,
				// not just lease long-pollers.
				c.spaceLocked()
				break
			}
		}
	}
	c.notifyLocked() // capacity freed
	c.mu.Unlock()

	if errMsg != "" {
		// An execution error is deterministic (same spec, same code path on
		// every worker) — retrying elsewhere would fail identically, so the
		// job fails now; the retry budget is reserved for lease expiry.
		c.cm.uploads.With("failed").Inc()
		c.noteCompleteAndMaybeCheckpoint(jid, "failed")
		j.h.complete(nil, fmt.Errorf("dispatch: job %.12s failed on worker %s: %s", jid, wid, errMsg))
		ack("failed")
		return
	}
	if hist == nil || len(hist.Stats) == 0 {
		// Reject before completing the handle: an empty upload must not pin
		// the cell "done" with nothing in the store. The job is already
		// detached; the worker sees the error and the submitter sees the
		// failure.
		c.cm.uploads.With("rejected").Inc()
		c.noteCompleteAndMaybeCheckpoint(jid, "failed")
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
	c.noteCompleteAndMaybeCheckpoint(jid, "stored")
	// Persist the job's trace alongside the history: lease spans recorded by
	// this coordinator (workers keep their own execution spans). Best-effort
	// — traces are debugging artifacts, not part of the result contract.
	if spans := c.cfg.Tracer.Collect(jid); len(spans) > 0 {
		if err := c.cfg.Store.PutTrace(jid, spans); err != nil {
			c.cfg.Logf("dispatch: persisting trace for job %.12s: %v", jid, err)
		}
	}
	// Backfill progress the heartbeats never carried (rounds recorded after
	// the final beat — or all of them, for a job faster than one beat):
	// the history holds the full ordered round list, so relaying past the
	// high-water mark delivers every round exactly once, matching the
	// local backend's progress contract. relayMu is held across the
	// deliveries so a straggling heartbeat relay for the same job cannot
	// interleave its rounds with (or duplicate) the backfill.
	j.relayMu.Lock()
	if j.relayed < len(hist.Stats) {
		for _, st := range hist.Stats[j.relayed:] {
			for _, f := range subs {
				f(st)
			}
		}
		j.relayed = len(hist.Stats)
	}
	j.relayMu.Unlock()
	j.h.complete(hist, nil)
	ack("stored")
}
