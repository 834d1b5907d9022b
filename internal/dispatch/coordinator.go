package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"fedwcm/internal/dispatch/wal"
	"fedwcm/internal/fl"
	"fedwcm/internal/obs"
	"fedwcm/internal/store"
	"fedwcm/internal/trace"
	"fedwcm/internal/wire"
)

// CoordinatorConfig wires a Coordinator.
type CoordinatorConfig struct {
	Store *store.Store // required: the artifact exchange finished histories land in
	// LeaseTTL is how long a worker may hold a job without heartbeating
	// before the job is requeued onto surviving workers. 0 = 15s.
	LeaseTTL time.Duration
	// Queue bounds jobs waiting for a lease. 0 = 4096 (one maximal sweep).
	Queue int
	// WALPath, when non-empty, backs the queue with a write-ahead log
	// (internal/dispatch/wal) of the jobs it accepted: one submit record per
	// job, fsync'd (group-committed) before Submit returns. NewCoordinator
	// replays the log, finishes every job whose artifact the store holds and
	// queues the rest in submission order with no attempts used. Empty =
	// in-memory only.
	WALPath string
	// Logf defaults to the unified slog route (obs.Logf("dispatch")); tests
	// pass t.Logf.
	Logf func(format string, args ...any)
	// Metrics receives the coordinator's series; nil uses the process
	// default registry. Tracer records lease-level spans; nil uses the
	// process default tracer.
	Metrics *obs.Registry
	Tracer  *obs.Tracer

	// maxAttempts caps how many leases a job may consume (first execution
	// included) before lease expiry fails it for good. 0 = 3.
	maxAttempts int
	// walCompactEvery checkpoints the WAL (rewriting it down to the live job
	// set) after this many terminal jobs. 0 = 1024.
	walCompactEvery int
}

// Coordinator is the dispatch backend every topology runs: jobs queue here,
// workers — remote over HTTP (Mount), or Local's in process — pull them via
// leases, heartbeat progress, and upload finished histories keyed by the
// job fingerprint. The upload path writes straight into the store, so
// duplicate uploads — a requeued job finished by two workers, a tardy worker
// acking after its lease expired — are idempotent by content address. Lease
// expiry requeues the job (capped at three leases); an explicit
// deregistration requeues without consuming an attempt (clean handover).
//
// Every one of those rules lives in the queue (queue.go); the Coordinator is
// what is not the state machine: the lock, the wake channels, the log and
// its durability rules, the reaper's clock, the order progress is published
// in, the handles it retains after their jobs left the queue, and five
// worker-facing methods — register, lease, heartbeat, result, deregister —
// each of one shape: lock, one queue call, settle, unlock; carry out the
// effects. The HTTP handlers decode, call one of them, and encode.
//
// Mount attaches the worker-facing endpoints to a mux; internal/serve does
// this for any Executor that implements it, so `fedserve -remote` serves
// the public run API and the worker protocol from one listener.
type Coordinator struct {
	cfg CoordinatorConfig

	mu sync.Mutex // what the queue's transitions run under
	q  *queue
	// retained holds, by id, the handles of jobs that left the queue's table
	// but are still the record of their cell: a failed job (for status
	// queries; a resubmission replaces it with a fresh attempt), and a
	// finished one until its history is in the store — for good when the
	// store refused it, so its history is still served from memory. Guarded
	// by mu.
	retained map[string]*handle
	notify   signal        // work or capacity appeared: lease pollers wake
	space    signal        // the FIFO shrank: blocked submitters wake
	closed   chan struct{} // closed by shutdown

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
// mu — not c.mu — guards both and is held across the publishes themselves,
// so a heartbeat relay and the result backfill can never interleave or
// reorder a job's round feed. Delivery only ever holds mu.
type relay struct {
	mu          sync.Mutex
	relayed     int
	attemptSeen int
}

// deliver relays the rounds of stats past the high-water mark. counted says
// stats are the next rounds of the current attempt (a heartbeat) rather than
// the job's whole history (the upload's backfill).
func (r *relay) deliver(feed *Feed[fl.RoundStat], stats []fl.RoundStat, counted bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := 0 // rounds of the attempt before stats[0]
	if counted {
		seen = r.attemptSeen
		r.attemptSeen += len(stats)
	}
	if fresh := stats[min(max(r.relayed-seen, 0), len(stats)):]; len(fresh) > 0 {
		r.relayed = seen + len(stats)
		feed.publishAll(fresh)
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
	c, err := newCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	c.reaperWG.Add(1)
	go c.reaper()
	return c, nil
}

// newCoordinator is NewCoordinator without its checks and its reaper, for
// NewLocal: no store means nothing persisted, a zero LeaseTTL leases that
// never expire.
func newCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.maxAttempts <= 0 {
		cfg.maxAttempts = 3
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 4096
	}
	if cfg.walCompactEvery <= 0 {
		cfg.walCompactEvery = 1024
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
		cfg:      cfg,
		q:        newQueue(cfg.Queue, cfg.maxAttempts, cfg.LeaseTTL, cfg.WALPath != ""),
		retained: make(map[string]*handle),
		notify:   newSignal(), space: newSignal(), closed: make(chan struct{}),
	}
	c.cm = newCoordMetrics(cfg.Metrics, c.Stats)
	if cfg.WALPath != "" {
		if err := c.recoverWAL(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// signal is a broadcast channel guarded by c.mu: a waiter takes the channel
// under the lock, a broadcast closes it. It is remade only once taken — most
// transitions wake nobody.
type signal struct {
	ch    chan struct{}
	taken bool
}

func newSignal() signal { return signal{ch: make(chan struct{})} }

func (s *signal) wait() <-chan struct{} {
	s.taken = true
	return s.ch
}

func (s *signal) broadcast() {
	if s.taken {
		close(s.ch)
		*s = newSignal()
	}
}

// settleLocked broadcasts to whoever a transition's effects say to wake, and
// retains the handles it failed. The caller still holds c.mu from the
// transition: a waiter that saw the old state also took the old channel
// under it, and no submission can miss both the job and its failed record.
func (c *Coordinator) settleLocked(fx effects) {
	for _, f := range fx.failed {
		c.retained[f.h.job.ID] = f.h
	}
	if fx.wake {
		c.notify.broadcast()
	}
	if fx.space {
		c.space.broadcast()
	}
}

// recoverWAL opens (creating if absent) the write-ahead log and rebuilds the
// queue from it: replay the submits, then finish every job whose artifact
// the store holds — the log records what was accepted, the store what
// finished. The rest are pending in submission order with no attempts used,
// whatever they were doing when the log ended: a worker still running one
// re-attaches with its next heartbeat (adoption) without a recompute, and one
// that failed since the last checkpoint runs again, as a resubmission would.
// Recovery ends with a checkpoint, so finished submits don't accrete across
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
	now := time.Now()
	for _, r := range recov.Records {
		c.q.apply(now, r)
	}
	stored := 0
	for _, r := range c.q.live() {
		if _, ok, gerr := c.cfg.Store.Get(r.Job); gerr == nil && ok {
			c.q.finish(now, "", r.Job, outcomeStored)
			stored++
		}
	}
	c.recovered = len(c.q.jobs)
	if len(recov.Records) > 0 {
		c.cfg.Logf("dispatch: wal %s: %d records, recovered %d jobs (%d more already stored)",
			c.cfg.WALPath, len(recov.Records), c.recovered, stored)
	}
	c.checkpoint()
	return nil
}

// appendWAL journals an accepted job's submit record and returns once it is
// durable. Never call it while holding c.mu: appends fsync (concurrent
// submitters share one through the log's group commit). A failed append is
// returned so Submit fails closed instead of promising durability the log
// didn't deliver.
func (c *Coordinator) appendWAL(rec wal.Record) error {
	c.walMu.RLock()
	err := c.wal.Append(rec)
	c.walMu.RUnlock()
	if err != nil {
		c.cfg.Logf("dispatch: wal append: %v", err)
		return err
	}
	c.cm.walRecords.Inc()
	return nil
}

// checkpoint rewrites the WAL down to the live job set: the queue's jobs,
// and the retained ones that did not fail — a job that finished but whose
// artifact may not be in the store yet stays in the log until the store
// holds it. The exclusive walMu hold means no append can land between the
// snapshot and the swap and be lost with the old file.
func (c *Coordinator) checkpoint() {
	if c.wal == nil {
		return
	}
	c.walMu.Lock()
	defer c.walMu.Unlock()
	c.mu.Lock()
	live := c.q.live()
	for _, h := range c.retained {
		if h.Status() != StatusFailed {
			live = append(live, submitRecord(h.job))
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

// run carries out what a transition left to do once c.mu is released: the
// granted handle's status, failed handles, metrics and spans — and every
// walCompactEvery terminal jobs, however they ended, a checkpoint, so the
// log tracks the live set instead of the submission history.
func (c *Coordinator) run(fx effects) {
	if g := fx.granted; g.j != nil {
		g.j.h.start()
		if g.fresh { // a fresh attempt re-reports from round zero
			g.j.relay.mu.Lock()
			g.j.relay.attemptSeen = 0
			g.j.relay.mu.Unlock()
		}
		c.cm.leaseWait.Observe(g.waited.Seconds())
	}
	for _, e := range fx.ended {
		c.cm.leaseHold.Observe(e.held.Seconds())
		c.cfg.Tracer.Record(obs.Span{
			Trace: e.job, Name: "dispatch.lease",
			Start: e.since.UnixMicro(), DurMS: float64(e.held) / float64(time.Millisecond),
			Worker: e.worker, Attempt: e.attempt, Err: e.outcome,
		})
		if e.requeued {
			c.cm.requeues.Inc()
		}
		if e.outcome == outcomeExpired {
			c.cm.expiries.Inc()
			c.cfg.Logf("dispatch: job %.12s: lease expired on worker %s, attempt %d/%d — %s",
				e.job, e.worker, e.attempt, c.cfg.maxAttempts, map[bool]string{true: "requeueing", false: "failing"}[e.requeued])
		}
	}
	for _, f := range fx.failed {
		f.h.complete(nil, f.err)
	}
	if fx.terminal > 0 && c.wal != nil {
		c.mu.Lock()
		c.completes += fx.terminal
		due := c.completes >= c.cfg.walCompactEvery
		c.mu.Unlock()
		if due {
			c.checkpoint()
		}
	}
}

// Submit queues the job for the next free worker. An identical submission
// joins the job's one record: the live job, or the handle retained after it
// (a failed one is replaced by a fresh attempt instead). A job whose
// artifact is already stored completes immediately without queueing —
// cached cells are never re-shipped. With opts.Block it waits for queue
// space (or Close); without, a full queue returns ErrQueueFull immediately.
func (c *Coordinator) Submit(job Job, opts SubmitOpts) (Handle, error) {
	h, j, fx, err := c.enqueue(job, opts.Block)
	if err != nil {
		return nil, err
	}
	if fx.journal {
		// Durable submit: the job is visible for coalescing but not leasable
		// until its record is on disk. The fsync runs outside c.mu; concurrent
		// submitters share it via the log's group commit.
		werr := c.appendWAL(submitRecord(job))
		c.mu.Lock()
		fx = c.q.admit(time.Now(), j, werr)
		c.settleLocked(fx)
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

// enqueue is the queueing half of Submit: one enter attempt, and for a
// blocking submission the wait for space and the next attempt.
func (c *Coordinator) enqueue(job Job, block bool) (*handle, *job, effects, error) {
	for {
		select {
		case <-c.closed:
			return nil, nil, effects{}, ErrClosed
		default:
		}
		c.mu.Lock()
		h, j, fx, err := c.enterLocked(job)
		c.settleLocked(fx)
		var space <-chan struct{} // taken only by a submission that will wait
		if block && errors.Is(err, ErrQueueFull) {
			space = c.space.wait()
		}
		c.mu.Unlock()
		if err == nil {
			return h, j, fx, nil
		}
		if space == nil {
			return nil, nil, fx, err
		}
		select {
		case <-space:
		case <-c.closed:
			return nil, nil, fx, ErrClosed
		}
	}
}

// enterLocked joins the job's record or enters it into the queue. On a
// table miss it first looks at what the job may have left behind: a retained
// handle that did not fail is joined, and the store is asked whether the job
// needs to run at all (a stored artifact ends the submission with a
// completed handle and a nil job). Both are read under c.mu, and result
// retains a finished job's handle in the same critical section that takes
// the job off the table, keeping it until its history is stored — so a
// submission racing a finishing job either joins it or reads its artifact,
// and never computes it twice. Caller holds c.mu.
func (c *Coordinator) enterLocked(job Job) (*handle, *job, effects, error) {
	if c.q.jobs[job.ID] == nil {
		if h := c.retained[job.ID]; h != nil && h.Status() != StatusFailed {
			return h, nil, effects{}, nil
		}
		if h, err := c.cached(job); h != nil || err != nil {
			return h, nil, effects{}, err
		}
	}
	j, fx, err := c.q.submit(time.Now(), job)
	if err != nil {
		return nil, nil, fx, err
	}
	delete(c.retained, job.ID) // a failed record is not pinned: the new job replaces it
	return j.h, j, fx, nil
}

// cached is the store fast path: the artifact exchange already has this cell.
func (c *Coordinator) cached(job Job) (*handle, error) {
	if c.cfg.Store == nil {
		return nil, nil
	}
	hist, ok, err := c.cfg.Store.Get(job.ID)
	if err != nil || !ok {
		return nil, err
	}
	h := newHandle(job)
	h.complete(hist, nil)
	return h, nil
}

// Lookup returns the record of the job with this id: the live job's
// handle, else the handle retained after it, else nil (the store is then the
// only place to look).
func (c *Coordinator) Lookup(id string) Handle {
	c.mu.Lock()
	defer c.mu.Unlock()
	if j := c.q.jobs[id]; j != nil {
		return j.h
	}
	if h := c.retained[id]; h != nil {
		return h
	}
	return nil
}

// Records counts the jobs the coordinator holds a record of: live and
// retained.
func (c *Coordinator) Records() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.q.jobs) + len(c.retained)
}

// release drops h from the retained set once its history is in the store,
// unless a fresh attempt already replaced it.
func (c *Coordinator) release(h *handle) {
	c.mu.Lock()
	if c.retained[h.job.ID] == h {
		delete(c.retained, h.job.ID)
	}
	c.mu.Unlock()
}

// Close fails every non-terminal job with ErrClosed and stops the reaper.
// Workers discover the shutdown on their next poll (connection refused or
// 404) and re-register when a coordinator returns. On a durable coordinator
// the log still holds the drained jobs' submits: shutdown is not
// completion, and the next NewCoordinator on the same path re-enters them.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.closed) // later submissions get ErrClosed, every waiter wakes
		c.mu.Lock()
		c.settleLocked(effects{wake: true, space: true})
		queued, running := c.q.shutdown()
		c.mu.Unlock()
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
			c.settleLocked(fx)
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

// --- the worker-facing methods: both transports call these ---

var errEmptyHistory = errors.New("dispatch: empty history")

// register admits a worker that may hold up to slots leases at once.
func (c *Coordinator) register(slots int) registerResponse {
	c.mu.Lock()
	id := c.q.register(time.Now(), slots)
	c.mu.Unlock()
	return registerResponse{ID: id, Slots: slots, LeaseTTL: c.cfg.LeaseTTL.Milliseconds()}
}

// deregister is the clean-shutdown path: the worker's in-flight jobs
// requeue immediately (to the front, without consuming an attempt) instead
// of waiting out their leases. It returns how many did.
func (c *Coordinator) deregister(wid string) (int, error) {
	c.mu.Lock()
	fx, err := c.q.forget(time.Now(), wid)
	c.settleLocked(fx)
	c.mu.Unlock()
	if err != nil {
		return 0, err
	}
	c.run(fx)
	return len(fx.ended), nil
}

// leaseTo leases the head of the queue to the worker, for the lease long-poll
// and the result ack (complete-and-lease-next) alike; notify is the channel
// to wait on when nothing was granted. A grant is not journaled: after a
// crash the job replays as pending, and the worker's in-flight computation
// re-attaches via heartbeat adoption.
func (c *Coordinator) leaseTo(wid string) (job *Job, notify <-chan struct{}, err error) {
	c.mu.Lock()
	fx, err := c.q.grant(time.Now(), wid)
	c.settleLocked(fx)
	if err == nil && fx.granted.j == nil {
		notify = c.notify.wait()
	}
	c.mu.Unlock()
	if err != nil || fx.granted.j == nil {
		return nil, notify, err
	}
	c.run(fx)
	return &fx.granted.j.h.job, nil, nil
}

// lease hands the next pending job to the worker, waiting up to wait for one
// (or for a free slot). A nil job means the wait ran out, ctx ended or the
// coordinator closed; errUnknownWorker means the worker must re-register.
func (c *Coordinator) lease(ctx context.Context, wid string, wait time.Duration) (*Job, error) {
	var timeout <-chan time.Time // armed at the first wait: a job at hand costs no timer
	for {
		job, notify, err := c.leaseTo(wid)
		if job != nil || err != nil {
			return job, err
		}
		if timeout == nil {
			t := time.NewTimer(wait)
			defer t.Stop()
			timeout = t.C
		}
		select {
		case <-notify:
			continue
		case <-timeout:
		case <-ctx.Done():
		case <-c.closed:
		}
		return nil, nil
	}
}

// heartbeat extends the lease and relays the rounds recorded since the
// previous beat. errLeaseLost tells the worker its lease is gone (expired
// and requeued, or the job finished elsewhere): abandon the work.
//
// A heartbeat for a job this worker does NOT hold, but which is sitting in
// the pending queue, is a re-attach: the worker kept computing across a
// coordinator restart (the job came back via WAL replay) or across its own
// lease expiry, re-registered, and is now heartbeating under its new id.
// Adopting the lease — instead of answering errLeaseLost and forcing a
// recompute — lets in-flight work survive a coordinator crash. Adoption
// counts as a lease grant (attempts++); its heartbeat rounds are
// not relayed because a mid-stream worker cannot be ordered against what an
// earlier incarnation delivered — the result upload backfills the full
// history.
func (c *Coordinator) heartbeat(wid, jid string, rounds []fl.RoundStat) error {
	c.mu.Lock()
	j, gap, fx, err := c.q.beat(time.Now(), wid, jid)
	c.settleLocked(fx)
	adopted := fx.granted.j != nil
	if adopted {
		c.reattached++
	}
	relayed := err == nil && !j.adopted
	c.mu.Unlock()
	switch {
	case err != nil:
		return err
	case adopted:
		c.cfg.Logf("dispatch: job %.12s: worker %s re-attached mid-flight (attempt %d resumes)", jid, wid, fx.granted.attempt)
	default:
		c.cm.beatGap.Observe(gap.Seconds())
	}
	c.run(fx)
	// A retry of a requeued job re-reports the rounds its predecessor already
	// delivered; deliver relays only those past the high-water mark. An
	// adopted lease's rounds are not even counted: the upload backfills.
	if relayed {
		j.relay.deliver(&j.h.rounds, rounds, true)
	}
	return nil
}

// result ingests a finished job — its history, or the execution error
// runErr — persisting the history under the job fingerprint before the
// handle completes. The handle is retained from the moment the job leaves
// the queue's table: a failed one for good (until a resubmission), a
// finished one until its history is stored. A Put that fails is retried
// once; if the retry fails too the handle stays retained as done, so the
// history is served from memory and only re-serving it after a restart is
// lost. Uploads are idempotent by content address: a duplicate
// from a second worker that computed the same requeued job, or from a
// worker whose lease expired mid-upload, is acknowledged without a second
// store write, and counted as divergent if its bytes are not the stored
// ones.
//
// With next the ack is complete-and-lease-next: the uploader asked for the
// slot it just freed to be refilled, so the ack carries the next job instead
// of costing a lease round trip. The grant is an ordinary one — same
// transition, lost to a crash or a dropped response exactly like a polled
// lease — held under the worker id the upload was
// posted as; none when that worker is unknown, at its in-flight limit, or
// nothing is pending. Refusals carry no next job: errUnknownJob (never
// submitted, or terminal with nothing stored), errLeaseLost (an error from
// a worker that no longer holds the lease) and errEmptyHistory.
func (c *Coordinator) result(wid, jid string, hist *fl.History, runErr error, next bool) (resultResponse, error) {
	ack := func(status string) resultResponse {
		resp := resultResponse{Status: status}
		if next {
			if resp.Next, _, _ = c.leaseTo(wid); resp.Next != nil {
				c.cm.leasesOnAck.Inc()
			}
		}
		return resp
	}
	// The outcome is decided before the job is detached so the lease span
	// carries it.
	outcome := outcomeStored
	switch {
	case runErr != nil:
		outcome = outcomeWorkerError
	case hist == nil || len(hist.Stats) == 0:
		outcome = outcomeEmpty
	}
	c.mu.Lock()
	j, fx, err := c.q.finish(time.Now(), wid, jid, outcome)
	if err == nil {
		c.retained[jid] = j.h
	}
	c.settleLocked(fx)
	c.mu.Unlock()
	switch {
	case errors.Is(err, errUnknownJob):
		// Terminal already (or never submitted): the store arbitrates. An
		// artifact under this fingerprint means an equivalent upload landed
		// first — acknowledge the duplicate so the worker frees its slot.
		if c.cfg.Store == nil {
			return resultResponse{}, err
		}
		if _, found, gerr := c.cfg.Store.Get(jid); gerr != nil || !found {
			return resultResponse{}, err
		}
		c.cm.dup.Inc()
		c.cm.uploads.With("duplicate").Inc()
		if c.divergent(jid, hist) {
			c.cm.divergent.Inc()
			c.cfg.Logf("dispatch: job %s: worker %s uploaded a history whose bytes differ from the stored artifact; keeping the stored one", jid, wid)
		}
		return ack("duplicate"), nil
	case err != nil:
		c.cm.uploads.With("rejected").Inc()
		return resultResponse{}, err
	case outcome == outcomeWorkerError:
		// An execution error is deterministic (same spec, same code path on
		// every worker) — retrying elsewhere would fail identically, so the
		// job fails now; the retry budget is reserved for lease expiry.
		c.cm.uploads.With("failed").Inc()
		c.run(fx)
		j.h.complete(nil, fmt.Errorf("dispatch: job %.12s failed on worker %s: %w", jid, wid, runErr))
		return ack("failed"), nil
	case outcome == outcomeEmpty:
		// Refuse before completing the handle: an empty upload must not pin
		// the cell "done" with nothing in the store. The job is already
		// detached; the worker sees the error and the submitter sees the
		// failure.
		c.cm.uploads.With("rejected").Inc()
		c.run(fx)
		j.h.complete(nil, fmt.Errorf("dispatch: job %.12s: worker %s uploaded an empty history", jid, wid))
		return resultResponse{}, errEmptyHistory
	}
	c.cm.uploads.With("stored").Inc()
	stored := true
	if c.cfg.Store != nil {
		err := c.cfg.Store.Put(jid, hist)
		if err != nil {
			err = c.cfg.Store.Put(jid, hist)
		}
		if err != nil {
			// The computation succeeded, so the submitter gets the history
			// even though re-serving after restart is lost.
			stored = false
			c.cfg.Logf("dispatch: persisting job %.12s: %v", jid, err)
		}
	}
	// The store is the record of completion: a crash before the Put replays
	// the job, and one after it finds the artifact on recovery.
	c.run(fx)
	// Persist the job's trace alongside the history: the lease spans this
	// coordinator recorded, plus the execution and round spans of a worker
	// that shares its tracer (Local's). Best-effort — traces are debugging
	// artifacts, not part of the result contract.
	if c.cfg.Store != nil {
		if spans := c.cfg.Tracer.Collect(jid); len(spans) > 0 {
			if err := c.cfg.Store.PutTrace(jid, spans); err != nil {
				c.cfg.Logf("dispatch: persisting trace for job %.12s: %v", jid, err)
			}
		}
	}
	// Backfill progress the heartbeats never carried (rounds recorded after
	// the final beat — or all of them, for a job faster than one beat): the
	// history holds the full ordered round list, so relaying past the
	// high-water mark delivers every round exactly once, and a straggling
	// heartbeat relay for the same job cannot interleave its rounds with (or
	// duplicate) the backfill.
	j.relay.deliver(&j.h.rounds, hist.Stats, false)
	if stored {
		c.release(j.h) // a submission from here on reads the artifact (with no store: runs afresh)
	}
	j.h.complete(hist, nil)
	return ack("stored"), nil
}

// divergent reports whether a duplicate upload's history, encoded as
// store.Put encodes it, differs from the bytes stored under jid — two
// workers computed different bytes for one deterministic spec.
func (c *Coordinator) divergent(jid string, hist *fl.History) bool {
	if hist == nil || len(hist.Stats) == 0 {
		return false
	}
	stored, err := os.ReadFile(c.cfg.Store.Path(jid))
	if err != nil {
		return false
	}
	var upload bytes.Buffer
	if err := trace.WriteJSONL(&upload, map[string]*fl.History{jid: hist}); err != nil {
		return false
	}
	return !bytes.Equal(upload.Bytes(), stored)
}

// --- the HTTP transport's server side ---

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

// Mount attaches the worker protocol to mux. Endpoint reference with
// example flows: docs/API.md.
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/workers", c.handleRegister)
	mux.HandleFunc("DELETE /v1/workers/{id}", c.handleDeregister)
	mux.HandleFunc("POST /v1/workers/{id}/lease", c.handleLease)
	mux.HandleFunc("POST /v1/workers/{id}/jobs/{job}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/workers/{id}/jobs/{job}/result", c.handleResult)
}

// maxWorkerSlots caps the in-flight limit a worker may declare at
// registration: the number arrives over the network.
const maxWorkerSlots = 8

func (c *Coordinator) handleRegister(w http.ResponseWriter, req *http.Request) {
	var r registerRequest
	// An empty body is a valid registration (defaults apply: anonymous
	// worker, one slot) — the decoder's io.EOF on zero bytes is not an
	// error, matching handleLease/handleHeartbeat. Malformed JSON still 400s.
	if err := json.NewDecoder(req.Body).Decode(&r); err != nil && !errors.Is(err, io.EOF) {
		obs.HTTPError(w, http.StatusBadRequest, "decoding registration: %v", err)
		return
	}
	resp := c.register(min(max(r.Slots, 1), maxWorkerSlots))
	c.cfg.Logf("dispatch: worker %s registered (name %q, %d slots)", resp.ID, r.Name, resp.Slots)
	obs.WriteJSON(w, http.StatusCreated, resp)
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	requeued, err := c.deregister(id)
	if err != nil {
		obs.HTTPError(w, http.StatusNotFound, "unknown worker %s", id)
		return
	}
	c.cfg.Logf("dispatch: worker %s deregistered (%d jobs requeued)", id, requeued)
	obs.WriteJSON(w, http.StatusOK, map[string]int{"requeued": requeued})
}

// handleLease answers 204 for "nothing yet, poll again".
func (c *Coordinator) handleLease(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	var lr leaseRequest
	if req.ContentLength != 0 {
		if err := json.NewDecoder(req.Body).Decode(&lr); err != nil {
			obs.HTTPError(w, http.StatusBadRequest, "decoding lease request: %v", err)
			return
		}
	}
	job, err := c.lease(req.Context(), id, min(time.Duration(lr.WaitMS)*time.Millisecond, 30*time.Second))
	switch {
	case err != nil:
		obs.HTTPError(w, http.StatusNotFound, "unknown worker %s (re-register)", id)
	case job != nil:
		obs.WriteJSON(w, http.StatusOK, leaseResponse{Job: *job})
	case req.Context().Err() == nil:
		w.WriteHeader(http.StatusNoContent)
	}
}

// handleHeartbeat takes an empty body as a bare liveness ping. A body that
// does not decode is a 400 and extends no lease.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, req *http.Request) {
	wid, jid := req.PathValue("id"), req.PathValue("job")
	var rounds []fl.RoundStat
	body, err := io.ReadAll(req.Body)
	if err == nil && len(body) > 0 {
		rounds, err = wire.DecodeStats(body)
	}
	if err != nil {
		obs.HTTPError(w, http.StatusBadRequest, "decoding heartbeat: %v", err)
		return
	}
	switch err := c.heartbeat(wid, jid, rounds); {
	case errors.Is(err, errUnknownWorker):
		obs.HTTPError(w, http.StatusNotFound, "unknown worker %s (re-register)", wid)
	case err != nil:
		obs.HTTPError(w, http.StatusGone, "lease on job %s lost", jid)
	default:
		obs.WriteJSON(w, http.StatusOK, struct{}{})
	}
}

// handleResult asks for the uploader's next job with ?lease=1.
func (c *Coordinator) handleResult(w http.ResponseWriter, req *http.Request) {
	wid, jid := req.PathValue("id"), req.PathValue("job")
	var (
		hist   *fl.History
		errMsg string
	)
	body, err := io.ReadAll(req.Body)
	if err == nil {
		hist, errMsg, err = wire.DecodeResult(body)
	}
	if err != nil {
		obs.HTTPError(w, http.StatusBadRequest, "decoding result: %v", err)
		return
	}
	var runErr error
	if errMsg != "" {
		runErr = errors.New(errMsg)
	}
	resp, err := c.result(wid, jid, hist, runErr, req.URL.Query().Get("lease") == "1")
	switch {
	case errors.Is(err, errUnknownJob):
		obs.HTTPError(w, http.StatusNotFound, "unknown job %s", jid)
	case errors.Is(err, errEmptyHistory):
		obs.HTTPError(w, http.StatusBadRequest, "empty history for job %s", jid)
	case err != nil:
		obs.HTTPError(w, http.StatusGone, "lease on job %s lost; error discarded", jid)
	default:
		obs.WriteJSON(w, http.StatusOK, resp)
	}
}
