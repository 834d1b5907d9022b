package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"time"

	"fedwcm/internal/fl"
	"fedwcm/internal/obs"
)

// WorkerConfig wires a Worker.
type WorkerConfig struct {
	Coordinator string // required: coordinator base URL, e.g. http://host:8080
	Runner      Runner // required: how one leased job executes
	Name        string // reported at registration; defaults to the hostname-free "worker"
	Slots       int    // concurrent jobs; 0 = 1 (the coordinator may cap it)
	// PollWait is the long-poll budget per lease request. 0 = 10s.
	PollWait time.Duration
	// HeartbeatEvery overrides the heartbeat cadence; 0 derives it from the
	// coordinator's lease TTL (TTL/3).
	HeartbeatEvery time.Duration
	HTTPClient     *http.Client
	// Logf defaults to the unified slog route (obs.Logf("worker")).
	Logf func(format string, args ...any)
	// Metrics receives the worker's series (exposed on the worker process's
	// own /metrics listener); nil uses the process default registry.
	Metrics *obs.Registry
}

// Worker is the pull side of the dispatch layer: it registers with a
// coordinator, leases jobs, heartbeats progress while training, and
// uploads finished histories — over HTTP for fedserve -worker -join <url>,
// through direct calls for Local, by the same rules either way.
//
// Failure behaviour: a heartbeat answered with 410 Gone means the lease
// was lost (expired and requeued elsewhere) — the job's context is
// cancelled and the work abandoned, never uploaded twice as a conflicting
// result (uploads are idempotent by fingerprint anyway). A 404 on lease or
// heartbeat means the coordinator forgot the worker (restart, pruning):
// the worker re-registers and carries on — for an in-flight job, the next
// heartbeat under the fresh id re-attaches to the job a WAL-backed
// coordinator recovered, so the computation survives the restart instead
// of being redone.
type Worker struct {
	cfg    WorkerConfig
	t      transport
	tracer *obs.Tracer // records dispatch.execute around every run

	mu  sync.Mutex
	id  string        // live registration; "" until the first one lands
	ttl time.Duration // the coordinator's lease TTL, reported at registration

	regMu sync.Mutex // single-flights re-registration across slot loops

	wm workerMetrics
}

// NewWorker validates cfg and returns a worker that reaches its coordinator
// over HTTP; Run starts it.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("dispatch: WorkerConfig.Coordinator is required")
	}
	if cfg.Runner == nil {
		return nil, fmt.Errorf("dispatch: WorkerConfig.Runner is required")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default()
	}
	w := newWorker(cfg, newWorkerMetrics(cfg.Metrics), obs.DefaultTracer())
	if w.cfg.HTTPClient == nil {
		// Lease long-polls hold the connection open for PollWait; leave
		// headroom over it instead of inheriting a tight global timeout.
		w.cfg.HTTPClient = &http.Client{Timeout: w.cfg.PollWait + 30*time.Second}
	}
	w.t = &httpTransport{
		// "host:8080/" + "/v1/workers" is "//v1/workers": ServeMux answers
		// 301 to the cleaned path and http.Client replays a redirected POST
		// as GET.
		base:   strings.TrimRight(cfg.Coordinator, "/"),
		client: w.cfg.HTTPClient,
		logf:   w.cfg.Logf,
	}
	return w, nil
}

// newWorker fills cfg's remaining defaults; the caller sets the transport.
func newWorker(cfg WorkerConfig, wm workerMetrics, tracer *obs.Tracer) *Worker {
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = obs.Logf("worker")
	}
	return &Worker{cfg: cfg, tracer: tracer, wm: wm}
}

// jitter scales d by a uniform factor in [0.8, 1.2). N workers whose empty
// polls all complete the moment a flush drains the queue would otherwise
// re-poll in lockstep forever; the spread desynchronizes the herd.
func jitter(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.8 + 0.4*rand.Float64()))
}

// Ready reports whether the worker holds a live registration — the /readyz
// signal for a worker process: healthy the moment it boots, ready once the
// coordinator knows it.
func (w *Worker) Ready() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id != ""
}

// Run registers and serves leases until ctx is cancelled, then deregisters
// so in-flight leases hand over cleanly instead of timing out. It returns
// ctx.Err() on cancellation.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	var wg sync.WaitGroup
	for i := 0; i < w.cfg.Slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.slotLoop(ctx)
		}()
	}
	wg.Wait()
	w.deregister()
	return ctx.Err()
}

// register (re-)registers with the coordinator, retrying with backoff until
// it lands or ctx cancels — a worker started before its coordinator, or
// outliving a restart of it, must wait it out.
func (w *Worker) register(ctx context.Context) error {
	backoff := 100 * time.Millisecond
	for {
		resp, err := w.t.register(ctx, w.cfg.Name, w.cfg.Slots)
		if err == nil {
			w.mu.Lock()
			w.id, w.ttl = resp.ID, time.Duration(resp.LeaseTTL)*time.Millisecond
			w.mu.Unlock()
			return nil
		}
		w.cfg.Logf("dispatch: registering with %s: %v (retrying in %v)", w.t, err, backoff)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(jitter(backoff)):
		}
		if backoff < 5*time.Second {
			backoff *= 2
		}
	}
}

// deregisterTimeout bounds the clean-handover call: deregistration runs on
// the SIGTERM path, and a wedged coordinator must not hang shutdown — past
// the deadline the worker leaves anyway and its leases lapse, which
// requeues the same jobs a few seconds later.
const deregisterTimeout = 3 * time.Second

func (w *Worker) deregister() {
	w.mu.Lock()
	id := w.id
	w.mu.Unlock()
	if id == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), deregisterTimeout)
	defer cancel()
	if err := w.t.deregister(ctx, id); err != nil {
		w.cfg.Logf("dispatch: deregistering %s: %v (lease will lapse instead)", id, err)
	}
}

// slotLoop leases and executes jobs one at a time until ctx cancels. While
// the queue is busy each upload's ack hands the slot its next job (see
// execute), so the lease poll is only where an idle slot parks.
func (w *Worker) slotLoop(ctx context.Context) {
	var backoff time.Duration
	for ctx.Err() == nil {
		job, id, ok := w.lease(ctx, &backoff)
		if !ok {
			continue // no job this poll (or transient error; lease backs off)
		}
		backoff = 0
		// A job the ack granted but a shutdown got to first stays leased to
		// this worker; deregistration hands it back without costing an attempt.
		for ok && ctx.Err() == nil {
			job, id, ok = w.execute(ctx, job, id)
		}
	}
}

// lease asks the coordinator for one job, long-polling on its side, and
// returns the worker id the lease was granted under — the id the job must
// heartbeat and upload as, even if another slot re-registers meanwhile.
// false means "nothing leased": empty queue, transient error, or an unknown
// worker that forced a re-registration. backoff carries the escalating
// transient-error delay across calls (reset by the caller on success); every
// sleep here is jittered ±20% so a fleet re-polling an empty queue spreads
// out.
func (w *Worker) lease(ctx context.Context, backoff *time.Duration) (Job, string, bool) {
	w.mu.Lock()
	id := w.id
	w.mu.Unlock()
	t0 := time.Now()
	job, err := w.t.lease(ctx, id, w.cfg.PollWait)
	switch {
	case ctx.Err() != nil:
		return Job{}, id, false
	case errors.Is(err, errUnknownWorker):
		w.reregister(ctx, id)
		return Job{}, id, false
	case err != nil:
		w.cfg.Logf("dispatch: lease: %v", err)
		// Transient (coordinator restarting?): escalate from 500ms toward the
		// poll budget so a dead coordinator isn't hammered at connect speed.
		if *backoff <= 0 {
			*backoff = 500 * time.Millisecond
		} else if *backoff < w.cfg.PollWait {
			*backoff = min(2*(*backoff), w.cfg.PollWait)
		}
		select {
		case <-ctx.Done():
		case <-time.After(jitter(*backoff)):
		}
		return Job{}, id, false
	case job != nil:
		w.wm.leases.Inc()
		return *job, id, true
	}
	// An empty poll normally holds on the coordinator's side for ~PollWait.
	// One that returns much sooner means the coordinator is not pacing us
	// (it is draining for shutdown, or granted the wait to another slot) —
	// sleep the remainder here or this loop spins at connection speed.
	if elapsed := time.Since(t0); elapsed < w.cfg.PollWait/2 {
		select {
		case <-ctx.Done():
		case <-time.After(jitter(w.cfg.PollWait - elapsed)):
		}
	}
	return Job{}, id, false
}

// reregister obtains a fresh registration after the coordinator forgot the
// worker (restart, idle pruning). Single-flighted: when both slot loops hit
// 404 at once, only the first re-registers — a second would leave a phantom
// registration and flap w.id under the first one's leases.
func (w *Worker) reregister(ctx context.Context, stale string) {
	w.regMu.Lock()
	defer w.regMu.Unlock()
	w.mu.Lock()
	cur := w.id
	w.mu.Unlock()
	if cur != stale {
		return // another slot already re-registered
	}
	w.cfg.Logf("dispatch: %s forgot worker %s; re-registering", w.t, stale)
	w.register(ctx)
}

// execute runs one leased job under the worker id it was leased to:
// heartbeats flow while training, the result (or execution error) is
// uploaded at the end. A lost lease cancels the job's context and abandons
// the upload.
//
// The upload asks for the freed slot's next job unless the worker is
// shutting down; when the ack carries one, execute returns it with the
// worker id it was granted under — the id the upload was posted as, which is
// not the slot's original id if a coordinator restart forced a
// re-registration mid-job.
func (w *Worker) execute(ctx context.Context, job Job, id string) (next Job, nextID string, ok bool) {
	w.mu.Lock()
	ttl := w.ttl
	w.mu.Unlock()
	// Local's leases never expire, so its cadence is the 10ms floor.
	every := w.cfg.HeartbeatEvery
	if every <= 0 {
		every = ttl / 3
	}
	if every < 10*time.Millisecond {
		every = 10 * time.Millisecond
	}

	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Progress accumulates under a lock; each heartbeat drains and relays
	// whatever arrived since the last one.
	var (
		statsMu sync.Mutex
		stats   []fl.RoundStat
	)
	onRound := func(st fl.RoundStat) {
		statsMu.Lock()
		stats = append(stats, st)
		statsMu.Unlock()
	}
	// curID is the worker id the job currently heartbeats and uploads as. It
	// starts as the id the lease was granted under and advances when a
	// coordinator restart forces a re-registration mid-job. Only the
	// heartbeat goroutine writes it and leaseLost, and the upload path reads
	// them strictly after <-hbDone.
	curID, leaseLost := id, false
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		drain := func() []fl.RoundStat {
			statsMu.Lock()
			defer statsMu.Unlock()
			out := stats
			stats = nil
			return out
		}
		putBack := func(batch []fl.RoundStat) {
			statsMu.Lock()
			stats = append(batch, stats...)
			statsMu.Unlock()
		}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-jobCtx.Done():
				return
			case <-t.C:
			}
			batch := drain()
			switch err := w.t.beat(jobCtx, curID, job.ID, batch); {
			case errors.Is(err, errUnknownWorker):
				// The coordinator forgot this worker — a restart, not a lost
				// lease. Re-register and keep computing: the next beat under
				// the fresh id re-attaches to the job if the restarted
				// coordinator recovered it from its WAL (it adopts the lease
				// without a recompute), and draws an honest lease loss if it
				// did not.
				putBack(batch)
				w.reregister(jobCtx, curID)
				w.mu.Lock()
				next := w.id
				w.mu.Unlock()
				if next == "" || next == curID {
					continue // re-registration interrupted; retry next beat
				}
				w.cfg.Logf("dispatch: job %.12s: re-attaching as %s (was %s)", job.ID, next, curID)
				curID = next
			case errors.Is(err, errLeaseLost):
				w.cfg.Logf("dispatch: lease on job %.12s lost; abandoning", job.ID)
				leaseLost = true
				cancel()
				return
			case err != nil:
				// Transient: put the drained rounds back so the next beat
				// relays them instead of losing that progress forever.
				putBack(batch)
			}
		}
	}()

	sp := w.tracer.Start(job.ID, "dispatch.execute")
	hist, err := w.cfg.Runner(jobCtx, job, onRound)
	sp.EndErr(err)
	cancel()
	<-hbDone

	if leaseLost {
		return Job{}, "", false // requeued elsewhere; never upload a zombie result
	}
	if ctx.Err() != nil && err != nil {
		// Shutting down mid-job: deregistration (or lease lapse) requeues
		// it; an aborted partial run must not be uploaded as a failure.
		return Job{}, "", false
	}
	if err != nil {
		hist = nil
	}
	// A run that finished uploads even while the worker shuts down — the
	// work is done, shipping it beats making a survivor redo it.
	upCtx := ctx
	if err == nil {
		var upCancel context.CancelFunc
		upCtx, upCancel = context.WithTimeout(context.Background(), 10*time.Second)
		defer upCancel()
	}
	// A worker on its way out must not be handed more work.
	ack, uerr := w.t.upload(upCtx, curID, job.ID, hist, err, ctx.Err() == nil)
	switch {
	case errors.Is(uerr, errRejected):
		w.wm.uploads.With("rejected").Inc()
		w.cfg.Logf("dispatch: result for job %.12s rejected: %v", job.ID, uerr)
		return Job{}, "", false
	case uerr != nil:
		w.cfg.Logf("dispatch: giving up uploading job %.12s (%v); lease will expire and requeue", job.ID, uerr)
		return Job{}, "", false
	}
	status := ack.Status
	if status == "" {
		status = "stored"
	}
	w.wm.uploads.With(status).Inc()
	if ack.Next == nil {
		return Job{}, "", false
	}
	w.wm.leases.Inc() // a lease like any other, it just skipped the poll
	return *ack.Next, curID, true
}
