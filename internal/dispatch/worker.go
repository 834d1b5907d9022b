package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"time"

	"fedwcm/internal/fl"
	"fedwcm/internal/obs"
	"fedwcm/internal/wire"
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

// Worker is the pull side of the remote backend: it registers with a
// coordinator, leases jobs, heartbeats progress while training, and
// uploads finished histories. fedserve -worker -join <url> runs one.
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
	cfg  WorkerConfig
	base string // cfg.Coordinator without trailing slashes

	mu  sync.Mutex
	id  string        // live registration; "" until the first one lands
	ttl time.Duration // the coordinator's lease TTL, reported at registration

	regMu sync.Mutex // single-flights re-registration across slot loops

	wm workerMetrics
}

// NewWorker validates cfg and returns the worker; Run starts it.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("dispatch: WorkerConfig.Coordinator is required")
	}
	if cfg.Runner == nil {
		return nil, fmt.Errorf("dispatch: WorkerConfig.Runner is required")
	}
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 10 * time.Second
	}
	if cfg.HTTPClient == nil {
		// Lease long-polls hold the connection open for PollWait; leave
		// headroom over it instead of inheriting a tight global timeout.
		cfg.HTTPClient = &http.Client{Timeout: cfg.PollWait + 30*time.Second}
	}
	if cfg.Logf == nil {
		cfg.Logf = obs.Logf("worker")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default()
	}
	// "host:8080/" + "/v1/workers" is "//v1/workers": ServeMux answers 301 to
	// the cleaned path and http.Client replays a redirected POST as GET.
	return &Worker{cfg: cfg, base: strings.TrimRight(cfg.Coordinator, "/"), wm: newWorkerMetrics(cfg.Metrics)}, nil
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
		var resp registerResponse
		code, err := w.postJSON(ctx, w.base+"/v1/workers", "",
			registerRequest{Name: w.cfg.Name, Slots: w.cfg.Slots}, &resp)
		if err == nil && code == http.StatusCreated {
			ttl := time.Duration(resp.LeaseTTL) * time.Millisecond
			w.mu.Lock()
			w.id, w.ttl = resp.ID, ttl
			w.mu.Unlock()
			w.cfg.Logf("dispatch: registered with %s as %s (lease TTL %v)", w.base, resp.ID, ttl)
			return nil
		}
		if err == nil {
			err = fmt.Errorf("registration returned HTTP %d", code)
		}
		w.cfg.Logf("dispatch: registering with %s: %v (retrying in %v)", w.base, err, backoff)
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

// deregisterTimeout bounds the clean-handover DELETE: deregistration runs
// on the SIGTERM path, and a wedged coordinator must not hang shutdown —
// past the deadline the worker leaves anyway and its leases lapse, which
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
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, w.base+"/v1/workers/"+id, nil)
	if err != nil {
		return
	}
	resp, err := w.cfg.HTTPClient.Do(req)
	if err != nil {
		w.cfg.Logf("dispatch: deregistering %s: %v (lease will lapse instead)", id, err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	w.cfg.Logf("dispatch: worker %s deregistered", id)
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

// lease asks the coordinator for one job, long-polling server-side, and
// returns the worker id the lease was granted under — the id the job must
// heartbeat and upload as, even if another slot re-registers meanwhile.
// false means "nothing leased": empty queue, transient error, or a 404 that
// forced a re-registration. backoff carries the escalating transient-error
// delay across calls (reset by the caller on success); every sleep here is
// jittered ±20% so a fleet re-polling an empty queue spreads out.
func (w *Worker) lease(ctx context.Context, backoff *time.Duration) (Job, string, bool) {
	w.mu.Lock()
	id := w.id
	w.mu.Unlock()
	var resp leaseResponse
	t0 := time.Now()
	code, err := w.postJSON(ctx, w.base+"/v1/workers/"+id+"/lease", "",
		leaseRequest{WaitMS: w.cfg.PollWait.Milliseconds()}, &resp)
	switch {
	case ctx.Err() != nil:
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
	case code == http.StatusOK:
		w.wm.leases.Inc()
		return resp.Job, id, true
	case code == http.StatusNotFound:
		w.reregister(ctx, id)
		return Job{}, id, false
	case code == http.StatusNoContent:
		// An empty poll normally holds server-side for ~PollWait. One that
		// returns much sooner means the coordinator is not pacing us (it is
		// draining for shutdown, or granted the wait to another slot) — sleep
		// the remainder here or this loop spins at connection speed.
		if elapsed := time.Since(t0); elapsed < w.cfg.PollWait/2 {
			select {
			case <-ctx.Done():
			case <-time.After(jitter(w.cfg.PollWait - elapsed)):
			}
		}
		return Job{}, id, false
	default:
		w.cfg.Logf("dispatch: lease returned HTTP %d", code)
		return Job{}, id, false
	}
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
	w.cfg.Logf("dispatch: coordinator %s forgot worker %s; re-registering", w.base, stale)
	w.register(ctx)
}

// execute runs one leased job under the worker id it was leased to:
// heartbeats flow while training, the result (or execution error) is
// uploaded at the end. A lost lease cancels the job's context and abandons
// the upload.
//
// The upload asks for the freed slot's next job (?lease=1) unless the worker
// is shutting down; when the ack carries one, execute returns it with the
// worker id it was granted under — the id the upload was posted as, which is
// not the slot's original id if a coordinator restart forced a
// re-registration mid-job.
func (w *Worker) execute(ctx context.Context, job Job, id string) (next Job, nextID string, ok bool) {
	w.mu.Lock()
	ttl := w.ttl
	w.mu.Unlock()
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
		statsMu   sync.Mutex
		stats     []fl.RoundStat
		leaseLost bool
	)
	onRound := func(st fl.RoundStat) {
		statsMu.Lock()
		stats = append(stats, st)
		statsMu.Unlock()
	}
	drain := func() []fl.RoundStat {
		statsMu.Lock()
		out := stats
		stats = nil
		statsMu.Unlock()
		return out
	}
	// curID is the worker id the job currently heartbeats and uploads as. It
	// starts as the id the lease was granted under and advances when a
	// coordinator restart forces a re-registration mid-job; only the
	// heartbeat goroutine writes it, and the upload path reads it strictly
	// after <-hbDone.
	curID := id
	hbURL := fmt.Sprintf("%s/v1/workers/%s/jobs/%s/heartbeat", w.base, curID, job.ID)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-jobCtx.Done():
				return
			case <-t.C:
				batch := drain()
				// Heartbeats ride the binary codec with float16 per-class
				// accuracy: the relay feeds dashboards and progress polls only,
				// never the store, so monitoring precision is enough.
				start := time.Now()
				body := wire.EncodeStats(batch, wire.StatsOptions{QuantizePerClass: true})
				w.wm.wire.observeEncode("stats", len(body), time.Since(start).Seconds())
				code, err := w.postWire(jobCtx, hbURL, job.ID, body, nil)
				if err == nil && code == http.StatusOK {
					w.wm.heartbeats.Inc()
				}
				if err != nil {
					// Transient: put the drained rounds back so the next beat
					// relays them instead of losing that progress forever.
					statsMu.Lock()
					stats = append(batch, stats...)
					statsMu.Unlock()
					continue
				}
				if code == http.StatusNotFound {
					// The coordinator forgot this worker — a restart, not a
					// lost lease. Re-register and keep computing: the next
					// beat under the fresh id re-attaches to the job if the
					// restarted coordinator recovered it from its WAL (it
					// adopts the lease without a recompute), and draws an
					// honest 410 if it did not.
					statsMu.Lock()
					stats = append(batch, stats...)
					statsMu.Unlock()
					w.reregister(jobCtx, curID)
					w.mu.Lock()
					next := w.id
					w.mu.Unlock()
					if next == "" || next == curID {
						continue // re-registration interrupted; retry next beat
					}
					w.cfg.Logf("dispatch: job %.12s: re-attaching as %s (was %s)", job.ID, next, curID)
					curID = next
					hbURL = fmt.Sprintf("%s/v1/workers/%s/jobs/%s/heartbeat", w.base, curID, job.ID)
					continue
				}
				if code == http.StatusGone {
					w.wm.leaseLost.Inc()
					w.cfg.Logf("dispatch: lease on job %.12s lost (HTTP %d); abandoning", job.ID, code)
					statsMu.Lock()
					leaseLost = true
					statsMu.Unlock()
					cancel()
					return
				}
			}
		}
	}()

	hist, err := w.cfg.Runner(jobCtx, job, onRound)
	cancel()
	<-hbDone

	statsMu.Lock()
	lost := leaseLost
	statsMu.Unlock()
	if lost {
		return Job{}, "", false // requeued elsewhere; never upload a zombie result
	}
	if ctx.Err() != nil && err != nil {
		// Shutting down mid-job: deregistration (or lease lapse) requeues
		// it; an aborted partial run must not be uploaded as a failure.
		return Job{}, "", false
	}
	// The result upload uses the codec's lossless profile: the decoded
	// history is bit-identical, so the artifact the coordinator stores (and
	// its content address) matches a local-backend run exactly.
	errMsg := ""
	if err != nil {
		hist = nil
		errMsg = err.Error()
	}
	encStart := time.Now()
	resBody := wire.EncodeResult(hist, errMsg)
	w.wm.wire.observeEncode("result", len(resBody), time.Since(encStart).Seconds())
	// A run that finished uploads even while the worker shuts down — the
	// work is done, shipping it beats making a survivor redo it.
	upCtx := ctx
	if err == nil {
		var upCancel context.CancelFunc
		upCtx, upCancel = context.WithTimeout(context.Background(), 10*time.Second)
		defer upCancel()
	}
	resURL := fmt.Sprintf("%s/v1/workers/%s/jobs/%s/result", w.base, curID, job.ID)
	if ctx.Err() == nil {
		resURL += "?lease=1" // a worker on its way out must not be handed more work
	}
	for attempt := 0; attempt < 3; attempt++ {
		var ack resultResponse
		code, uerr := w.postWire(upCtx, resURL, job.ID, resBody, &ack)
		if uerr == nil && code < 500 {
			if code >= 400 {
				w.wm.uploads.With("rejected").Inc()
				w.cfg.Logf("dispatch: result for job %.12s rejected: HTTP %d", job.ID, code)
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
		select {
		case <-upCtx.Done():
			return Job{}, "", false
		case <-time.After(200 * time.Millisecond << attempt):
		}
	}
	w.cfg.Logf("dispatch: giving up uploading job %.12s; lease will expire and requeue", job.ID)
	return Job{}, "", false
}

// postJSON posts body as JSON and decodes the response into out (when
// non-nil and the status is 2xx). It returns the status code; err covers
// transport-level failures only. trace, when non-empty, is echoed in the
// X-Trace-Id header so job-scoped calls (heartbeat, result) join the
// fleet-wide trace the coordinator stamped on the lease.
func (w *Worker) postJSON(ctx context.Context, url, trace string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	return w.post(ctx, url, trace, "application/json", b, out)
}

// postWire posts a pre-encoded wire-codec payload (responses stay JSON —
// acks are a handful of bytes).
func (w *Worker) postWire(ctx context.Context, url, trace string, body []byte, out any) (int, error) {
	return w.post(ctx, url, trace, wire.ContentType, body, out)
}

func (w *Worker) post(ctx context.Context, url, trace, contentType string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", contentType)
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	resp, err := w.cfg.HTTPClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	// 204 (empty lease poll) carries no body by definition; don't feed the
	// decoder an EOF.
	if out != nil && resp.StatusCode >= 200 && resp.StatusCode < 300 && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s response: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}
