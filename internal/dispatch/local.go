package dispatch

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fedwcm/internal/fl"
	"fedwcm/internal/obs"
	"fedwcm/internal/store"
)

// LocalConfig wires a Local executor.
type LocalConfig struct {
	Runner  Runner       // required: how one job executes
	Workers int          // concurrent jobs; 0 = 2
	Queue   int          // queued (not yet running) jobs; 0 = 64
	Store   *store.Store // optional: successful histories are persisted here
	// Logf defaults to the unified slog route (obs.Logf("dispatch")).
	Logf func(format string, args ...any)
	// Metrics receives the pool's series; nil uses the process default
	// registry. Tracer records per-job execution spans; nil uses the process
	// default tracer.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
}

// Local executes jobs on an in-process bounded worker pool — the
// single-machine backend: a bounded queue with fail-fast or blocking
// submission, and persistence of successful histories before the handle
// completes. It is the same queue the Coordinator runs (queue.go) with one
// worker of cfg.Workers slots — the pool — and no journal; it has no leases
// to lose, so it never heartbeats, adopts or expires. Close cancels
// in-flight jobs via context; queued jobs fail with ErrClosed.
type Local struct {
	cfg LocalConfig
	lockedQueue
	pool   string // the pool's worker id in the queue
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	closeOnce sync.Once

	lm localMetrics
}

// NewLocal starts the pool and returns the executor.
func NewLocal(cfg LocalConfig) (*Local, error) {
	if cfg.Runner == nil {
		return nil, fmt.Errorf("dispatch: LocalConfig.Runner is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 64
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
	ctx, cancel := context.WithCancel(context.Background())
	l := &Local{cfg: cfg, lockedQueue: newLockedQueue(newQueue(cfg.Queue, 1, 0, false)), ctx: ctx, cancel: cancel}
	l.pool = l.q.register(time.Now(), "local", cfg.Workers)
	l.lm = newLocalMetrics(cfg.Metrics, func() float64 { return float64(l.Pending()) })
	for i := 0; i < cfg.Workers; i++ {
		l.wg.Add(1)
		go l.worker()
	}
	return l, nil
}

// worker is one pool goroutine — one of the pool's slots: grant, run,
// finish, until Close.
func (l *Local) worker() {
	defer l.wg.Done()
	for {
		l.mu.Lock()
		fx, _ := l.q.grant(time.Now(), l.pool)
		l.wakeLocked(fx)
		notify := l.notify
		l.mu.Unlock()
		if j := fx.granted.j; j != nil {
			for _, f := range fx.starts {
				f()
			}
			l.execute(j)
			continue
		}
		select {
		case <-notify:
		case <-l.closed:
			return
		}
	}
}

func (l *Local) execute(j *job) {
	id := j.h.job.ID
	l.lm.running.Inc()
	sp := l.cfg.Tracer.Start(id, "dispatch.execute")
	hist, err := l.cfg.Runner(l.ctx, j.h.job, func(st fl.RoundStat) {
		l.mu.Lock()
		subs := j.onRound // a submission that joined mid-run sees the rounds from here on
		l.mu.Unlock()
		for _, f := range subs {
			f(st)
		}
	})
	sp.EndErr(err)
	l.lm.running.Dec()
	outcome := outcomeStored
	if err != nil {
		outcome = outcomeWorkerError
		l.lm.jobs.With("err").Inc()
	} else {
		l.lm.jobs.With("ok").Inc()
	}
	if err == nil && l.cfg.Store != nil {
		if perr := l.cfg.Store.Put(id, hist); perr != nil {
			// The run itself succeeded; callers still get the history from
			// the handle, only re-serving after restart is lost.
			l.cfg.Logf("dispatch: persisting job %s: %v", id, perr)
		}
		// Persist the job's trace (execution + per-round spans) alongside
		// the history; best-effort, debugging artifact only.
		if spans := l.cfg.Tracer.Collect(id); len(spans) > 0 {
			if terr := l.cfg.Store.PutTrace(id, spans); terr != nil {
				l.cfg.Logf("dispatch: persisting trace for job %s: %v", id, terr)
			}
		}
	}
	// After Close the queue no longer knows the job; its handle still ends
	// with what the runner returned — the executor context's cancellation.
	l.mu.Lock()
	_, fx, _ := l.q.finish(time.Now(), l.pool, id, outcome)
	l.wakeLocked(fx)
	l.mu.Unlock()
	j.h.complete(hist, err)
}

// Submit enqueues the job, or joins the in-flight submission of the same id.
// With opts.Block it waits for queue space (or Close); without, a full queue
// returns ErrQueueFull immediately.
func (l *Local) Submit(job Job, opts SubmitOpts) (Handle, error) {
	h, _, fx, err := l.enqueue(job, opts, nil)
	if err != nil {
		return nil, err
	}
	for _, f := range fx.starts { // joined a job that is already running
		f()
	}
	return h, nil
}

// Pending reports the queued (not yet running) submissions — the same
// depth the fedwcm_dispatch_local_queue_depth gauge exports, exposed for
// admission-control backpressure.
func (l *Local) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.q.fifo)
}

// Close cancels in-flight jobs (the runner observes the executor context
// between rounds and returns early), fails queued jobs with ErrClosed, and
// waits for the pool to exit.
func (l *Local) Close() {
	l.closeOnce.Do(func() {
		queued, _ := l.shutdown()
		l.cancel()
		for _, h := range queued {
			h.complete(nil, ErrClosed)
		}
	})
	l.wg.Wait()
}

var _ Executor = (*Local)(nil)
