package dispatch

import (
	"context"
	"fmt"
	"sync"

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
	// Metrics receives the coordinator's series; nil uses the process default
	// registry. Tracer records per-job spans; nil uses the process default
	// tracer.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
}

// Local is the single-machine backend: a Coordinator with no WAL and leases
// that never expire, plus one Worker of cfg.Workers slots over
// directTransport. It serves no worker routes.
type Local struct {
	c      *Coordinator
	cancel context.CancelFunc // the worker's context
	exited chan struct{}      // closed when the worker's Run returns

	closeOnce sync.Once
}

// NewLocal starts the in-process worker and returns the executor.
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
	c, err := newCoordinator(CoordinatorConfig{Store: cfg.Store, Queue: cfg.Queue, Logf: cfg.Logf, Metrics: cfg.Metrics, Tracer: cfg.Tracer})
	if err != nil {
		return nil, err
	}
	w := newWorker(WorkerConfig{Runner: cfg.Runner, Name: "local", Slots: cfg.Workers, Logf: c.cfg.Logf}, workerMetrics{}, c.cfg.Tracer)
	w.t = directTransport{c}
	ctx, cancel := context.WithCancel(context.Background())
	l := &Local{c: c, cancel: cancel, exited: make(chan struct{})}
	go func() {
		defer close(l.exited)
		w.Run(ctx)
	}()
	return l, nil
}

// Submit is Coordinator.Submit.
func (l *Local) Submit(job Job, opts SubmitOpts) (Handle, error) { return l.c.Submit(job, opts) }

// Pending reports the queued (not yet running) submissions, for the
// service's queue-full message.
func (l *Local) Pending() int { return l.c.Stats().Pending }

// Lookup is Coordinator.Lookup.
func (l *Local) Lookup(id string) Handle { return l.c.Lookup(id) }

// Records is Coordinator.Records.
func (l *Local) Records() int { return l.c.Records() }

// Close cancels in-flight jobs (the runner observes the context between
// rounds and returns early), fails queued jobs with ErrClosed, and waits for
// the worker to exit. A shutting-down worker uploads no aborted run and
// hands its leases back, so Close itself ends the jobs that were running
// with the cancellation their runners saw.
func (l *Local) Close() {
	l.closeOnce.Do(func() {
		var running []*handle
		l.c.mu.Lock()
		for j := l.c.q.first; j != nil; j = j.next {
			if j.state == jobLeased {
				running = append(running, j.h)
			}
		}
		l.c.mu.Unlock()
		l.cancel()
		<-l.exited
		for _, h := range running {
			h.complete(nil, context.Canceled) // a no-op for a run that finished and uploaded
		}
		l.c.Close()
	})
}

var _ Executor = (*Local)(nil)
