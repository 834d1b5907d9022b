// Package dispatch is the pluggable execution layer between the serving /
// sweep orchestration above it and the training runtime below it. A Job is
// one content-addressed unit of work — a canonical RunSpec JSON document
// plus its SHA-256 fingerprint — and an Executor turns jobs into fl.History
// artifacts:
//
//   - Local runs jobs on an in-process bounded worker pool (the backend a
//     single-machine fedserve or fedbench uses; it wraps the same runner +
//     env-cache path the pre-dispatch server had).
//   - Coordinator queues jobs for remote workers, which register over HTTP
//     (POST /v1/workers), pull work via time-limited leases, heartbeat
//     progress, and upload finished histories keyed by the job fingerprint.
//     A lease that expires (worker crash, heartbeat loss) requeues the job
//     onto surviving workers with capped retries. One Coordinator is the
//     whole control plane — with WALPath its queue survives a restart — and
//     a Worker talks to exactly one (DESIGN.md "Why one coordinator" has
//     the measurement behind that).
//   - Worker is the pull-side client of a Coordinator: fedserve -worker
//     -join <url> wraps one around the local runner.
//   - Client submits jobs to a remote fedserve over the public run API —
//     the backend behind fedbench -remote.
//
// Local and Coordinator are adapters around one state machine: the
// unexported queue (queue.go) is the only code that moves a job between
// submitting, pending, leased and done. It is pure — handed the time,
// returning the effects (records to journal, who to wake, callbacks owed,
// what to observe) for the adapter to carry out — and a job changes state
// only by applying a wal.Record, so WAL replay and live traffic run the same
// transitions. Coordinator adds the lock, the log, the reaper's clock and
// the HTTP handlers; Local adds a pool of goroutines playing one worker.
// DESIGN.md "Dispatch layer" has the transition table.
//
// Jobs deliberately carry the spec as opaque canonical JSON rather than a
// decoded struct: the layer above owns spec semantics (validation,
// fingerprinting, env construction), dispatch owns queueing, leases and
// artifact movement, and the JSON form is what crosses the wire anyway.
// Both sides of that contract hash the same canonical bytes, so a job
// computes to the same fingerprint no matter which backend ran it.
package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"time"

	"fedwcm/internal/fl"
)

// Job is one unit of work: the canonical JSON of a sweep.RunSpec and the
// hex SHA-256 fingerprint of exactly those bytes (the content address its
// history is filed under).
type Job struct {
	ID   string          `json:"id"`
	Spec json.RawMessage `json:"spec"`
}

// Runner executes one job's spec, reporting per-round progress, honouring
// ctx cancellation between rounds. Backends are handed one at construction;
// the standard implementation decodes Job.Spec into a sweep.RunSpec and
// runs it against a shared EnvCache (see sweep.DispatchRunner).
type Runner func(ctx context.Context, job Job, onRound func(fl.RoundStat)) (*fl.History, error)

// SubmitOpts control one submission.
type SubmitOpts struct {
	// Block selects between failing fast on a full queue (direct run
	// submissions → HTTP 503) and waiting for space (sweep feeders trickling
	// a grid in).
	Block bool
	// OnRound, when non-nil, receives per-round progress. Local backends
	// invoke it synchronously from the training loop; remote backends relay
	// it from worker heartbeats, so cadence differs but content does not.
	OnRound func(fl.RoundStat)
	// OnStart, when non-nil, is invoked once when the job leaves the queue
	// and begins executing (locally: a pool worker picked it; remotely: a
	// worker leased it).
	OnStart func()
}

// Handle tracks one submitted job to completion.
type Handle interface {
	// Job returns the submitted job.
	Job() Job
	// Done is closed when the job reaches a terminal state.
	Done() <-chan struct{}
	// Result returns the history or error; valid only after Done is closed.
	Result() (*fl.History, error)
}

// Executor is the dispatch abstraction internal/serve and sweep.Engine are
// built on: submit a job, get a handle, read the artifact. Implementations
// persist successful histories to their configured store before completing
// the handle, so the store doubles as the artifact exchange between
// backends.
type Executor interface {
	Submit(job Job, opts SubmitOpts) (Handle, error)
	// Close cancels in-flight jobs (their handles complete with an error)
	// and releases backend resources. Submissions after Close fail with
	// ErrClosed.
	Close()
}

// Sentinel errors shared by all backends.
var (
	// ErrQueueFull is returned by non-blocking Submit when the backend's
	// queue is at capacity.
	ErrQueueFull = errors.New("dispatch: queue full")
	// ErrClosed is returned by Submit after Close, and is the terminal error
	// of handles cancelled by Close.
	ErrClosed = errors.New("dispatch: executor closed")
)

// handle is the one Handle implementation, shared by every backend.
type handle struct {
	job  Job
	done chan struct{}

	mu   sync.Mutex
	hist *fl.History
	err  error
}

func newHandle(job Job) *handle {
	return &handle{job: job, done: make(chan struct{})}
}

func (h *handle) Job() Job              { return h.job }
func (h *handle) Done() <-chan struct{} { return h.done }

func (h *handle) Result() (*fl.History, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hist, h.err
}

// complete resolves the handle exactly once; later calls are no-ops (a
// requeued job can race a tardy first worker's upload against the retry).
func (h *handle) complete(hist *fl.History, err error) bool {
	h.mu.Lock()
	select {
	case <-h.done:
		h.mu.Unlock()
		return false
	default:
	}
	h.hist, h.err = hist, err
	close(h.done)
	h.mu.Unlock()
	return true
}

// lockedQueue is what both queueing backends put around the pure queue
// (queue.go): the mutex its transitions run under, the two broadcast
// channels their effects wake, and the signal blocked callers give up on.
type lockedQueue struct {
	mu     sync.Mutex
	q      *queue
	notify chan struct{} // closed+remade when work or capacity appears
	space  chan struct{} // closed+remade when the FIFO shrinks
	closed chan struct{} // closed by shutdown
}

func newLockedQueue(q *queue) lockedQueue {
	return lockedQueue{q: q, notify: make(chan struct{}), space: make(chan struct{}), closed: make(chan struct{})}
}

// wakeLocked broadcasts to whoever a transition's effects say to wake. The
// caller still holds lq.mu from the transition: a waiter that saw the old
// state also captured the old channel under it.
func (lq *lockedQueue) wakeLocked(fx effects) {
	if fx.wake {
		close(lq.notify)
		lq.notify = make(chan struct{})
	}
	if fx.space {
		close(lq.space)
		lq.space = make(chan struct{})
	}
}

// enqueue is the queueing half of Submit: queue.submit, and for a blocking
// submission the wait for space. A non-nil cached is asked before every
// attempt — the first, and each retry after a wait — whether the job needs
// to run at all; a handle from it ends the submission.
func (lq *lockedQueue) enqueue(job Job, opts SubmitOpts, cached func(Job) (*handle, error)) (*handle, *job, effects, error) {
	for {
		select {
		case <-lq.closed:
			return nil, nil, effects{}, ErrClosed
		default:
		}
		if cached != nil {
			if h, err := cached(job); h != nil || err != nil {
				return h, nil, effects{}, err
			}
		}
		lq.mu.Lock()
		j, fx, err := lq.q.submit(time.Now(), job, opts)
		lq.wakeLocked(fx)
		space := lq.space
		lq.mu.Unlock()
		if err == nil {
			return j.h, j, fx, nil
		}
		if !opts.Block || !errors.Is(err, ErrQueueFull) {
			return nil, nil, fx, err
		}
		select {
		case <-space:
		case <-lq.closed:
			return nil, nil, fx, ErrClosed
		}
	}
}

// shutdown closes the queue — later submissions get ErrClosed, every waiter
// wakes — and returns the handles queue.shutdown sorted.
func (lq *lockedQueue) shutdown() (queued, running []*handle) {
	close(lq.closed)
	lq.mu.Lock()
	defer lq.mu.Unlock()
	lq.wakeLocked(effects{wake: true, space: true})
	return lq.q.shutdown()
}
