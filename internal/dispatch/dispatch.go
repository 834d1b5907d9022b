// Package dispatch is the pluggable execution layer between the serving /
// sweep orchestration above it and the training runtime below it. A Job is
// one content-addressed unit of work — a canonical RunSpec JSON document
// plus its SHA-256 fingerprint — and an Executor turns jobs into fl.History
// artifacts:
//
//   - Coordinator queues jobs for workers, which pull work via leases,
//     heartbeat progress, and upload finished histories keyed by the job
//     fingerprint. A lease that expires (worker crash, heartbeat loss)
//     requeues the job onto surviving workers with capped retries. One
//     Coordinator is the whole control plane — with WALPath its queue
//     survives a restart — and a Worker talks to exactly one (DESIGN.md
//     "Why one coordinator" has the measurement behind that).
//   - Worker is the pull side; fedserve -worker -join <url> runs one over
//     HTTP (POST /v1/workers, ...). The protocol is JSON throughout: its
//     heartbeat and result bodies are internal/wire's, and one that does
//     not decode is a 400.
//   - Local, the backend of a plain fedserve or fedbench, is a Coordinator
//     with no WAL and leases that never expire plus an in-process Worker
//     that calls it directly.
//
// fedbench -remote is no backend: it submits a whole grid to a fedserve's
// public sweep API, and that server's own Local or Coordinator runs it.
//
// So every cell in every topology runs one lease, relay, persist and finish
// path; only the Worker's transport differs. A job's Handle is the one
// record of its execution — status, replaying round Feed, result — and the
// Coordinator's table of them is the only single-flight table: an identical
// submission joins the live job, or the handle retained after it failed or
// its history could not be stored (Lookup finds both). Under the
// Coordinator is one state machine: the unexported queue (queue.go) is the
// only code that moves a job between submitting, pending, leased and done.
// It is pure — handed the time, returning the effects (a submit record to
// journal, who to wake, handles to fail, what to observe) for the
// Coordinator to carry out. With WALPath the log holds one wal.Record per
// accepted job, its submit, and the store is the record of completion:
// replay re-enters every submitted job the store does not hold. DESIGN.md
// "Dispatch layer" has the transition table.
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
}

// A job's status, as Handle.Status reports it. It only moves forward:
// queued until the job's first lease, running from then on (a requeue does
// not move it back), done or failed once terminal.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// Handle is the one record of a job's execution. Every submission of the
// same id while the job is live, or retained after it (see
// Coordinator.Lookup), gets the same Handle.
type Handle interface {
	// Job returns the submitted job.
	Job() Job
	// Status returns the job's current status (StatusQueued, ...).
	Status() string
	// Rounds is the job's per-round progress, relayed losslessly from worker
	// heartbeats (and the result), so a round reads the same whichever
	// topology ran the job. It replays to a late subscriber and finishes when
	// the job is terminal; only the backend publishes to it.
	Rounds() *Feed[fl.RoundStat]
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

// handle is the one Handle implementation, shared by every backend. It
// owns nothing beside its feed: the feed's done channel is the handle's
// (complete finishes the feed), and the feed's mutex guards the fields
// below too.
type handle struct {
	job    Job
	rounds Feed[fl.RoundStat]
	status string
	hist   *fl.History
	err    error
}

func newHandle(job Job) *handle {
	return &handle{job: job, rounds: Feed[fl.RoundStat]{done: make(chan struct{})}, status: StatusQueued}
}

func (h *handle) Job() Job                    { return h.job }
func (h *handle) Rounds() *Feed[fl.RoundStat] { return &h.rounds }
func (h *handle) Done() <-chan struct{}       { return h.rounds.done }

func (h *handle) Status() string {
	h.rounds.mu.Lock()
	defer h.rounds.mu.Unlock()
	return h.status
}

func (h *handle) Result() (*fl.History, error) {
	h.rounds.mu.Lock()
	defer h.rounds.mu.Unlock()
	return h.hist, h.err
}

// start marks the job running at a lease; a later lease (after a requeue)
// leaves it so.
func (h *handle) start() {
	h.rounds.mu.Lock()
	if h.status == StatusQueued {
		h.status = StatusRunning
	}
	h.rounds.mu.Unlock()
}

// complete resolves the handle exactly once; later calls are no-ops (a
// requeued job can race a tardy first worker's upload against the retry).
func (h *handle) complete(hist *fl.History, err error) bool {
	h.rounds.mu.Lock()
	defer h.rounds.mu.Unlock()
	if h.status == StatusDone || h.status == StatusFailed {
		return false
	}
	h.hist, h.err, h.status = hist, err, StatusDone
	if err != nil {
		h.status = StatusFailed
	}
	close(h.rounds.done)
	return true
}
