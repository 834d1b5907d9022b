package serve

import (
	"sync"

	"fedwcm/internal/experiments"
	"fedwcm/internal/fl"
)

// Run lifecycle states as reported over the API. "cached" never appears on
// a live run record: it is the status of a response served straight from
// the store (submission hit, or a GET for an artifact with no in-process
// record).
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
	StatusCached  = "cached"
)

// run is the in-process record of one submitted spec: its state machine and
// its per-round progress feed. The run id is the spec fingerprint, which is
// what makes submission idempotent: a second POST of the same spec lands on
// the same record (single-flight) or on the stored artifact, never on a
// second execution.
type run struct {
	id   string
	spec experiments.RunSpec

	// progress finishes on the transition to done/failed.
	progress *broadcaster[fl.RoundStat]

	mu     sync.Mutex
	status string
	hist   *fl.History
	errMsg string
}

func newRun(id string, spec experiments.RunSpec) *run {
	return &run{id: id, spec: spec, status: StatusQueued, progress: newBroadcaster[fl.RoundStat]()}
}

func (r *run) setRunning() {
	r.mu.Lock()
	r.status = StatusRunning
	r.mu.Unlock()
}

func (r *run) finish(h *fl.History, err error) {
	r.mu.Lock()
	if err != nil {
		r.status = StatusFailed
		r.errMsg = err.Error()
	} else {
		r.status = StatusDone
		r.hist = h
	}
	r.mu.Unlock()
	r.progress.finish()
}

// snapshot returns the fields a status response needs, consistently.
func (r *run) snapshot() (status string, progress []fl.RoundStat, hist *fl.History, errMsg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status, r.progress.events(), r.hist, r.errMsg
}
