package sweep

import (
	"context"
	"fmt"
	"sync"

	"fedwcm/internal/dispatch"
	"fedwcm/internal/fl"
	"fedwcm/internal/store"
)

// Runner executes one cell, reporting per-round progress and honouring ctx
// cancellation between rounds. It is the spec-level seam of the local
// backend: nil runs the spec for real, tests substitute counting or canned
// runners.
type Runner func(ctx context.Context, spec RunSpec, onRound func(fl.RoundStat)) (*fl.History, error)

// Dispatch adapts r to the dispatch layer: the job's canonical spec JSON is
// decoded back into the spec shape r expects.
func (r Runner) Dispatch() dispatch.Runner {
	return func(ctx context.Context, job dispatch.Job, onRound func(fl.RoundStat)) (*fl.History, error) {
		spec, err := jobSpec(job)
		if err != nil {
			return nil, err
		}
		return r(ctx, spec, onRound)
	}
}

// States of a LiveCell, as the run API reports them. A cell served from the
// store never has a LiveCell; its status is CellCached.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = CellFailed
)

// LiveCell is the in-process record of one cell's single execution: its
// state machine and its per-round progress feed. Every caller that needs
// the same fingerprint while it executes — a direct run submission, any
// number of overlapping sweeps — shares the one record.
type LiveCell struct {
	ID string
	// Rounds replays and streams per-round progress; it finishes on the
	// transition to done/failed.
	Rounds *Feed[fl.RoundStat]

	mu      sync.Mutex
	status  string
	hist    *fl.History
	err     error
	waiters []func() // run once, after the transition to done/failed
}

func (l *LiveCell) setRunning() {
	l.mu.Lock()
	l.status = StatusRunning
	l.mu.Unlock()
}

func (l *LiveCell) finish(h *fl.History, err error) {
	l.mu.Lock()
	if err != nil {
		l.status, l.err = StatusFailed, err
	} else {
		l.status, l.hist = StatusDone, h
	}
	waiters := l.waiters
	l.waiters = nil
	l.mu.Unlock()
	l.Rounds.Finish()
	for _, fn := range waiters {
		fn()
	}
}

// onDone runs fn once the cell is terminal — immediately if it already is.
func (l *LiveCell) onDone(fn func()) {
	l.mu.Lock()
	if l.status != StatusDone && l.status != StatusFailed {
		l.waiters = append(l.waiters, fn)
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()
	fn()
}

// Status returns the current state alone — what a poll over many cells
// needs, without copying the progress log.
func (l *LiveCell) Status() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.status
}

// Done is closed when the cell reaches a terminal state.
func (l *LiveCell) Done() <-chan struct{} { return l.Rounds.Done() }

// Result returns the history or the failure; valid only after Done is closed.
func (l *LiveCell) Result() (*fl.History, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hist, l.err
}

// Snapshot returns the fields a status response needs, consistently.
func (l *LiveCell) Snapshot() (status string, progress []fl.RoundStat, hist *fl.History, errMsg string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		errMsg = l.err.Error()
	}
	return l.status, l.Rounds.Events(), l.hist, errMsg
}

// Engine is the one place that knows how a cell is resolved: a store hit, a
// join of the cell's in-flight execution, or exactly one Executor.Submit
// whose completion is persisted and whose record is then dropped. Resolve
// is that decision for one cell, Drive walks a grid through it, RunSweep
// expands and aggregates around Drive; internal/serve's run and sweep
// endpoints and cmd/fedbench are all callers, so a fingerprint is computed
// at most once per engine no matter who asks.
//
// The backend's bounded queue is the only back-pressure. Without an
// Executor the engine runs cells on its own dispatch.Local (Workers,
// Runner, Envs), built on the first miss and released by Close.
type Engine struct {
	Store   *store.Store // optional: nil runs without result caching
	Workers int          // own local backend: concurrent cells; 0 = 3
	Runner  Runner       // own local backend: nil = run specs for real
	// Envs backs environment construction for the own local backend's
	// default runner: cells sharing a dataset+partition sub-spec build it
	// once (see EnvCache). Ignored when Runner is overridden.
	Envs *EnvCache
	// Executor, when set, is the dispatch backend cells execute on (remote
	// coordinator, HTTP client, or a shared local pool); it stays the
	// caller's to close. A backend persists successful histories to its own
	// store; the engine persists what comes back only when its Store cannot
	// already serve it, so fedbench -remote still fills a local cache and a
	// shared store is written once.
	Executor dispatch.Executor

	mu       sync.Mutex
	inflight map[string]*LiveCell // live + failed cells by fingerprint
	local    *dispatch.Local
	closing  bool
	watchers sync.WaitGroup
}

// executorLocked returns the backend misses are submitted to. Caller holds
// e.mu.
func (e *Engine) executorLocked() (dispatch.Executor, error) {
	if e.Executor != nil {
		return e.Executor, nil
	}
	if e.local == nil {
		runner := DispatchRunner(e.Envs)
		if e.Runner != nil {
			runner = e.Runner.Dispatch()
		}
		workers := e.Workers
		if workers <= 0 {
			workers = 3
		}
		local, err := dispatch.NewLocal(dispatch.LocalConfig{Runner: runner, Workers: workers, Store: e.Store})
		if err != nil {
			return nil, err
		}
		e.local = local
	}
	return e.local, nil
}

// Resolve resolves one cell to either its finished history (a store hit) or
// the live record of its one execution — submitting a fresh job when the
// cell is neither stored nor in flight. block selects between failing fast
// on a full backend queue (dispatch.ErrQueueFull) and waiting for space; a
// closed engine or backend yields dispatch.ErrClosed.
func (e *Engine) Resolve(c Cell, block bool) (*fl.History, *LiveCell, error) {
	// Fast path, outside the lock: the cell has been computed before.
	if hist, ok, err := e.stored(c.ID); err != nil || ok {
		return hist, nil, err
	}
	return e.resolveMiss(c, block)
}

// resolveMiss is Resolve past the unlocked store probe: join or start the
// cell's one execution.
func (e *Engine) resolveMiss(c Cell, block bool) (*fl.History, *LiveCell, error) {
	e.mu.Lock()
	if e.closing {
		e.mu.Unlock()
		return nil, nil, dispatch.ErrClosed
	}
	// Single-flight: identical in-flight cells share one record. A done
	// record only lingers here when persisting it failed (or in the instant
	// before watch drops it), so it is served as a hit.
	if l, ok := e.inflight[c.ID]; ok {
		switch l.Status() {
		case StatusDone:
			e.mu.Unlock()
			hist, _ := l.Result()
			return hist, nil, nil
		case StatusFailed:
			// A failed attempt does not pin the cell failed forever; fall
			// through and replace the record with a fresh attempt.
		default:
			e.mu.Unlock()
			return nil, l, nil
		}
	}
	// Re-check the store under the lock: an execution can persist its
	// artifact and drop its record between the unlocked probe above and
	// here, and re-executing a computed cell would break
	// compute-at-most-once. On a true miss this is a cheap ENOENT probe.
	if hist, ok, err := e.stored(c.ID); err != nil || ok {
		e.mu.Unlock()
		return hist, nil, err
	}
	exec, err := e.executorLocked()
	if err != nil {
		e.mu.Unlock()
		return nil, nil, err
	}
	// The record must be visible (for coalescing) before the submit, and
	// the submit cannot hold the lock (a blocking submit waits for queue
	// space). A recorded-but-not-yet-submitted cell is indistinguishable
	// from a queued one to observers; a refused submit finishes the record
	// (any coalescer that joined meanwhile observes the failure) and drops
	// it so a later attempt starts fresh. The watcher slot is taken under
	// the same critical section as the closing check, so Close can never
	// start waiting between the check and the Add.
	l := &LiveCell{ID: c.ID, Rounds: NewFeed[fl.RoundStat](), status: StatusQueued}
	if e.inflight == nil {
		e.inflight = make(map[string]*LiveCell)
	}
	e.inflight[c.ID] = l
	e.watchers.Add(1)
	e.mu.Unlock()
	specJSON, err := c.Spec.CanonicalJSON()
	var h dispatch.Handle
	if err == nil {
		h, err = exec.Submit(dispatch.Job{ID: c.ID, Spec: specJSON}, dispatch.SubmitOpts{
			Block:   block,
			OnRound: l.Rounds.Publish,
			OnStart: l.setRunning,
		})
	}
	if err != nil {
		e.watchers.Done()
		l.finish(nil, err)
		e.drop(l)
		return nil, nil, err
	}
	go e.watch(l, h)
	return nil, l, nil
}

// stored probes the engine's store (a miss when there is none).
func (e *Engine) stored(fp string) (*fl.History, bool, error) {
	if e.Store == nil {
		return nil, false, nil
	}
	hist, ok, err := e.Store.Get(fp)
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	return hist, ok, nil
}

// watch drives one live cell from its dispatch handle to its terminal
// state. The artifact is persisted — unless the backend already put it
// where the engine's store serves it — before the record finishes, so
// whoever sees "done" can read the store; the record is then dropped, which
// keeps e.inflight bounded by live + failed work. A cell whose persist
// failed keeps its record: callers still get the history from memory, only
// re-serving after restart is lost.
func (e *Engine) watch(l *LiveCell, h dispatch.Handle) {
	defer e.watchers.Done()
	<-h.Done()
	hist, err := h.Result()
	keep := err != nil
	if err == nil && e.Store != nil {
		if _, ok, _ := e.Store.Get(l.ID); !ok {
			keep = e.Store.Put(l.ID, hist) != nil
		}
	}
	l.finish(hist, err)
	if !keep {
		e.drop(l)
	}
}

// drop removes l's record unless a fresh attempt already superseded it.
func (e *Engine) drop(l *LiveCell) {
	e.mu.Lock()
	if e.inflight[l.ID] == l {
		delete(e.inflight, l.ID)
	}
	e.mu.Unlock()
}

// Lookup returns the in-process record for a fingerprint: an executing
// cell, a failed one, or nil when the store is the only place to look.
func (e *Engine) Lookup(fp string) *LiveCell {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.inflight[fp]
}

// Inflight counts the records held in memory (executing or failed cells).
func (e *Engine) Inflight() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.inflight)
}

// Close refuses further misses, releases the engine's own local backend
// (cancelling what it was running) and waits until every live cell is
// terminal and reported. With a caller-supplied Executor, close that first.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closing = true
	local := e.local
	e.mu.Unlock()
	if local != nil {
		local.Close()
	}
	e.watchers.Wait()
}

// submitWindow bounds how many of a grid's misses Drive has inside
// Executor.Submit at once. One submitter at a time leaves a journaled
// backend's group commit with a single waiter, so every cell pays a whole
// fsync; 32 is where the WAL's append cost stops falling (the benchmark's
// wal.append_ms_c32 vs _c1). A constant, not an option: the backend's
// bounded queue remains the only back-pressure anyone tunes.
const submitWindow = 32

// Drive is the one sweep driver: it walks cells in order and calls report
// exactly once per cell as it turns terminal (CellCached / CellComputed /
// CellFailed), returning when all have. Store hits are reported inline, on
// the caller's goroutine, in grid order — a fully cached grid starts no
// goroutine. Misses are handed, in order, to at most submitWindow feeder
// goroutines (started only while every earlier one is busy), each resolving
// with a blocking submit — so a grid larger than the backend's queue still
// trickles in as space frees up, and a backend that batches concurrent
// submits (the WAL's group commit) sees more than one. This is a window, not
// a batch API: Executor stays Submit+Close, and every backend — Local,
// Coordinator, the HTTP client — gets it unchanged.
//
// onLive (may be nil) sees each cell that is executing rather than stored,
// before its report. onLive and report are both invoked concurrently.
func (e *Engine) Drive(cells []Cell, onLive func(i int, l *LiveCell), report func(i int, status string, hist *fl.History, err error)) {
	var pending, feeders sync.WaitGroup
	resolved := func(i int, hist *fl.History, l *LiveCell, err error) {
		switch {
		case err != nil:
			report(i, CellFailed, nil, err)
		case l == nil:
			report(i, CellCached, hist, nil)
		default:
			if onLive != nil {
				onLive(i, l)
			}
			pending.Add(1)
			l.onDone(func() {
				defer pending.Done()
				if hist, err := l.Result(); err != nil {
					report(i, CellFailed, nil, err)
				} else {
					report(i, CellComputed, hist, nil)
				}
			})
		}
	}
	misses := make(chan int)
	started := 0
	for i := range cells {
		if hist, ok, err := e.stored(cells[i].ID); err != nil || ok {
			resolved(i, hist, nil, err)
			continue
		}
		select {
		case misses <- i: // an idle feeder took it
			continue
		default:
		}
		if started < submitWindow {
			started++
			feeders.Add(1)
			go func() {
				defer feeders.Done()
				for i := range misses {
					hist, l, err := e.resolveMiss(cells[i], true)
					resolved(i, hist, l, err)
				}
			}()
		}
		misses <- i
	}
	close(misses)
	feeders.Wait()
	pending.Wait()
}

// CellUpdate is one progress notification from RunSweep: the cell has
// reached a terminal status (CellCached / CellComputed / CellFailed).
type CellUpdate struct {
	Index  int // position in the expanded cell order
	Total  int
	Cell   Cell
	Status string
	Err    error
}

// RunSweep expands the grid and drives every cell, invoking onCell (may be
// nil) as each reaches a terminal state. It always returns the Result —
// aggregated over whatever succeeded — and a non-nil error if any cell
// failed.
func (e *Engine) RunSweep(sp Spec, onCell func(CellUpdate)) (*Result, error) {
	cells, err := sp.Expand()
	if err != nil {
		return nil, err
	}
	results := make([]CellResult, len(cells))
	e.Drive(cells, nil, func(i int, status string, hist *fl.History, err error) {
		results[i] = CellResult{Cell: cells[i], Status: status, Hist: hist}
		if err != nil {
			results[i].Err = err.Error()
		}
		if onCell != nil {
			onCell(CellUpdate{Index: i, Total: len(cells), Cell: cells[i], Status: status, Err: err})
		}
	})
	res := NewResult(sp, results)
	if res.Failed > 0 {
		for _, c := range results {
			if c.Status == CellFailed {
				return res, fmt.Errorf("sweep: %d/%d cells failed; first: cell %s: %s",
					res.Failed, len(cells), describeAxes(c.Axes), c.Err)
			}
		}
	}
	return res, nil
}
