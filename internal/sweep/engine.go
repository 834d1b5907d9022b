package sweep

import (
	"fmt"
	"sync"

	"fedwcm/internal/dispatch"
	"fedwcm/internal/fl"
	"fedwcm/internal/store"
)

// Engine is the one place that knows how a cell is resolved: a store hit,
// or one Executor.Submit, which joins the cell's execution when the backend
// already holds a record of it and enters exactly one job otherwise. Resolve
// is that decision for one cell, Drive walks a grid through it, RunSweep
// expands and aggregates around Drive; internal/serve's run and sweep
// endpoints and cmd/fedbench are all callers, so a fingerprint is computed
// at most once per backend no matter who asks. The engine keeps no record
// of its own: the backend's job handle is the cell's record.
//
// The caller builds the backend over the engine's store (a dispatch.Local
// over DispatchRunner in-process, a Coordinator for remote workers) and
// closes it; the backend's write of a successful history is the one persist.
// The backend's bounded queue is the only back-pressure.
type Engine struct {
	Store    *store.Store      // optional: nil runs without result caching
	Executor dispatch.Executor // required: the backend misses are submitted to
}

// Resolve resolves one cell to either its finished history (a store hit) or
// the handle of its one execution, which the submit joins when the backend
// already holds it. block selects between failing fast on a full backend
// queue (dispatch.ErrQueueFull) and waiting for space; a closed engine or
// backend yields dispatch.ErrClosed.
func (e *Engine) Resolve(c Cell, block bool) (*fl.History, dispatch.Handle, error) {
	if hist, ok, err := e.stored(c.ID); err != nil || ok {
		return hist, nil, err
	}
	h, err := e.submit(c, block)
	return nil, h, err
}

// submit hands a cell the store did not have to the backend.
func (e *Engine) submit(c Cell, block bool) (dispatch.Handle, error) {
	specJSON, err := c.Spec.CanonicalJSON()
	if err != nil {
		return nil, err
	}
	return e.Executor.Submit(dispatch.Job{ID: c.ID, Spec: specJSON}, dispatch.SubmitOpts{Block: block})
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

// Lookup returns the backend's record of a fingerprint's execution — a live
// job, a failed one, or one whose history could not be stored — or nil when
// the store is the only place to look. The backend's Lookup is found by
// method set, as serve finds Stats and Pending; a backend without one (a
// wrapper that forwards only Submit and Close) holds nothing to look up.
func (e *Engine) Lookup(fp string) dispatch.Handle {
	if l, ok := e.Executor.(interface{ Lookup(string) dispatch.Handle }); ok {
		return l.Lookup(fp)
	}
	return nil
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
// goroutine. Misses are handed to at most submitWindow feeder goroutines
// (started only while every earlier one is busy), each resolving with a
// blocking submit — so a grid larger than the backend's queue still trickles
// in as space frees up, and a backend that batches concurrent submits (the
// WAL's group commit) sees more than one. This is a window, not a batch API:
// Executor stays Submit+Close, and both backends — Local and Coordinator —
// get it unchanged.
//
// Misses reach the feeders grouped by environment (envKey): a miss is held
// until the grid's last cell of its environment has been probed, and then
// that environment's misses go out together, in grid order. So cells that
// share a dataset+partition run back to back and an EnvCache builds each
// environment once per grid, even when the grid's order (Expand is
// method-major) cycles through more environments than the cache holds. A
// miss whose environment has no later cell goes out at once, so a grid of
// distinct environments feeds exactly as an ungrouped walk would.
//
// onLive (may be nil) sees the handle of each cell that is executing rather
// than stored, before its report. onLive and report are both invoked
// concurrently. A computed history is the backend's to persist, so Drive
// touches the store once per cell: the probe, which answers cached cells
// without a submit. The backend's admission reads a miss again, the
// exactly-once guard for a cell filed in between (Coordinator.cached).
func (e *Engine) Drive(cells []Cell, onLive func(i int, h dispatch.Handle), report func(i int, status string, hist *fl.History, err error)) {
	var pending, feeders sync.WaitGroup
	live := func(i int, h dispatch.Handle) {
		if onLive != nil {
			onLive(i, h)
		}
		pending.Add(1)
		go func() {
			defer pending.Done()
			<-h.Done()
			hist, err := h.Result()
			if err != nil {
				report(i, CellFailed, nil, err)
				return
			}
			report(i, CellComputed, hist, nil)
		}()
	}
	misses := make(chan int)
	started := 0
	feed := func(i int) {
		select {
		case misses <- i: // an idle feeder took it
			return
		default:
		}
		if started < submitWindow {
			started++
			feeders.Add(1)
			go func() {
				defer feeders.Done()
				for i := range misses {
					if h, err := e.submit(cells[i], true); err != nil {
						report(i, CellFailed, nil, err)
					} else {
						live(i, h)
					}
				}
			}()
		}
		misses <- i
	}
	var envs *envGroups // built at the first miss: a cached grid never needs it
	for i := range cells {
		hist, ok, err := e.stored(cells[i].ID)
		miss := err == nil && !ok
		switch {
		case err != nil:
			report(i, CellFailed, nil, err)
		case ok:
			report(i, CellCached, hist, nil)
		case envs == nil:
			envs = groupByEnv(cells)
		}
		if envs != nil {
			envs.probed(i, miss, feed)
		}
	}
	close(misses)
	feeders.Wait()
	pending.Wait()
}

// envGroups is Drive's hold-and-release bookkeeping over one grid: which
// environment each cell belongs to, which cell is each environment's last,
// and the misses each environment is holding back.
type envGroups struct {
	group []int   // cell → environment
	last  []int   // environment → its last cell in grid order
	held  [][]int // environment → misses awaiting release, in grid order
}

func groupByEnv(cells []Cell) *envGroups {
	index := make(map[envKey]int, len(cells))
	g := &envGroups{group: make([]int, len(cells))}
	for i := range cells {
		k := cells[i].Spec.envKey()
		env, ok := index[k]
		if !ok {
			env = len(g.last)
			index[k] = env
			g.last = append(g.last, i)
		}
		g.group[i] = env
		g.last[env] = i
	}
	g.held = make([][]int, len(g.last))
	return g
}

// probed records that cell i has been probed (miss: not in the store) and,
// when i is its environment's last cell, releases that environment's held
// misses to feed in grid order.
func (g *envGroups) probed(i int, miss bool, feed func(int)) {
	env := g.group[i]
	if g.last[env] != i {
		if miss {
			g.held[env] = append(g.held[env], i)
		}
		return
	}
	for _, j := range g.held[env] {
		feed(j)
	}
	g.held[env] = nil
	if miss {
		feed(i)
	}
}

// RunSweep expands the grid and drives every cell. It always returns the
// Result — aggregated over whatever succeeded — and a non-nil error if any
// cell failed.
func (e *Engine) RunSweep(sp Spec) (*Result, error) {
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
