package serve

import (
	"encoding/json"
	"net/http"
	"slices"
	"sync"

	"fedwcm/internal/dispatch"
	"fedwcm/internal/fl"
	"fedwcm/internal/obs"
	"fedwcm/internal/sweep"
)

// maxSweepRecords caps how many sweep records the server retains. Records
// hold no histories (axes, status and score per cell), so the cap bounds
// memory at roughly maxSweepRecords × MaxCells rows; terminal records beyond
// it are evicted oldest-first (live sweeps are never evicted). An evicted
// grid resubmits cheaply: every completed cell is a store hit.
const maxSweepRecords = 128

// sweepRun is the in-process record of one submitted grid. The sweep id is
// the spec's fingerprint, so submission is idempotent exactly like runs: a
// second POST of the same grid lands on the same record, and a grid
// overlapping an earlier one finds its shared cells in the store or joins
// their jobs on the backend.
type sweepRun struct {
	id    string
	spec  sweep.Spec
	cells []sweep.Cell

	// finished carries the index of each cell as it turns terminal, and
	// finishes with the last one.
	finished *dispatch.Feed[int]

	mu        sync.Mutex
	states    []sweepCellState // parallel to cells
	remaining int              // cells not yet terminal
	failed    int              // terminal cells that failed
}

// sweepCellState tracks one cell. While the cell executes, live is its job
// handle to query for queued/running; once terminal, status/err are
// authoritative, and a cell that finished with a history carries its score
// (scored), taken from the history the engine reported. The score is all
// /result needs of a cell, so the record holds no history and /result reads
// no store: a sweep record costs O(cells) scalars, not O(cells) histories.
type sweepCellState struct {
	status string // "" while scheduling, then cached/queued/running/done/failed
	err    string
	live   dispatch.Handle
	score  sweep.CellScore
	scored bool
}

// sweepCellRow is one cell as the API shows it: a row of the status listing,
// and the payload of the SSE "cell" event once the cell is terminal. Only a
// running row carries Latest: its job's newest evaluation.
type sweepCellRow struct {
	ID     string        `json:"id"`
	Axes   sweep.Axes    `json:"axes"`
	Status string        `json:"status"`
	Error  string        `json:"error,omitempty"`
	Latest *fl.RoundStat `json:"latest,omitempty"`
}

// finishCell records a cell's terminal state and publishes the event; the
// last cell finishes the feed. Publishing under sw.mu keeps a concurrent
// finisher's event ahead of the last cell's finish.
func (sw *sweepRun) finishCell(i int, st sweepCellState) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.states[i] = st
	sw.remaining--
	if st.status == StatusFailed {
		sw.failed++
	}
	sw.finished.Publish(i)
	if sw.remaining == 0 {
		sw.finished.Finish()
	}
}

// cellEvent is the SSE payload for terminal cell i.
func (sw *sweepRun) cellEvent(i int) sweepCellRow {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sweepCellRow{ID: sw.cells[i].ID, Axes: sw.cells[i].Axes, Status: sw.states[i].status, Error: sw.states[i].err}
}

// markScheduled notes a cell that is executing (submitted by this sweep or
// joined in flight), so status queries can report queued/running from its
// job handle.
func (sw *sweepRun) markScheduled(i int, h dispatch.Handle) {
	sw.mu.Lock()
	sw.states[i].live = h
	sw.mu.Unlock()
}

// terminal reports whether every cell finished, and how.
func (sw *sweepRun) terminal() (done bool, failed int) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.remaining == 0, sw.failed
}

// feed drives the grid through the engine, recording each cell's status
// and, from the history the engine reports with it, its score as it turns
// terminal. Runs on its own goroutine, tracked by s.feedWg so Close can wait
// for the record to be complete.
func (s *Server) feed(sw *sweepRun) {
	defer s.feedWg.Done()
	s.eng.Drive(sw.cells, sw.markScheduled, func(i int, status string, hist *fl.History, err error) {
		st := sweepCellState{status: status}
		switch {
		case err != nil:
			st.err = err.Error()
		case status == sweep.CellComputed:
			st.status = StatusDone
		}
		if err == nil && hist != nil {
			st.score, st.scored = sweep.ScoreOf(hist), true
		}
		sw.finishCell(i, st)
		s.sm.cells.With(st.status).Inc()
	})
}

// sweepSummary is the JSON shape shared by submit and status responses.
type sweepSummary struct {
	ID     string         `json:"id"`
	Name   string         `json:"name,omitempty"`
	Status string         `json:"status"` // running | done | failed
	Total  int            `json:"total"`
	Counts map[string]int `json:"counts"`
	// EnvCache reports the server-wide environment-cache counters (hits,
	// misses, evictions, entries) — how often cells reused an already built
	// dataset+partition instead of constructing one.
	EnvCache *sweep.EnvCacheStats `json:"env_cache,omitempty"`
	// Dispatch reports the control-plane snapshot when execution is
	// delegated to a coordinator: queue depth, workers, and — on a
	// WAL-backed coordinator — whether the process is durable and how many
	// jobs the last restart recovered. Absent in local-pool mode.
	Dispatch *dispatch.CoordinatorStats `json:"dispatch,omitempty"`
	Cells    []sweepCellRow             `json:"cells,omitempty"`
}

// envStats snapshots the server's environment cache for API responses.
func (s *Server) envStats() *sweep.EnvCacheStats {
	st := s.cfg.Envs.Stats()
	return &st
}

// dispatchStats snapshots the executor's control-plane view when the
// backend exposes one (a dispatch.Coordinator in remote mode, or a wrapper
// that embeds one — hence the method-set match, as in execPending); nil for
// dispatch.Local, which keeps its coordinator to itself, so the field stays
// absent from local responses.
func (s *Server) dispatchStats() *dispatch.CoordinatorStats {
	if c, ok := s.eng.Executor.(interface {
		Stats() dispatch.CoordinatorStats
	}); ok {
		cs := c.Stats()
		return &cs
	}
	return nil
}

// summary builds the status view; withCells includes the per-cell listing.
// Counts and the overall status come from one snapshot under sw.mu, so a
// "done" response can never list a cell as still running. (Taking sw.mu
// before a job handle's or its feed's lock matches the lock order.)
func (sw *sweepRun) summary(withCells bool) sweepSummary {
	out := sweepSummary{
		ID:     sw.id,
		Name:   sw.spec.Name,
		Total:  len(sw.cells),
		Counts: make(map[string]int),
	}
	sw.mu.Lock()
	remaining, failed := sw.remaining, sw.failed
	for i := range sw.cells {
		st := sw.states[i]
		status, errMsg := st.status, st.err
		if status == "" {
			status = StatusQueued // not yet scheduled by the feeder
			if st.live != nil {
				status = st.live.Status()
			}
		}
		out.Counts[status]++
		if withCells {
			row := sweepCellRow{ID: sw.cells[i].ID, Axes: sw.cells[i].Axes, Status: status, Error: errMsg}
			if status == dispatch.StatusRunning {
				if last, ok := st.live.Rounds().Last(); ok {
					row.Latest = &last
				}
			}
			out.Cells = append(out.Cells, row)
		}
	}
	sw.mu.Unlock()
	switch {
	case remaining > 0:
		out.Status = "running"
	case failed > 0:
		out.Status = StatusFailed
	default:
		out.Status = StatusDone
	}
	return out
}

// sweepResult folds the terminal cells' recorded scores into a
// sweep.Result (groups and counts; no cells, no histories), in grid order.
// It reads no store: every score was taken from the history the engine
// reported when the cell finished, so a computed cell whose persist failed
// is aggregated like any other, as Engine.RunSweep aggregates it.
func (sw *sweepRun) sweepResult() *sweep.Result {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sweep.Fold(sw.spec, len(sw.cells), func(i int) (*sweep.Axes, string, *sweep.CellScore) {
		st := &sw.states[i]
		status := st.status
		if status == StatusDone {
			status = sweep.CellComputed
		}
		if !st.scored {
			return &sw.cells[i].Axes, status, nil
		}
		return &sw.cells[i].Axes, status, &st.score
	})
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, req *http.Request) {
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields() // a typo'd axis means a different grid than intended
	var spec sweep.Spec
	if err := dec.Decode(&spec); err != nil {
		obs.HTTPError(w, http.StatusBadRequest, "decoding sweep: %v", err)
		return
	}
	cells, err := spec.ExpandValidated()
	if err != nil {
		obs.HTTPError(w, http.StatusBadRequest, "invalid sweep: %v", err)
		return
	}
	id, err := spec.Fingerprint()
	if err != nil {
		obs.HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		obs.HTTPError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	if sw, ok := s.sweeps[id]; ok {
		// Idempotent resubmission: a live or cleanly finished record is
		// authoritative for this grid. A terminal record with failed cells
		// is replaced by a fresh attempt (mirroring failed-run retry) —
		// cells that did succeed are store hits on the retry.
		done, failed := sw.terminal()
		if !done || failed == 0 {
			s.mu.Unlock()
			code := http.StatusAccepted
			if done {
				code = http.StatusOK
			}
			obs.WriteJSON(w, code, sw.summary(false))
			return
		}
	}
	sw := &sweepRun{
		id: id, spec: spec, cells: cells,
		states: make([]sweepCellState, len(cells)), remaining: len(cells),
		finished: dispatch.NewFeed[int](),
	}
	s.addSweepLocked(sw)
	s.feedWg.Add(1) // under s.mu alongside the closing check, so Close
	s.mu.Unlock()   // cannot start waiting between them
	go s.feed(sw)
	obs.WriteJSON(w, http.StatusAccepted, sw.summary(false))
}

// addSweepLocked records sw under its id, replacing a failed record of the
// same grid, then evicts the oldest terminal records until the server is
// back under maxSweepRecords. s.sweepOrder holds exactly the records of
// s.sweeps, oldest first, so eviction walks only the live records older
// than the first terminal one. Caller holds s.mu (the s.mu → sw.mu lock
// order matches the resubmission path).
func (s *Server) addSweepLocked(sw *sweepRun) {
	if old, ok := s.sweeps[sw.id]; ok {
		s.sweepOrder = slices.DeleteFunc(s.sweepOrder, func(r *sweepRun) bool { return r == old })
	}
	s.sweeps[sw.id] = sw
	s.sweepOrder = append(s.sweepOrder, sw)
	for len(s.sweepOrder) > maxSweepRecords {
		k := slices.IndexFunc(s.sweepOrder, func(r *sweepRun) bool {
			done, _ := r.terminal()
			return done
		})
		if k < 0 {
			return // everything over the cap is still live; never evict those
		}
		delete(s.sweeps, s.sweepOrder[k].id)
		s.sweepOrder = slices.Delete(s.sweepOrder, k, k+1)
	}
}

// lookupSweep resolves the request's sweep id to its in-process record; nil
// means the 404 has been written.
func (s *Server) lookupSweep(w http.ResponseWriter, req *http.Request) *sweepRun {
	s.mu.Lock()
	sw := s.sweeps[req.PathValue("id")]
	s.mu.Unlock()
	if sw == nil {
		obs.HTTPError(w, http.StatusNotFound, "unknown sweep %s", req.PathValue("id"))
	}
	return sw
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, req *http.Request) {
	sw := s.lookupSweep(w, req)
	if sw == nil {
		return
	}
	sum := sw.summary(true)
	sum.EnvCache = s.envStats()
	sum.Dispatch = s.dispatchStats()
	obs.WriteJSON(w, http.StatusOK, sum)
}

// sweepResultResponse is the aggregated view of a finished sweep: the
// seed-collapsed groups plus a rendered text table for human eyes.
type sweepResultResponse struct {
	ID       string                     `json:"id"`
	Status   string                     `json:"status"`
	Total    int                        `json:"total"`
	Cached   int                        `json:"cached"`
	Computed int                        `json:"computed"`
	Failed   int                        `json:"failed"`
	EnvCache *sweep.EnvCacheStats       `json:"env_cache,omitempty"`
	Dispatch *dispatch.CoordinatorStats `json:"dispatch,omitempty"`
	Groups   []*sweep.Group             `json:"groups"`
	Table    string                     `json:"table"`
}

func (s *Server) handleSweepResult(w http.ResponseWriter, req *http.Request) {
	sw := s.lookupSweep(w, req)
	if sw == nil {
		return
	}
	if done, _ := sw.terminal(); !done {
		obs.WriteJSON(w, http.StatusAccepted, sw.summary(false))
		return
	}
	res := sw.sweepResult()
	title := sw.spec.Name
	if title == "" {
		title = "sweep " + sw.id[:12]
	}
	summary := sw.summary(false)
	obs.WriteJSON(w, http.StatusOK, sweepResultResponse{
		ID:       sw.id,
		Status:   summary.Status,
		Total:    len(sw.cells),
		Cached:   res.Cached,
		Computed: res.Computed,
		Failed:   res.Failed,
		EnvCache: s.envStats(),
		Dispatch: s.dispatchStats(),
		Groups:   res.Groups,
		Table:    res.AggTable(title).String(),
	})
}

// handleSweepEvents streams per-cell completion as Server-Sent Events: one
// "cell" event per terminal cell (replayed from the start for late
// joiners), then a terminal "done" event with the final counts. Every cell
// is delivered — a slow reader catches up from the log — and cells that were
// terminal together leave in one flush. Round-level progress for an
// individual cell remains available on /v1/runs/{cell-id}/events.
func (s *Server) handleSweepEvents(w http.ResponseWriter, req *http.Request) {
	sw := s.lookupSweep(w, req)
	if sw == nil {
		return
	}
	serveSSE(w, s.sm.sseSweeps, func(emit func(event string, v any), flush func()) {
		done := sw.finished.Stream(req.Context(), func(batch []int) {
			for _, i := range batch {
				emit("cell", sw.cellEvent(i))
			}
			flush()
		})
		if done {
			emit("done", sw.summary(false))
			flush()
		}
	})
}
