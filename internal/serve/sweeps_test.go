package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedwcm/internal/dispatch"
	"fedwcm/internal/fl"
	"fedwcm/internal/store"
	"fedwcm/internal/sweep"
)

// countingRunner returns canned two-point histories and counts executions.
func countingRunner(execs *atomic.Int64) specRun {
	return func(_ context.Context, spec sweep.RunSpec, onRound func(fl.RoundStat)) (*fl.History, error) {
		execs.Add(1)
		stats := []fl.RoundStat{{Round: 1, TestAcc: 0.4}, {Round: 2, TestAcc: 0.6}}
		if onRound != nil {
			for _, s := range stats {
				onRound(s)
			}
		}
		return &fl.History{Method: spec.Method, Stats: stats}, nil
	}
}

func postSweep(t *testing.T, ts *httptest.Server, sp sweep.Spec) (int, sweepSummary) {
	t.Helper()
	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sum sweepSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatalf("decoding response (HTTP %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, sum
}

func getSweep(t *testing.T, ts *httptest.Server, id string) (int, sweepSummary) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sum sweepSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatalf("decoding response (HTTP %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, sum
}

func waitSweepDone(t *testing.T, ts *httptest.Server, id string) sweepSummary {
	t.Helper()
	// Generous: real-runner sweeps (TestSweepStatusReportsEnvCache) run
	// several times slower under the race detector in CI's race job.
	deadline := time.Now().Add(180 * time.Second)
	for time.Now().Before(deadline) {
		code, sum := getSweep(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("sweep status HTTP %d for %s", code, id)
		}
		if sum.Status == StatusDone || sum.Status == StatusFailed {
			return sum
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s never finished", id)
	return sweepSummary{}
}

// tinySweep is a 2×2 grid of millisecond-scale cells.
func tinySweep() sweep.Spec {
	return sweep.Spec{
		Methods: []string{"fedavg", "fedwcm"},
		IFs:     []float64{1, 0.1},
		Effort:  0.1,
	}
}

// TestSweepSubmitAggregatesResult is the sweep acceptance path: submit a
// grid, watch it complete, and read back the aggregated mean±std groups.
func TestSweepSubmitAggregatesResult(t *testing.T) {
	var execs atomic.Int64
	_, ts := newStubServer(t, Config{}, countingRunner(&execs))

	code, sub := postSweep(t, ts, tinySweep())
	if code != http.StatusAccepted || sub.Total != 4 {
		t.Fatalf("submit: HTTP %d %+v", code, sub)
	}
	sum := waitSweepDone(t, ts, sub.ID)
	if sum.Status != StatusDone || sum.Counts["done"] != 4 {
		t.Fatalf("final status %+v", sum)
	}
	if len(sum.Cells) != 4 {
		t.Fatalf("status listed %d cells, want 4", len(sum.Cells))
	}
	for _, c := range sum.Cells {
		if !store.ValidFingerprint(c.ID) {
			t.Fatalf("cell id %q is not a fingerprint", c.ID)
		}
		if c.Axes.Method == "" || c.Axes.Clients == 0 {
			t.Fatalf("cell axes unresolved: %+v", c.Axes)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result HTTP %d", resp.StatusCode)
	}
	var res sweepResultResponse
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Computed != 4 || res.Cached != 0 || res.Failed != 0 {
		t.Fatalf("result counts %+v", res)
	}
	if len(res.Groups) != 4 {
		t.Fatalf("%d groups, want 4 (one per cell at a single seed)", len(res.Groups))
	}
	for _, g := range res.Groups {
		if g.N != 1 || g.Mean == 0 {
			t.Fatalf("group not aggregated: %+v", g)
		}
	}
	if !strings.Contains(res.Table, "method") || !strings.Contains(res.Table, "mean") {
		t.Fatalf("rendered table missing columns:\n%s", res.Table)
	}
}

// TestSweepOverlapRecomputesOnlyMisses: a second grid overlapping the first
// executes only its missing fingerprints; the shared cells report "cached".
func TestSweepOverlapRecomputesOnlyMisses(t *testing.T) {
	var execs atomic.Int64
	_, ts := newStubServer(t, Config{}, countingRunner(&execs))

	_, first := postSweep(t, ts, tinySweep())
	waitSweepDone(t, ts, first.ID)
	if got := execs.Load(); got != 4 {
		t.Fatalf("first sweep executed %d cells, want 4", got)
	}

	wider := tinySweep()
	wider.IFs = []float64{1, 0.1, 0.05} // 2 new cells, 4 shared
	_, second := postSweep(t, ts, wider)
	if second.ID == first.ID {
		t.Fatal("different grids must have different sweep ids")
	}
	sum := waitSweepDone(t, ts, second.ID)
	if sum.Counts[StatusCached] != 4 || sum.Counts[StatusDone] != 2 {
		t.Fatalf("overlap counts %+v, want 4 cached 2 done", sum.Counts)
	}
	if got := execs.Load(); got != 6 {
		t.Fatalf("total executions %d, want 6 (union of distinct cells)", got)
	}

	// Resubmitting the wider grid is idempotent: same id, nothing recomputed.
	code, again := postSweep(t, ts, wider)
	if code != http.StatusOK || again.ID != second.ID {
		t.Fatalf("resubmit: HTTP %d id %s (want 200, %s)", code, again.ID, second.ID)
	}
	if got := execs.Load(); got != 6 {
		t.Fatalf("resubmission recomputed cells: %d executions", got)
	}
}

// TestSweepTouchesStoreOncePerCell: a sweep reads each cell from the store
// once, at the engine's probe, and the backend's write is its only write. A
// computed cell is read once more, as a miss, by the backend's admission
// check (a submission racing a finished job reads its artifact instead of
// computing it again); nothing re-reads or re-files a computed history.
func TestSweepTouchesStoreOncePerCell(t *testing.T) {
	st := tempStore(t)
	cells, err := tinySweep().Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if err := st.Put(c.ID, &fl.History{Method: c.Axes.Method, Stats: []fl.RoundStat{{Round: 1, TestAcc: 0.5}}}); err != nil {
			t.Fatal(err)
		}
	}
	var execs atomic.Int64
	_, ts := newStubServer(t, Config{Store: st}, countingRunner(&execs))
	wider := tinySweep()
	wider.IFs = []float64{1, 0.1, 0.05} // 4 stored cells, 2 to compute
	before := st.Stats()
	_, sub := postSweep(t, ts, wider)
	sum := waitSweepDone(t, ts, sub.ID)
	after := st.Stats()
	cached, computed := int64(sum.Counts[StatusCached]), int64(sum.Counts[StatusDone])
	if cached != 4 || computed != 2 || execs.Load() != 2 {
		t.Fatalf("counts %+v after %d executions, want 4 cached 2 done", sum.Counts, execs.Load())
	}
	if hits := after.MemHits + after.DiskHits - before.MemHits - before.DiskHits; hits != cached {
		t.Fatalf("%d store hits for %d cached cells: a computed history was read back", hits, cached)
	}
	if misses := after.Misses - before.Misses; misses != 2*computed {
		t.Fatalf("%d store misses for %d computed cells, want the probe and the admission check each", misses, computed)
	}
	if puts := after.Puts - before.Puts; puts != computed {
		t.Fatalf("%d store puts for %d computed cells, want one each", puts, computed)
	}
}

// TestSweepLargerThanQueueTrickles: a grid bigger than the job queue must
// complete (feeders block for space) rather than 503 or deadlock.
func TestSweepLargerThanQueueTrickles(t *testing.T) {
	var execs atomic.Int64
	_, ts := newStubServer(t, Config{Workers: 1, QueueDepth: 1}, countingRunner(&execs))

	sp := tinySweep()
	sp.Methods = []string{"fedavg", "fedcm", "fedwcm"} // 6 cells through a depth-1 queue
	code, sub := postSweep(t, ts, sp)
	if code != http.StatusAccepted {
		t.Fatalf("submit HTTP %d", code)
	}
	sum := waitSweepDone(t, ts, sub.ID)
	if sum.Status != StatusDone || execs.Load() != 6 {
		t.Fatalf("trickled sweep: %+v after %d executions", sum, execs.Load())
	}
}

// TestSweepResultBeforeCompletion returns 202 with progress, not a partial
// aggregate.
func TestSweepResultBeforeCompletion(t *testing.T) {
	br := newBlockingRunner()
	_, ts := newStubServer(t, Config{}, br.run)
	defer close(br.release)

	_, sub := postSweep(t, ts, sweep.Spec{Methods: []string{"fedavg"}, Effort: 0.1})
	<-br.started
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("incomplete result HTTP %d, want 202", resp.StatusCode)
	}
}

func TestSweepRejectsBadGrids(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{not json`,
		`{"methods":["nope"]}`,
		`{"ifs":[2]}`,
		`{"seed_count":100000}`,
		`{"probes":["nope"]}`,
		`{"methodz":["fedavg"]}`, // unknown field = probable typo
	} {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submit %s: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	if code, _ := getSweep(t, ts, strings.Repeat("ab", 32)); code != http.StatusNotFound {
		t.Fatalf("unknown sweep HTTP %d, want 404", code)
	}
}

// TestSweepEventsStream: per-cell completion events arrive over SSE,
// terminated by a "done" event carrying the final counts.
func TestSweepEventsStream(t *testing.T) {
	var execs atomic.Int64
	_, ts := newStubServer(t, Config{}, countingRunner(&execs))
	_, sub := postSweep(t, ts, tinySweep())

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	reader := bufio.NewReader(resp.Body)
	cells := 0
	for {
		ev := readSSE(t, reader)
		if ev.name == "done" {
			var sum sweepSummary
			if err := json.Unmarshal([]byte(ev.data), &sum); err != nil {
				t.Fatalf("done payload %q: %v", ev.data, err)
			}
			if sum.Status != StatusDone {
				t.Fatalf("done status %+v", sum)
			}
			break
		}
		if ev.name != "cell" {
			t.Fatalf("unexpected event %q", ev.name)
		}
		var ce sweepCellRow
		if err := json.Unmarshal([]byte(ev.data), &ce); err != nil {
			t.Fatalf("cell payload %q: %v", ev.data, err)
		}
		if ce.Status != StatusDone && ce.Status != StatusCached {
			t.Fatalf("cell event status %q", ce.Status)
		}
		cells++
	}
	if cells != 4 {
		t.Fatalf("streamed %d cell events, want 4", cells)
	}
}

// TestSweepEventsSendHeaderBeforeFirstCell: a client of a sweep's events
// gets the response header while no cell has finished yet — here the only
// worker slot is held by a blocked run — not when the first cell finishes.
func TestSweepEventsSendHeaderBeforeFirstCell(t *testing.T) {
	br := newBlockingRunner()
	_, ts := newStubServer(t, Config{Workers: 1}, br.run)
	defer close(br.release)
	_, sub := postSweep(t, ts, tinySweep())
	<-br.started

	tr := &http.Transport{ResponseHeaderTimeout: 2 * time.Second}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Get(ts.URL + "/v1/sweeps/" + sub.ID + "/events")
	if err != nil {
		t.Fatalf("no response header while every cell is pending: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("HTTP %d, Content-Type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
}

// TestSweepSharesInflightRuns: every way of asking goes through the one
// engine, so a cell that is already running (from a direct /v1/runs
// submission) is joined — by an HTTP sweep and by an in-process RunSweep
// over an overlapping grid alike — instead of being executed again.
func TestSweepSharesInflightRuns(t *testing.T) {
	br := newBlockingRunner()
	s, ts := newStubServer(t, Config{Workers: 2}, br.run)

	sp := sweep.Spec{Methods: []string{"fedavg"}, Effort: 0.1}
	cells, err := sp.Expand()
	if err != nil || len(cells) != 1 {
		t.Fatalf("expand: %d cells, err %v", len(cells), err)
	}
	code, first := postSpec(t, ts, cells[0].Spec)
	if code != http.StatusAccepted {
		t.Fatalf("direct submit HTTP %d", code)
	}
	<-br.started // the cell is provably running

	_, sub := postSweep(t, ts, sp)
	inproc := make(chan *sweep.Result, 1)
	go func() {
		res, _ := s.eng.RunSweep(sweep.Spec{Methods: []string{"fedavg", "fedwcm"}, Effort: 0.1})
		inproc <- res
	}()
	wcm, err := sweep.Spec{Methods: []string{"fedwcm"}, Effort: 0.1}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for s.eng.Lookup(wcm[0].ID) == nil { // the in-process sweep has submitted its own cell
		time.Sleep(time.Millisecond)
	}
	close(br.release)
	sum := waitSweepDone(t, ts, sub.ID)
	if sum.Status != StatusDone {
		t.Fatalf("sweep status %+v", sum)
	}
	if res := <-inproc; res == nil || res.Computed != 2 || res.Failed != 0 {
		t.Fatalf("in-process sweep: %+v", res)
	}
	if got := br.execs.Load(); got != 2 {
		t.Fatalf("runner executed %d times, want 2 (fedavg shared three ways, fedwcm once)", got)
	}
	if sum.Cells[0].ID != first.ID {
		t.Fatalf("sweep cell id %s differs from run id %s", sum.Cells[0].ID, first.ID)
	}
}

// TestSweepStatusReportsEnvCache: a real-runner grid over one dataset
// surfaces the environment-cache counters in the status and result
// responses — one construction, the remaining cells reusing it.
func TestSweepStatusReportsEnvCache(t *testing.T) {
	envs := sweep.NewEnvCache(4)
	_, ts := newTestServer(t, Config{Workers: 2, Envs: envs}) // real runner
	sp := sweep.Spec{
		Datasets: []string{"cifar10-syn"},
		Methods:  []string{"fedavg", "fedcm"},
		Clients:  []int{4},
		Rounds:   8,
		Effort:   0.1,
	}
	code, sum := postSweep(t, ts, sp)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	done := waitSweepDone(t, ts, sum.ID)
	if done.Status != StatusDone {
		t.Fatalf("sweep finished %s", done.Status)
	}
	if done.EnvCache == nil {
		t.Fatal("sweep status must report env_cache counters")
	}
	if done.EnvCache.Misses != 1 {
		t.Fatalf("2-cell grid over one dataset must build one env, got %+v", done.EnvCache)
	}
	if done.EnvCache.Hits != 1 {
		t.Fatalf("second cell must reuse the env, got %+v", done.EnvCache)
	}

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + sum.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res sweepResultResponse
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.EnvCache == nil || res.EnvCache.Misses != 1 {
		t.Fatalf("result response must carry env_cache counters, got %+v", res.EnvCache)
	}
}

// TestCannedRunnerKeepsEnvCounters: with a canned runner in the local
// backend no environments are built, but the counters are still present (all zero) so
// API clients get a stable response shape.
func TestCannedRunnerKeepsEnvCounters(t *testing.T) {
	var execs atomic.Int64
	_, ts := newStubServer(t, Config{}, countingRunner(&execs))
	_, sum := postSweep(t, ts, sweep.Spec{Methods: []string{"fedavg"}, Rounds: 8})
	done := waitSweepDone(t, ts, sum.ID)
	if done.EnvCache == nil {
		t.Fatal("env_cache counters missing")
	}
	if done.EnvCache.Misses != 0 || done.EnvCache.Hits != 0 {
		t.Fatalf("canned runner must not touch the env cache: %+v", done.EnvCache)
	}
}

// divergedRunner finishes every run with a NaN training loss, as a diverged
// run does. encoding/json rejects NaN, so the run completes but no store
// Put of its history can succeed.
func divergedRunner(_ context.Context, spec sweep.RunSpec, _ func(fl.RoundStat)) (*fl.History, error) {
	return &fl.History{Method: spec.Method, Stats: []fl.RoundStat{
		{Round: 1, TestAcc: 0.25, TrainLoss: math.NaN()},
		{Round: 2, TestAcc: 0.5, TrainLoss: math.NaN()},
	}}, nil
}

func storeGets(st *store.Store) int64 {
	s := st.Stats()
	return s.MemHits + s.DiskHits + s.Misses
}

// TestSweepResultReadsNoStoreAndMatchesRunSweep: a warm sweep reads each
// cell from the store once, /result reads it no more, and /result's groups
// and table are Engine.RunSweep's over the same store and grid. One cell is
// computed and its persist fails; it is "done", so both aggregate it.
func TestSweepResultReadsNoStoreAndMatchesRunSweep(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sp := cachedTable1Grid()
	cells, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	const diverged = 7 // fedavg β=0.6 IF=0.1 seed 2
	for i, c := range cells {
		if i != diverged {
			if err := st.Put(c.ID, resultGoldenHistory(c.Axes.Method, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	s, ts := newStubServer(t, Config{Store: st}, divergedRunner)
	getResult := func(id string) sweepResultResponse {
		t.Helper()
		before := storeGets(st)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+id+"/result", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("result: HTTP %d: %s", rec.Code, rec.Body)
		}
		if n := storeGets(st) - before; n != 0 {
			t.Fatalf("GET /result made %d store reads, want 0", n)
		}
		var res sweepResultResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Seed 1 alone is fully cached: one Get per cell, from Drive's probe.
	warm := sp
	warm.Seeds = []uint64{1}
	before := storeGets(st)
	_, sub := postSweep(t, ts, warm)
	if sum := waitSweepDone(t, ts, sub.ID); sum.Counts[StatusCached] != 8 {
		t.Fatalf("warm sweep counts: %+v", sum)
	}
	if n := storeGets(st) - before; n != 8 {
		t.Fatalf("warm 8-cell sweep made %d store reads, want 8", n)
	}
	getResult(sub.ID)

	_, sub = postSweep(t, ts, sp)
	if sum := waitSweepDone(t, ts, sub.ID); sum.Counts[StatusCached] != 15 || sum.Counts[StatusDone] != 1 {
		t.Fatalf("sweep counts: %+v", sum)
	}
	if _, ok, _ := st.Get(cells[diverged].ID); ok {
		t.Fatal("the diverged cell's history was persisted; the test needs a failed persist")
	}
	got := getResult(sub.ID)

	local := stubLocal(t, Config{Store: st}, divergedRunner)
	defer local.Close()
	want, err := (&sweep.Engine{Store: st, Executor: local}).RunSweep(sp)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cached != want.Cached || got.Computed != want.Computed || got.Failed != want.Failed {
		t.Fatalf("counts: serve %d/%d/%d, RunSweep %d/%d/%d (cached/computed/failed)",
			got.Cached, got.Computed, got.Failed, want.Cached, want.Computed, want.Failed)
	}
	gotGroups, _ := json.Marshal(got.Groups)
	wantGroups, _ := json.Marshal(want.Groups)
	if !bytes.Equal(gotGroups, wantGroups) {
		t.Fatalf("groups differ\n serve    %s\n RunSweep %s", gotGroups, wantGroups)
	}
	if wantTable := want.AggTable(sp.Name).String(); got.Table != wantTable {
		t.Fatalf("tables differ\n--- serve\n%s--- RunSweep\n%s", got.Table, wantTable)
	}
	if g := want.Find(cells[diverged].Axes); g == nil || g.N != 2 {
		t.Fatalf("the diverged cell's group %+v, want both seeds aggregated", g)
	}
}

// TestSweepEvictionKeepsLiveDropsOldestTerminal: over maxSweepRecords, the
// oldest terminal record goes first, a live one is never evicted, and a
// replaced record leaves no stale entry behind.
func TestSweepEvictionKeepsLiveDropsOldestTerminal(t *testing.T) {
	s, _ := newStubServer(t, Config{}, neverRun)
	record := func(i int, live bool) *sweepRun {
		sw := &sweepRun{id: fmt.Sprintf("%064x", i), finished: dispatch.NewFeed[int]()}
		if live {
			sw.remaining = 1
		}
		return sw
	}
	has := func(i int) bool { _, ok := s.sweeps[fmt.Sprintf("%064x", i)]; return ok }
	s.mu.Lock()
	defer s.mu.Unlock()
	// Records 0–2 are live, 3 to the cap terminal.
	for i := 0; i < maxSweepRecords; i++ {
		s.addSweepLocked(record(i, i < 3))
	}
	s.addSweepLocked(record(maxSweepRecords, true))
	if len(s.sweeps) != maxSweepRecords || has(3) || !has(0) || !has(1) || !has(2) || !has(4) {
		t.Fatalf("after one over the cap: %d records; want record 3 (the oldest terminal) gone", len(s.sweeps))
	}
	s.addSweepLocked(record(maxSweepRecords+1, false))
	if has(4) || !has(5) || !has(maxSweepRecords+1) {
		t.Fatal("the second eviction must take record 4, the next oldest terminal")
	}
	// Resubmitting a grid replaces its record in place.
	s.addSweepLocked(record(10, false))
	if len(s.sweepOrder) != len(s.sweeps) || len(s.sweeps) != maxSweepRecords {
		t.Fatalf("after a replacement: %d ordered, %d records", len(s.sweepOrder), len(s.sweeps))
	}
	if s.sweepOrder[len(s.sweepOrder)-1] != s.sweeps[fmt.Sprintf("%064x", 10)] {
		t.Fatal("a replaced record must move to the newest end")
	}
	// With every record live, nothing is evicted.
	for _, sw := range s.sweepOrder {
		sw.remaining = 1
	}
	for i := 0; i < 3; i++ {
		s.addSweepLocked(record(1000+i, true))
	}
	if len(s.sweeps) != maxSweepRecords+3 || len(s.sweepOrder) != len(s.sweeps) {
		t.Fatalf("all live: %d records, %d ordered; want %d of each", len(s.sweeps), len(s.sweepOrder), maxSweepRecords+3)
	}
}

// roundGate wraps a dispatch.Runner so that the jobs it names hold still
// after their first evaluation: first[id] closes once that evaluation has
// been handed to onRound, and the run resumes when release closes (or its
// context ends). Other jobs run through untouched.
type roundGate struct {
	first   map[string]chan struct{}
	release chan struct{}
}

func newRoundGate(ids ...string) *roundGate {
	g := &roundGate{first: make(map[string]chan struct{}), release: make(chan struct{})}
	for _, id := range ids {
		g.first[id] = make(chan struct{})
	}
	return g
}

func (g *roundGate) wrap(run dispatch.Runner) dispatch.Runner {
	return func(ctx context.Context, job dispatch.Job, onRound func(fl.RoundStat)) (*fl.History, error) {
		first, gated := g.first[job.ID]
		if !gated {
			return run(ctx, job, onRound)
		}
		held := false
		return run(ctx, job, func(st fl.RoundStat) {
			onRound(st)
			if !held {
				held = true
				close(first)
				select {
				case <-g.release:
				case <-ctx.Done():
				}
			}
		})
	}
}

// firstRoundEvent reads the first SSE "round" event of run id.
func firstRoundEvent(t *testing.T, ts *httptest.Server, id string) fl.RoundStat {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events for %.12s: HTTP %d", id, resp.StatusCode)
	}
	ev := readSSE(t, bufio.NewReader(resp.Body))
	if ev.name != "round" {
		t.Fatalf("first event of %.12s is %q, want round", id, ev.name)
	}
	var st fl.RoundStat
	if err := json.Unmarshal([]byte(ev.data), &st); err != nil {
		t.Fatalf("round payload %q: %v", ev.data, err)
	}
	return st
}

// TestSweepStatusCarriesEachRunningCellsLatest: two cells of one grid train
// at once — fedcm at IF = 1, fedwcm at IF = 0.01, both probed for collapse —
// and the sweep status shows each running row its own latest evaluation,
// the one its run's event stream delivered: FedWCM's alpha on the fedwcm
// row, no alpha on the fedcm row, each its own concentration. No cached,
// done or queued row carries one. It holds on the local backend and through
// a coordinator, where the rounds arrive by worker heartbeat.
func TestSweepStatusCarriesEachRunningCellsLatest(t *testing.T) {
	sp := sweep.Spec{
		Methods: []string{"fedavg", "fedcm", "fedwcm"},
		IFs:     []float64{1, 0.01},
		Clients: []int{4},
		Model:   "mlp",
		Probes:  []string{"collapse"},
		Rounds:  4,
		Effort:  0.05,
	}
	cells, err := sp.ExpandValidated()
	if err != nil {
		t.Fatal(err)
	}
	cellOf := func(method string, imb float64) string {
		for _, c := range cells {
			if c.Axes.Method == method && c.Axes.IF == imb {
				return c.ID
			}
		}
		t.Fatalf("no %s cell at IF %g", method, imb)
		return ""
	}
	fedcm, fedwcm := cellOf("fedcm", 1), cellOf("fedwcm", 0.01)
	cached := map[string]bool{cellOf("fedcm", 0.01): true, cellOf("fedwcm", 1): true}

	for _, topology := range []string{"local", "coordinator"} {
		t.Run(topology, func(t *testing.T) {
			st, err := store.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			for id := range cached {
				if err := st.Put(id, &fl.History{Stats: []fl.RoundStat{{Round: 4, TestAcc: 0.3}}}); err != nil {
					t.Fatal(err)
				}
			}
			// Two slots, both held by the gated cells once they evaluate, so
			// every other cell is cached, done or still queued by then.
			gate := newRoundGate(fedcm, fedwcm)
			runner := gate.wrap(sweep.DispatchRunner(sweep.NewEnvCache(0)))
			var ts *httptest.Server
			if topology == "local" {
				local, err := dispatch.NewLocal(dispatch.LocalConfig{Runner: runner, Workers: 2, Store: st, Logf: t.Logf})
				if err != nil {
					t.Fatal(err)
				}
				_, ts = newTestServer(t, Config{Store: st, Executor: local})
			} else {
				coord, err := dispatch.NewCoordinator(dispatch.CoordinatorConfig{
					Store: st, LeaseTTL: 30 * time.Second, Logf: t.Logf,
				})
				if err != nil {
					t.Fatal(err)
				}
				_, ts = newTestServer(t, Config{Store: st, Executor: coord})
				startWorker(t, dispatch.WorkerConfig{
					Coordinator: ts.URL, Runner: runner, Slots: 2,
					PollWait: 200 * time.Millisecond, HeartbeatEvery: 10 * time.Millisecond,
				})
			}
			release := sync.OnceFunc(func() { close(gate.release) })
			defer release() // before the server's cleanup closes it

			code, sum := postSweep(t, ts, sp)
			if code != http.StatusAccepted {
				t.Fatalf("submit: HTTP %d", code)
			}
			events := make(map[string]fl.RoundStat)
			for _, id := range []string{fedcm, fedwcm} {
				<-gate.first[id] // submitted, and its first evaluation reported
				events[id] = firstRoundEvent(t, ts, id)
			}

			_, status := getSweep(t, ts, sum.ID)
			if len(status.Cells) != len(cells) {
				t.Fatalf("status lists %d cells, want %d", len(status.Cells), len(cells))
			}
			for _, row := range status.Cells {
				ev, gated := events[row.ID]
				switch {
				case gated:
					if row.Status != dispatch.StatusRunning || row.Latest == nil {
						t.Fatalf("%s at IF %g: status %s, latest %v; want running with its latest evaluation",
							row.Axes.Method, row.Axes.IF, row.Status, row.Latest)
					}
					// Its own event, so fedwcm's alpha and each row's
					// concentration are the cell's and no other's.
					if !reflect.DeepEqual(*row.Latest, ev) {
						t.Errorf("%s at IF %g: latest %+v, its SSE round event %+v", row.Axes.Method, row.Axes.IF, *row.Latest, ev)
					}
					_, alpha := row.Latest.Metrics["alpha"]
					if alpha != (row.Axes.Method == "fedwcm") || row.Latest.Metrics["concentration"] < 1 {
						t.Errorf("%s at IF %g: metrics %v; want concentration >= 1, and alpha only on fedwcm",
							row.Axes.Method, row.Axes.IF, row.Latest.Metrics)
					}
				case cached[row.ID]:
					if row.Status != StatusCached || row.Latest != nil {
						t.Errorf("pre-stored cell %s at IF %g: status %s, latest %v; want cached, no latest",
							row.Axes.Method, row.Axes.IF, row.Status, row.Latest)
					}
				default:
					if (row.Status != StatusDone && row.Status != StatusQueued) || row.Latest != nil {
						t.Errorf("%s at IF %g: status %s, latest %v; want done or queued, no latest",
							row.Axes.Method, row.Axes.IF, row.Status, row.Latest)
					}
				}
			}
			release()
			done := waitSweepDone(t, ts, sum.ID)
			if done.Status != StatusDone {
				t.Fatalf("sweep finished %s", done.Status)
			}
			for _, row := range done.Cells {
				if row.Latest != nil {
					t.Errorf("%s at IF %g is %s and still carries latest", row.Axes.Method, row.Axes.IF, row.Status)
				}
			}
		})
	}
}
