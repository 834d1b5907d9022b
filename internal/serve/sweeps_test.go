package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fedwcm/internal/fl"
	"fedwcm/internal/store"
	"fedwcm/internal/sweep"
)

// countingRunner returns canned two-point histories and counts executions.
func countingRunner(execs *atomic.Int64) sweep.Runner {
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
	_, ts := newTestServer(t, Config{Runner: countingRunner(&execs)})

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
	_, ts := newTestServer(t, Config{Runner: countingRunner(&execs)})

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

// TestSweepLargerThanQueueTrickles: a grid bigger than the job queue must
// complete (feeders block for space) rather than 503 or deadlock.
func TestSweepLargerThanQueueTrickles(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestServer(t, Config{Runner: countingRunner(&execs), Workers: 1, QueueDepth: 1})

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
	_, ts := newTestServer(t, Config{Runner: br.run})
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
	_, ts := newTestServer(t, Config{Runner: countingRunner(&execs)})
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

// TestSweepSharesInflightRuns: every way of asking goes through the one
// engine, so a cell that is already running (from a direct /v1/runs
// submission) is joined — by an HTTP sweep and by an in-process RunSweep
// over an overlapping grid alike — instead of being executed again.
func TestSweepSharesInflightRuns(t *testing.T) {
	br := newBlockingRunner()
	s, ts := newTestServer(t, Config{Runner: br.run, Workers: 2})

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
		res, _ := s.eng.RunSweep(sweep.Spec{Methods: []string{"fedavg", "fedwcm"}, Effort: 0.1}, nil)
		inproc <- res
	}()
	for s.eng.Inflight() < 2 { // the in-process sweep has submitted its own cell
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

// TestCannedRunnerKeepsEnvCounters: with an overridden Runner no
// environments are built, but the counters are still present (all zero) so
// API clients get a stable response shape.
func TestCannedRunnerKeepsEnvCounters(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestServer(t, Config{Runner: countingRunner(&execs)})
	_, sum := postSweep(t, ts, sweep.Spec{Methods: []string{"fedavg"}, Rounds: 8})
	done := waitSweepDone(t, ts, sum.ID)
	if done.EnvCache == nil {
		t.Fatal("env_cache counters missing")
	}
	if done.EnvCache.Misses != 0 || done.EnvCache.Hits != 0 {
		t.Fatalf("canned runner must not touch the env cache: %+v", done.EnvCache)
	}
}
