package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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

// tinySpec is a real grid cell scaled down far enough to train in
// milliseconds: linear model, two rounds, a sliver of the dataset.
func tinySpec() sweep.RunSpec {
	return sweep.RunSpec{
		Dataset: "cifar10-syn", Method: "fedavg", Model: "linear",
		Clients: 4, Scale: 0.08,
		Cfg: fl.Config{Rounds: 2, SampleClients: 2, LocalEpochs: 1, BatchSize: 10, EvalEvery: 1, Seed: 7},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		st, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postSpec(t *testing.T, ts *httptest.Server, spec sweep.RunSpec) (int, runResponse) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr runResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatalf("decoding response (HTTP %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, rr
}

func getStatus(t *testing.T, ts *httptest.Server, id string) (int, runResponse) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr runResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatalf("decoding response (HTTP %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, rr
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) runResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, rr := getStatus(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("status HTTP %d for %s", code, id)
		}
		switch rr.Status {
		case StatusDone, StatusCached, StatusFailed:
			return rr
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s never finished", id)
	return runResponse{}
}

// TestSubmitCachesSecondIdenticalRun is the end-to-end acceptance path:
// the same spec POSTed twice executes the underlying run exactly once and
// the second submission is served from the store with status "cached". The
// server's only worker slot is held by a gated run of another spec, so the
// spec under test is really queued when its 202 is written.
func TestSubmitCachesSecondIdenticalRun(t *testing.T) {
	var executions atomic.Int64
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	spec, blocker := tinySpec(), tinySpec()
	blocker.Cfg.Seed = spec.Cfg.Seed + 1
	held, gate := make(chan struct{}), make(chan struct{})
	_, ts := newTestServer(t, Config{
		Store:   st,
		Workers: 1,
		Runner: func(ctx context.Context, s sweep.RunSpec, onRound func(fl.RoundStat)) (*fl.History, error) {
			if s.Cfg.Seed == blocker.Cfg.Seed {
				close(held)
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return &fl.History{Method: s.Method, Stats: []fl.RoundStat{{Round: 1, TestAcc: 0.5}}}, nil
			}
			executions.Add(1)
			return s.RunCtx(context.Background(), nil, onRound)
		},
	})
	if code, _ := postSpec(t, ts, blocker); code != http.StatusAccepted {
		t.Fatalf("blocker submit: HTTP %d", code)
	}
	<-held // the only worker slot is taken

	code, first := postSpec(t, ts, spec)
	if code != http.StatusAccepted || first.Status != StatusQueued {
		t.Fatalf("first submit: HTTP %d status %q", code, first.Status)
	}
	wantFP, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != wantFP {
		t.Fatalf("run id %s is not the spec fingerprint %s", first.ID, wantFP)
	}
	close(gate)
	done := waitTerminal(t, ts, first.ID)
	if done.Status == StatusFailed {
		t.Fatalf("run failed: %s", done.Error)
	}

	code, second := postSpec(t, ts, spec)
	if code != http.StatusOK || second.Status != StatusCached {
		t.Fatalf("second submit: HTTP %d status %q, want 200 %q", code, second.Status, StatusCached)
	}
	if second.History == nil || len(second.History.Stats) != 2 {
		t.Fatalf("cached response history: %+v", second.History)
	}
	if got := executions.Load(); got != 1 {
		t.Fatalf("underlying run executed %d times, want exactly 1", got)
	}
	// And the artifact is on disk under the fingerprint.
	if hist, ok, err := st.Get(first.ID); err != nil || !ok || hist.FinalAcc() != second.History.FinalAcc() {
		t.Fatalf("store artifact mismatch: ok=%v err=%v", ok, err)
	}
}

// blockingRunner emits one round stat, then holds the run open until
// released — letting tests observe the "running" window deterministically.
type blockingRunner struct {
	started     chan struct{} // closed once the first round stat is emitted
	startedOnce sync.Once
	release     chan struct{} // test closes this to let runs finish
	execs       atomic.Int64
}

func newBlockingRunner() *blockingRunner {
	return &blockingRunner{started: make(chan struct{}), release: make(chan struct{})}
}

func (b *blockingRunner) run(ctx context.Context, spec sweep.RunSpec, onRound func(fl.RoundStat)) (*fl.History, error) {
	b.execs.Add(1)
	stat := fl.RoundStat{Round: 1, TestAcc: 0.5, TrainLoss: 1.0}
	if onRound != nil {
		onRound(stat)
	}
	b.startedOnce.Do(func() { close(b.started) })
	select {
	case <-b.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &fl.History{Method: spec.Method, Stats: []fl.RoundStat{stat}}, nil
}

// TestConcurrentIdenticalSubmissionsCoalesce proves single-flight: a
// second identical POST while the first is still executing lands on the
// same run instead of a second execution.
func TestConcurrentIdenticalSubmissionsCoalesce(t *testing.T) {
	br := newBlockingRunner()
	_, ts := newTestServer(t, Config{Runner: br.run})

	spec := tinySpec()
	code, first := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("first submit HTTP %d", code)
	}
	<-br.started // the run is now provably in flight

	var wg sync.WaitGroup
	codes := make([]int, 4)
	resps := make([]runResponse, 4)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], resps[i] = postSpec(t, ts, spec)
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusAccepted {
			t.Fatalf("concurrent submit %d: HTTP %d (%+v)", i, code, resps[i])
		}
		if resps[i].ID != first.ID {
			t.Fatalf("concurrent submit %d coalesced onto %s, want %s", i, resps[i].ID, first.ID)
		}
		if resps[i].Status != dispatch.StatusRunning && resps[i].Status != StatusQueued {
			t.Fatalf("concurrent submit %d status %q", i, resps[i].Status)
		}
	}
	close(br.release)
	waitTerminal(t, ts, first.ID)
	if got := br.execs.Load(); got != 1 {
		t.Fatalf("coalesced submissions executed %d times, want exactly 1", got)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

func readSSE(t *testing.T, r *bufio.Reader) sseEvent {
	t.Helper()
	var ev sseEvent
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v (got so far %+v)", err, ev)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		case line == "" && ev.name != "":
			return ev
		}
	}
}

// TestEventsStreamDuringLiveRun proves the SSE path delivers per-round
// progress while the run is still executing, then a terminal done event.
func TestEventsStreamDuringLiveRun(t *testing.T) {
	br := newBlockingRunner()
	_, ts := newTestServer(t, Config{Runner: br.run})

	_, first := postSpec(t, ts, tinySpec())
	<-br.started // one round stat emitted, run still open

	resp, err := http.Get(ts.URL + "/v1/runs/" + first.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	reader := bufio.NewReader(resp.Body)

	// At least one per-round event must arrive while the run is live.
	ev := readSSE(t, reader)
	if ev.name != "round" {
		t.Fatalf("first event %q, want round", ev.name)
	}
	var stat fl.RoundStat
	if err := json.Unmarshal([]byte(ev.data), &stat); err != nil {
		t.Fatalf("round payload %q: %v", ev.data, err)
	}
	if stat.Round != 1 || stat.TestAcc != 0.5 {
		t.Fatalf("round payload %+v", stat)
	}

	close(br.release)
	for {
		ev = readSSE(t, reader)
		if ev.name == "done" {
			break
		}
		if ev.name != "round" {
			t.Fatalf("unexpected event %q", ev.name)
		}
	}
	if !strings.Contains(ev.data, StatusDone) {
		t.Fatalf("done payload %q", ev.data)
	}
}

// TestEventsReplayForStoredRun: a finished run's event stream replays its
// history and terminates immediately.
func TestEventsReplayForStoredRun(t *testing.T) {
	st, _ := store.Open(t.TempDir(), 0)
	spec := tinySpec()
	fp, _ := spec.Fingerprint()
	if err := st.Put(fp, &fl.History{Method: "fedavg", Stats: []fl.RoundStat{{Round: 1, TestAcc: 0.4}, {Round: 2, TestAcc: 0.6}}}); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: st})

	resp, err := http.Get(ts.URL + "/v1/runs/" + fp + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reader := bufio.NewReader(resp.Body)
	rounds := 0
	for {
		ev := readSSE(t, reader)
		if ev.name == "done" {
			if !strings.Contains(ev.data, StatusCached) {
				t.Fatalf("done payload %q", ev.data)
			}
			break
		}
		rounds++
	}
	if rounds != 2 {
		t.Fatalf("replayed %d rounds, want 2", rounds)
	}
	// The status route reads the same artifact: cached, whole history, and
	// no live record appears (a read never triggers compute).
	code, rr := getStatus(t, ts, fp)
	if code != http.StatusOK || rr.Status != StatusCached || rr.History == nil || len(rr.History.Stats) != 2 {
		t.Fatalf("status of a stored run = HTTP %d %+v, want 200 cached with its 2-point history", code, rr)
	}
	if tsServer(t, ts).eng.Lookup(fp) != nil {
		t.Fatal("reading a stored run created a live record")
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{not json`,
		`{"dataset":"nope"}`,
		`{"method":"nope"}`,
		`{"partition":"nope"}`,
		`{"beta":-1}`,
		`{"cfg":{"eta_l":-0.1}}`,
		`{"cfg":{"drop_prob":1.5}}`,
		`{"probes":["collapse","nope"]}`,
		`{"datasett":"cifar10-syn"}`, // unknown field = probable typo
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submit %s: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestSubmitMethodDefaulted: CanonicalJSON documents that an omitted field
// and its spelled-out default are the same spec, so a submission relying on
// the default method must run, not fail at methods.New("").
func TestSubmitMethodDefaulted(t *testing.T) {
	_, ts := newTestServer(t, Config{}) // real runner
	spec := tinySpec()
	spec.Method = ""
	_, first := postSpec(t, ts, spec)
	rr := waitTerminal(t, ts, first.ID)
	if rr.Status == StatusFailed {
		t.Fatalf("defaulted-method spec failed: %s", rr.Error)
	}
	hist := rr.History
	if hist == nil || hist.Method != "fedwcm" {
		t.Fatalf("expected fedwcm history, got %+v", hist)
	}
}

func TestStatusUnknownRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, _ := getStatus(t, ts, strings.Repeat("ab", 32))
	if code != http.StatusNotFound {
		t.Fatalf("unknown run HTTP %d, want 404", code)
	}
}

func TestQueueFullReturns503(t *testing.T) {
	br := newBlockingRunner()
	_, ts := newTestServer(t, Config{Runner: br.run, Workers: 1, QueueDepth: 1})
	defer close(br.release)

	// One spec occupies the single worker, one sits in the queue; the next
	// distinct spec must be refused, not buffered without bound.
	specs := make([]sweep.RunSpec, 3)
	for i := range specs {
		specs[i] = tinySpec()
		specs[i].Cfg.Seed = uint64(i + 100)
	}
	code0, _ := postSpec(t, ts, specs[0])
	<-br.started
	code1, _ := postSpec(t, ts, specs[1])
	code2, resp2 := postSpec(t, ts, specs[2])
	if code0 != http.StatusAccepted || code1 != http.StatusAccepted {
		t.Fatalf("accepted submissions: HTTP %d, %d", code0, code1)
	}
	if code2 != http.StatusServiceUnavailable {
		t.Fatalf("over-queue submission: HTTP %d (%+v), want 503", code2, resp2)
	}
	// A refused spec must be resubmittable once there is room again.
	fp, _ := specs[2].Fingerprint()
	if tsServer(t, ts).eng.Lookup(fp) != nil {
		t.Fatal("refused submission left a stale run record")
	}
}

// TestQueueFullReportsExecutorPending: the 503 names the executor's own
// queue depth. Config.QueueDepth sizes only the local backend, so a full
// coordinator queue of 1 must not read as that field's default of 64.
func TestQueueFullReportsExecutorPending(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := dispatch.NewCoordinator(dispatch.CoordinatorConfig{Store: st, Queue: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: st, Executor: coord})

	// No worker joins, so the first spec stays pending and fills the queue.
	first, second := tinySpec(), tinySpec()
	second.Cfg.Seed++
	if code, resp := postSpec(t, ts, first); code != http.StatusAccepted {
		t.Fatalf("first submission: HTTP %d (%+v), want 202", code, resp)
	}
	code, resp := postSpec(t, ts, second)
	if want := "run queue full (1 pending)"; code != http.StatusServiceUnavailable || resp.Error != want {
		t.Fatalf("over-queue submission: HTTP %d %q, want 503 %q", code, resp.Error, want)
	}
}

// tsServer digs the *Server back out for white-box assertions.
func tsServer(t *testing.T, ts *httptest.Server) *Server {
	t.Helper()
	s, ok := ts.Config.Handler.(*Server)
	if !ok {
		t.Fatalf("handler is %T", ts.Config.Handler)
	}
	return s
}

func TestRegistryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reg registryResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	if len(reg.Experiments) == 0 || len(reg.Methods) == 0 || len(reg.Datasets) == 0 {
		t.Fatalf("registry incomplete: %d experiments, %d methods, %d datasets",
			len(reg.Experiments), len(reg.Methods), len(reg.Datasets))
	}
	seen := false
	for _, e := range reg.Experiments {
		if e.ID == "table1" && e.Title != "" {
			seen = true
		}
	}
	if !seen {
		t.Fatal("table1 missing from registry listing")
	}
}

// TestFailedRunRetries: a failed cell is queryable, and resubmitting it
// schedules a fresh attempt instead of pinning the failure.
func TestFailedRunRetries(t *testing.T) {
	var attempts atomic.Int64
	_, ts := newTestServer(t, Config{
		Runner: func(_ context.Context, spec sweep.RunSpec, onRound func(fl.RoundStat)) (*fl.History, error) {
			if attempts.Add(1) == 1 {
				return nil, fmt.Errorf("transient failure")
			}
			return &fl.History{Method: spec.Method, Stats: []fl.RoundStat{{Round: 1, TestAcc: 0.9}}}, nil
		},
	})
	spec := tinySpec()
	_, first := postSpec(t, ts, spec)
	rr := waitTerminal(t, ts, first.ID)
	if rr.Status != StatusFailed || !strings.Contains(rr.Error, "transient failure") {
		t.Fatalf("first attempt: %+v", rr)
	}
	code, second := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit after failure: HTTP %d (%+v)", code, second)
	}
	rr = waitTerminal(t, ts, first.ID)
	if rr.Status == StatusFailed {
		t.Fatalf("retry did not recover: %+v", rr)
	}
	if attempts.Load() != 2 {
		t.Fatalf("attempts %d, want 2", attempts.Load())
	}
}

// TestUnstoredRunServedFromRecord: a run whose history the store refuses
// still ends done, and GET /v1/runs/{id} answers done with that history,
// read from the record the backend retains for it. The runner blocks the
// run's store shard with a file once the submission's store probes are
// past, so both of the backend's Puts fail. (A NaN history is refused by
// the store as well, but no JSON response can carry it: obs.WriteJSON
// answers 500 for it.)
func TestUnstoredRunServedFromRecord(t *testing.T) {
	root := t.TempDir()
	st, err := store.Open(root, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	_, ts := newTestServer(t, Config{Store: st, Runner: func(_ context.Context, s sweep.RunSpec, _ func(fl.RoundStat)) (*fl.History, error) {
		execs.Add(1)
		if err := os.WriteFile(filepath.Join(root, fp[:2]), nil, 0o644); err != nil {
			return nil, err
		}
		return &fl.History{Method: s.Method, Stats: []fl.RoundStat{{Round: 1, TestAcc: 0.25}, {Round: 2, TestAcc: 0.5}}}, nil
	}})
	if code, first := postSpec(t, ts, spec); code != http.StatusAccepted || first.ID != fp {
		t.Fatalf("submit: HTTP %d %+v", code, first)
	}
	rr := waitTerminal(t, ts, fp)
	if rr.Status != StatusDone || rr.History == nil || len(rr.History.Stats) != 2 || rr.Progress != nil {
		t.Fatalf("status of the unstored run: %+v, want done with its 2-point history", rr)
	}
	if st.Stats().Puts != 0 || execs.Load() != 1 {
		t.Fatalf("%d puts, %d executions; want the history held in memory only, computed once", st.Stats().Puts, execs.Load())
	}
}
