package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"fedwcm/internal/dispatch"
	"fedwcm/internal/experiments"
	"fedwcm/internal/store"
	"fedwcm/internal/sweep"
)

// tinySweepBody is a real 2-cell grid (two seeds of one config) scaled to
// train in well under a second per cell: linear model, 8 rounds, floor
// dataset scale.
const tinySweepBody = `{"methods":["fedavg"],"seed_count":2,"clients":[4],"sample_rates":[0.5],"local_epochs":[1],"model":"linear","rounds":8,"effort":0.01}`

// postSweepBody submits a raw sweep spec and returns the sweep id.
func postSweepBody(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sum struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatalf("decoding sweep submit (HTTP %d): %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep submit: HTTP %d", resp.StatusCode)
	}
	return sum.ID
}

// waitSweepResult polls /result until 200 and returns the raw body.
func waitSweepResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			return body
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("sweep result: HTTP %d: %s", resp.StatusCode, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("sweep %s never finished", id)
	return nil
}

// sweepCellIDs fetches the per-cell fingerprints from the status endpoint.
func sweepCellIDs(t *testing.T, ts *httptest.Server, id string) []string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sum struct {
		Cells []struct {
			ID     string `json:"id"`
			Status string `json:"status"`
		} `json:"cells"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(sum.Cells))
	for i, c := range sum.Cells {
		out[i] = c.ID
	}
	return out
}

// canonicalResult strips the backend-dependent env-cache counters (the
// remote coordinator builds no environments server-side) and re-encodes
// deterministically, so equal bytes mean equal fingerprints, groups,
// counts and rendered table.
func canonicalResult(t *testing.T, raw []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("decoding result: %v (%s)", err, raw)
	}
	delete(m, "env_cache")
	delete(m, "dispatch") // control-plane snapshot exists only on the remote side
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// startTestWorker joins a real dispatch worker (running the true training
// runner) to the given coordinator URL.
func startTestWorker(t *testing.T, url string) {
	t.Helper()
	startWorker(t, dispatch.WorkerConfig{
		Coordinator: url,
		Runner:      sweep.DispatchRunner(sweep.NewEnvCache(0)),
		Slots:       1,
		PollWait:    200 * time.Millisecond,
	})
}

// startWorker runs a dispatch worker configured by cfg until the test ends.
func startWorker(t *testing.T, cfg dispatch.WorkerConfig) {
	t.Helper()
	cfg.Logf = t.Logf
	w, err := dispatch.NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("worker never exited")
		}
	})
}

// TestRemoteSweepMatchesLocalBackend is the dispatch acceptance test: the
// same sweep executed on a coordinator + two remote workers and on the
// in-process local backend yields identical cell fingerprints, bit-
// identical store artifacts, and a byte-identical aggregated /result
// (modulo env-cache counters, which live on whichever side built
// environments).
func TestRemoteSweepMatchesLocalBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("full distributed equivalence run")
	}
	// Local backend.
	stLocal, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, localTS := newTestServer(t, Config{Store: stLocal, Workers: 2})

	// Remote backend: coordinator executor + two real workers.
	stRemote, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := dispatch.NewCoordinator(dispatch.CoordinatorConfig{
		Store: stRemote, LeaseTTL: 5 * time.Second, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, remoteTS := newTestServer(t, Config{Store: stRemote, Executor: coord})
	startTestWorker(t, remoteTS.URL)
	startTestWorker(t, remoteTS.URL)

	localID := postSweepBody(t, localTS, tinySweepBody)
	remoteID := postSweepBody(t, remoteTS, tinySweepBody)
	if localID != remoteID {
		t.Fatalf("sweep ids diverge: local %s, remote %s", localID, remoteID)
	}

	localRes := canonicalResult(t, waitSweepResult(t, localTS, localID))
	remoteRes := canonicalResult(t, waitSweepResult(t, remoteTS, remoteID))
	if localRes != remoteRes {
		t.Fatalf("aggregated results diverge:\nlocal:  %s\nremote: %s", localRes, remoteRes)
	}
	if !strings.Contains(localRes, `"computed":2`) {
		t.Fatalf("expected 2 computed cells, got %s", localRes)
	}

	// Fingerprints and artifacts: same cells, and the files the two stores
	// persisted are byte-identical.
	localCells := sweepCellIDs(t, localTS, localID)
	remoteCells := sweepCellIDs(t, remoteTS, remoteID)
	if len(localCells) != 2 || len(localCells) != len(remoteCells) {
		t.Fatalf("cell lists: local %v, remote %v", localCells, remoteCells)
	}
	for i := range localCells {
		if localCells[i] != remoteCells[i] {
			t.Fatalf("cell %d fingerprints diverge: %s vs %s", i, localCells[i], remoteCells[i])
		}
		lb, err := os.ReadFile(stLocal.Path(localCells[i]))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := os.ReadFile(stRemote.Path(remoteCells[i]))
		if err != nil {
			t.Fatal(err)
		}
		if string(lb) != string(rb) {
			t.Fatalf("artifact %s differs between local and remote stores:\nlocal:  %s\nremote: %s",
				localCells[i], lb, rb)
		}
	}
}

// TestClientExecutorDrivesEngine is the fedbench -remote path: an
// experiment whose Options.Remote names a fedserve instance runs its grid on
// that server's engine through POST /v1/sweeps; histories come back over the
// API and match a purely local engine run of the same spec. The counts are
// the server's, so a repeat remote run is all cache hits.
func TestClientExecutorDrivesEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("full distributed equivalence run")
	}
	stServer, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: stServer, Workers: 2})

	// A one-off experiment around a two-cell grid; Execute runs it at seed
	// 1 and effort 0.01 and returns the result.
	exp := &experiments.Experiment{
		ID: "remote-equivalence",
		Grid: sweep.Spec{
			Methods: []string{"fedavg", "fedcm"},
			Clients: []int{4}, SampleRates: []float64{0.5}, LocalEpochs: []int{1},
			Model: "linear", Rounds: 8,
		},
	}
	opt := experiments.Options{Seed: 1, Effort: 0.01, Remote: ts.URL + "/", Out: io.Discard}
	// The trailing slash is trimmed, not sent as "//v1/sweeps".
	first, err := exp.Execute(opt)
	if err != nil {
		t.Fatal(err)
	}
	local, err := dispatch.NewLocal(dispatch.LocalConfig{Runner: sweep.DispatchRunner(sweep.NewEnvCache(0)), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	sp := exp.Grid
	sp.Name, sp.Seeds, sp.Effort = exp.ID, []uint64{opt.Seed}, opt.Effort
	localRes, err := (&sweep.Engine{Executor: local}).RunSweep(sp)
	if err != nil {
		t.Fatal(err)
	}
	if first.Computed != 2 || localRes.Computed != 2 {
		t.Fatalf("computed: remote %d local %d, want 2/2", first.Computed, localRes.Computed)
	}
	for i := range localRes.Cells {
		lh, rh := localRes.Cells[i].Hist, first.Cells[i].Hist
		lb, _ := json.Marshal(lh)
		rb, _ := json.Marshal(rh)
		if string(lb) != string(rb) {
			t.Fatalf("cell %d histories diverge over the remote client:\nlocal:  %s\nremote: %s", i, lb, rb)
		}
	}
	// The server's store holds the artifacts; a second remote run is all
	// cache hits server-side, and the client counts them as cached.
	opt.Remote = ts.URL
	again, err := exp.Execute(opt)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached != 2 || again.Computed != 0 {
		t.Fatalf("repeat remote run: %d cached, %d computed, want 2/0", again.Cached, again.Computed)
	}
}

// TestRemoteBackendServesRestartedStoreFromCache: a coordinator-backed
// server opened over a store populated by a previous life serves the whole
// sweep as cache hits — no workers registered, nothing queued.
func TestRemoteBackendServesRestartedStoreFromCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full distributed equivalence run")
	}
	dir := t.TempDir()
	st1, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// First life: plain local backend fills the store.
	_, ts1 := newTestServer(t, Config{Store: st1, Workers: 2})
	id := postSweepBody(t, ts1, tinySweepBody)
	first := canonicalResult(t, waitSweepResult(t, ts1, id))

	// Second life: same directory, remote backend, zero workers.
	st2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := dispatch.NewCoordinator(dispatch.CoordinatorConfig{Store: st2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{Store: st2, Executor: coord})
	id2 := postSweepBody(t, ts2, tinySweepBody)
	if id2 != id {
		t.Fatalf("sweep id changed across restart: %s vs %s", id2, id)
	}
	second := waitSweepResult(t, ts2, id2)
	if !strings.Contains(string(second), `"cached":2`) {
		t.Fatalf("restarted store did not serve cells from cache: %s", second)
	}
	if st := coord.Stats(); st.Pending != 0 || st.Leased != 0 {
		t.Fatalf("cached cells reached the worker queue: %+v", st)
	}
	// Groups and table match the original computation exactly.
	var a, b map[string]any
	json.Unmarshal([]byte(first), &a)
	json.Unmarshal(second, &b)
	ga, _ := json.Marshal(a["groups"])
	gb, _ := json.Marshal(b["groups"])
	if string(ga) != string(gb) {
		t.Fatalf("groups diverge across restart:\n%s\n%s", ga, gb)
	}
	if a["table"] != b["table"] {
		t.Fatalf("tables diverge across restart:\n%v\n%v", a["table"], b["table"])
	}
}
