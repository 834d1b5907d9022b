package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fedwcm/internal/dispatch"
	"fedwcm/internal/fl"
	"fedwcm/internal/scenario"
	"fedwcm/internal/store"
	"fedwcm/internal/wire"
)

// asyncChaosSpec is a small but genuinely asynchronous run under stragglers:
// a partial buffer (K below the cohort), poly discounts, slow clients
// stretching the event queue, and the virtual clock in the history.
func asyncChaosSpec() RunSpec {
	spec := goldenSpec("fedwcm")
	spec.Cfg.DropProb = 0
	spec.Cfg.Clock = true
	spec.Cfg.Async = &fl.AsyncConfig{Staleness: fl.StalePoly, Jitter: 0.25}
	spec.Cfg.Scenario = &scenario.Scenario{
		Straggler: &scenario.Straggler{Prob: 0.5, MinFrac: 0.3, MaxFrac: 0.8},
	}
	return spec
}

// postJSON is a minimal worker-protocol client for modelling crashes by
// hand: a crashed worker is one that simply stops calling these.
func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return postBody(t, url, "application/json", b, out)
}

// postBody posts pre-encoded bytes (heartbeats are internal/wire's).
func postBody(t *testing.T, url, contentType string, b []byte, out any) int {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestAsyncJobSurvivesWorkerCrash is the async straggler chaos case: an
// asynchronous FedWCM run is dispatched to a worker that dies mid-run —
// after taking the lease and heartbeating partial progress, i.e. with the
// server's aggregation buffer half filled on the dead worker — and the job
// requeues onto a surviving real worker. Because the async engine is a
// deterministic function of the spec (virtual time, no real clocks), the
// recovered history must be byte-for-byte the history a purely local run
// produces; a restart-from-scratch is indistinguishable from a run that was
// never interrupted.
func TestAsyncJobSurvivesWorkerCrash(t *testing.T) {
	spec := asyncChaosSpec()
	if err := spec.Validate(); err != nil {
		t.Fatalf("chaos spec must validate: %v", err)
	}
	local, err := spec.Run()
	if err != nil {
		t.Fatalf("local reference run: %v", err)
	}
	localBytes, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := dispatch.NewCoordinator(dispatch.CoordinatorConfig{
		Store: st, LeaseTTL: 60 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	coord.Mount(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() { ts.Close(); coord.Close() })

	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	hd, err := coord.Submit(dispatch.Job{ID: fp, Spec: raw}, dispatch.SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}

	// The doomed worker: registers, takes the lease, reports one round of
	// progress (the run is mid-buffer server-side), then goes silent — a
	// SIGKILL, no deregistration.
	var reg struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, ts.URL+"/v1/workers", map[string]any{"name": "doomed", "slots": 1}, &reg); code != http.StatusCreated {
		t.Fatalf("register: HTTP %d", code)
	}
	var leased struct {
		Job dispatch.Job `json:"job"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for leased.Job.ID == "" && time.Now().Before(deadline) {
		postJSON(t, ts.URL+"/v1/workers/"+reg.ID+"/lease", map[string]any{"wait_ms": 100}, &leased)
	}
	if leased.Job.ID != fp {
		t.Fatalf("doomed worker leased %q, want %q", leased.Job.ID, fp)
	}
	beat, err := wire.EncodeStats([]fl.RoundStat{{Round: 1, TestAcc: 0.2, Time: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	if code := postBody(t, ts.URL+"/v1/workers/"+reg.ID+"/jobs/"+fp+"/heartbeat", wire.ContentType, beat, nil); code != http.StatusOK {
		t.Fatalf("mid-run heartbeat: HTTP %d", code)
	}

	// Survivor: a real worker running the true training runner inherits the
	// requeued job once the lease expires and completes it.
	w, err := dispatch.NewWorker(dispatch.WorkerConfig{
		Coordinator: ts.URL,
		Runner:      DispatchRunner(NewEnvCache(0)),
		Slots:       1,
		PollWait:    50 * time.Millisecond,
		Logf:        t.Logf,
	})
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
			t.Error("survivor worker never exited")
		}
	})

	select {
	case <-hd.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("async job never recovered from the crash")
	}
	hist, err := hd.Result()
	if err != nil {
		t.Fatalf("recovered job failed: %v", err)
	}
	gotBytes, err := json.Marshal(hist)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, localBytes) {
		t.Fatalf("recovered async history diverges from the local run:\nlocal:     %s\nrecovered: %s", localBytes, gotBytes)
	}

	// The dead worker's world has moved on: its late heartbeat is rejected.
	if code := postBody(t, ts.URL+"/v1/workers/"+reg.ID+"/jobs/"+fp+"/heartbeat", wire.ContentType, beat, nil); code != http.StatusGone {
		t.Fatalf("dead worker heartbeat after requeue: HTTP %d, want 410", code)
	}

	// And the artifact landed in the store under the spec's fingerprint,
	// byte-compatible with what any backend would produce.
	stored, ok, err := st.Get(fp)
	if err != nil || !ok {
		t.Fatalf("store missing artifact %s: %v", fp, err)
	}
	storedBytes, _ := json.Marshal(stored)
	if !bytes.Equal(storedBytes, localBytes) {
		t.Fatal("stored artifact diverges from the local run")
	}
}
