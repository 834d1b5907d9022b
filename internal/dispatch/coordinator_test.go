package dispatch

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"fedwcm/internal/fl"
	"fedwcm/internal/obs"
	"fedwcm/internal/store"
	"fedwcm/internal/wire"
)

// coordHarness is a coordinator mounted on a test server plus hand-driven
// HTTP helpers — a "manual worker" that lets tests model crashes exactly
// (a crashed worker is one that simply goes silent mid-lease).
type coordHarness struct {
	t     *testing.T
	coord *Coordinator
	ts    *httptest.Server
	store *store.Store
}

func newCoordHarness(t *testing.T, cfg CoordinatorConfig) *coordHarness {
	t.Helper()
	return newWrappedCoordHarness(t, cfg, func(h http.Handler) http.Handler { return h })
}

// newWrappedCoordHarness serves the coordinator's mux behind wrap, for tests
// that observe the worker protocol from the server side.
func newWrappedCoordHarness(t *testing.T, cfg CoordinatorConfig, wrap func(http.Handler) http.Handler) *coordHarness {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = tstore(t)
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	c.Mount(mux)
	ts := httptest.NewServer(wrap(mux))
	t.Cleanup(func() { ts.Close(); c.Close() })
	return &coordHarness{t: t, coord: c, ts: ts, store: cfg.Store}
}

// post sends a JSON control message (register, lease).
func (h *coordHarness) post(url string, body any, out any) int {
	h.t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		h.t.Fatal(err)
	}
	return h.postBody(url, "application/json", b, out)
}

// postBody posts pre-encoded bytes; heartbeats and results ride the wire
// codec, like the real worker's.
func (h *coordHarness) postBody(url, contentType string, b []byte, out any) int {
	h.t.Helper()
	resp, err := http.Post(h.ts.URL+url, contentType, bytes.NewReader(b))
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			h.t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func (h *coordHarness) register(slots int) string {
	h.t.Helper()
	var resp registerResponse
	if code := h.post("/v1/workers", registerRequest{Name: "test", Slots: slots}, &resp); code != http.StatusCreated {
		h.t.Fatalf("register: HTTP %d", code)
	}
	return resp.ID
}

// lease asks once with the given long-poll budget; ok=false means 204.
func (h *coordHarness) lease(wid string, waitMS int64) (Job, bool) {
	h.t.Helper()
	var resp leaseResponse
	code := h.post("/v1/workers/"+wid+"/lease", leaseRequest{WaitMS: waitMS}, &resp)
	switch code {
	case http.StatusOK:
		return resp.Job, true
	case http.StatusNoContent:
		return Job{}, false
	default:
		h.t.Fatalf("lease: HTTP %d", code)
		return Job{}, false
	}
}

// leaseUntil polls until a job arrives or the deadline passes.
func (h *coordHarness) leaseUntil(wid string, deadline time.Duration) Job {
	h.t.Helper()
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		if job, ok := h.lease(wid, 100); ok {
			return job
		}
	}
	h.t.Fatalf("worker %s never received a lease", wid)
	return Job{}
}

// deregister sends the clean-shutdown DELETE for wid — on a live worker's
// behalf, when a test wants its registration gone without telling it.
func (h *coordHarness) deregister(wid string) {
	h.t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, h.ts.URL+"/v1/workers/"+wid, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.t.Fatalf("deregistering %q: HTTP %d", wid, resp.StatusCode)
	}
}

func (h *coordHarness) heartbeat(wid, jobID string, rounds []fl.RoundStat) int {
	h.t.Helper()
	body, err := wire.EncodeStats(rounds)
	if err != nil {
		h.t.Fatal(err)
	}
	return h.postBody(fmt.Sprintf("/v1/workers/%s/jobs/%s/heartbeat", wid, jobID), wire.ContentType, body, nil)
}

func (h *coordHarness) upload(wid, jobID string, hist *fl.History, errStr string) (int, resultResponse) {
	h.t.Helper()
	var resp resultResponse
	code := h.postBody(fmt.Sprintf("/v1/workers/%s/jobs/%s/result", wid, jobID), wire.ContentType, wire.EncodeResult(hist, errStr), &resp)
	return code, resp
}

// TestWorkerHopRefusesMalformedBodies: a heartbeat or result body that does
// not decode is a 400 and changes no state — the job stays running with no
// round relayed and nothing stored. The bodies are the binary envelopes
// workers sent before the hop spoke JSON (an empty result and an empty
// batch), an object where the heartbeat's list belongs, and a truncated
// result. An empty heartbeat is still a liveness ping.
func TestWorkerHopRefusesMalformedBodies(t *testing.T) {
	h := newCoordHarness(t, CoordinatorConfig{})
	hd, err := h.coord.Submit(testJob(1), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wid := h.register(1)
	job := h.leaseUntil(wid, 2*time.Second)
	hbURL := fmt.Sprintf("/v1/workers/%s/jobs/%s/heartbeat", wid, job.ID)
	resURL := fmt.Sprintf("/v1/workers/%s/jobs/%s/result", wid, job.ID)

	result := wire.EncodeResult(cannedHist(2), "")
	for _, c := range []struct{ name, url, body string }{
		{"binary heartbeat", hbURL, "FWR1\x02\x00\x00"},
		{"object heartbeat", hbURL, `{"rounds":[{"round":1,"test_acc":0.4}]}`},
		{"binary result", resURL, "FWR1\x01\x00\x00"},
		{"truncated result", resURL, string(result[:len(result)/2])},
	} {
		if code := h.postBody(c.url, wire.ContentType, []byte(c.body), nil); code != http.StatusBadRequest {
			t.Fatalf("%s: HTTP %d, want 400", c.name, code)
		}
	}
	if hd.Status() != StatusRunning || len(hd.Rounds().Events()) != 0 {
		t.Fatalf("after refused bodies: status %s, %d rounds relayed; want running, none", hd.Status(), len(hd.Rounds().Events()))
	}
	if _, ok, _ := h.store.Get(job.ID); ok {
		t.Fatal("a refused result was stored")
	}
	if code := h.postBody(hbURL, "", nil, nil); code != http.StatusOK {
		t.Fatalf("empty heartbeat: HTTP %d, want 200", code)
	}
	if code, ack := h.upload(wid, job.ID, cannedHist(2), ""); code != http.StatusOK || ack.Status != "stored" {
		t.Fatalf("result: HTTP %d status %q", code, ack.Status)
	}
	<-hd.Done()
}

// TestCoordinatorLeaseLifecycle walks the happy path end to end: submit
// (queued) → lease (running) → heartbeat progress (published to the
// handle's feed) → result upload (persisted under the fingerprint, handle
// completes).
func TestCoordinatorLeaseLifecycle(t *testing.T) {
	h := newCoordHarness(t, CoordinatorConfig{})
	job := testJob(1)
	hd, err := h.coord.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if s := hd.Status(); s != StatusQueued {
		t.Fatalf("status %s before any lease, want queued", s)
	}

	wid := h.register(1)
	leased := h.leaseUntil(wid, 5*time.Second)
	if leased.ID != job.ID || string(leased.Spec) != string(job.Spec) {
		t.Fatalf("leased %+v, want %+v", leased, job)
	}
	if s := hd.Status(); s != StatusRunning {
		t.Fatalf("status %s at lease, want running", s)
	}
	if code := h.heartbeat(wid, job.ID, []fl.RoundStat{{Round: 1, TestAcc: 0.4}}); code != http.StatusOK {
		t.Fatalf("heartbeat: HTTP %d", code)
	}
	if rounds := hd.Rounds().Events(); len(rounds) != 1 || rounds[0].TestAcc != 0.4 {
		t.Fatalf("relayed progress: %+v", rounds)
	}
	code, ack := h.upload(wid, job.ID, cannedHist(1), "")
	if code != http.StatusOK || ack.Status != "stored" {
		t.Fatalf("upload: HTTP %d %+v", code, ack)
	}
	hist, err := waitDone(t, hd)
	if err != nil || hist.FinalAcc() != 0.51 || hd.Status() != StatusDone {
		t.Fatalf("handle result: %+v, %v, status %s", hist, err, hd.Status())
	}
	if _, ok, _ := h.store.Get(job.ID); !ok {
		t.Fatal("artifact missing from the store after upload")
	}
}

// TestWorkerCrashMidLeaseRequeues is the headline failure case: a worker
// takes a lease and dies (models a SIGKILL — no heartbeat, no
// deregistration). The lease expires and the job requeues onto the
// surviving worker, which completes it.
func TestWorkerCrashMidLeaseRequeues(t *testing.T) {
	h := newCoordHarness(t, CoordinatorConfig{LeaseTTL: 60 * time.Millisecond})
	job := testJob(2)
	hd, err := h.coord.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}

	crashed := h.register(1)
	if got := h.leaseUntil(crashed, 5*time.Second); got.ID != job.ID {
		t.Fatalf("leased %s, want %s", got.ID, job.ID)
	}
	// The crashed worker now goes silent. A survivor polls and inherits the
	// job once the lease expires.
	survivor := h.register(1)
	inherited := h.leaseUntil(survivor, 5*time.Second)
	if inherited.ID != job.ID {
		t.Fatalf("survivor inherited %s, want %s", inherited.ID, job.ID)
	}
	// Heartbeat loss is now visible to the crashed worker: its lease is gone.
	if code := h.heartbeat(crashed, job.ID, nil); code != http.StatusGone {
		t.Fatalf("crashed worker heartbeat: HTTP %d, want 410", code)
	}
	if code, ack := h.upload(survivor, job.ID, cannedHist(2), ""); code != http.StatusOK || ack.Status != "stored" {
		t.Fatalf("survivor upload: HTTP %d %+v", code, ack)
	}
	if hist, err := waitDone(t, hd); err != nil || hist == nil {
		t.Fatalf("job never recovered: %v", err)
	}
}

// TestLeaseExpiryCapFailsJob: a job that keeps losing its lease fails for
// good after MaxAttempts instead of bouncing forever.
func TestLeaseExpiryCapFailsJob(t *testing.T) {
	h := newCoordHarness(t, CoordinatorConfig{LeaseTTL: 40 * time.Millisecond, MaxAttempts: 2})
	job := testJob(3)
	hd, err := h.coord.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wid := h.register(1)
	for i := 0; i < 2; i++ {
		if got := h.leaseUntil(wid, 5*time.Second); got.ID != job.ID {
			t.Fatalf("lease %d: got %s", i, got.ID)
		}
		// go silent; the lease expires and consumes an attempt
	}
	if _, err := waitDone(t, hd); err == nil || !strings.Contains(err.Error(), "lease expired") {
		t.Fatalf("job completed with %v, want lease-expiry failure", err)
	}
}

// TestDuplicateResultUploadIdempotent: two workers racing the same
// requeued job both upload; the second ack is a no-op keyed by the
// fingerprint — one store write, one history. A duplicate whose bytes
// differ from the stored artifact is still acked, and the first artifact
// kept, but it is counted as divergent; an identical one is not.
func TestDuplicateResultUploadIdempotent(t *testing.T) {
	reg := obs.NewRegistry()
	divergent := func() float64 { return registryValues(t, reg)["fedwcm_dispatch_divergent_uploads_total"] }
	h := newCoordHarness(t, CoordinatorConfig{LeaseTTL: 60 * time.Millisecond, Metrics: reg})
	job := testJob(4)
	hd, err := h.coord.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	slow := h.register(1)
	if got := h.leaseUntil(slow, 5*time.Second); got.ID != job.ID {
		t.Fatal("first lease missing")
	}
	fast := h.register(1)
	if got := h.leaseUntil(fast, 5*time.Second); got.ID != job.ID { // after expiry
		t.Fatal("requeued lease missing")
	}
	if code, ack := h.upload(fast, job.ID, cannedHist(4), ""); code != http.StatusOK || ack.Status != "stored" {
		t.Fatalf("first upload: HTTP %d %+v", code, ack)
	}
	// The slow worker finishes the same computation later and uploads the
	// identical (content-addressed) result.
	code, ack := h.upload(slow, job.ID, cannedHist(4), "")
	if code != http.StatusOK || ack.Status != "duplicate" {
		t.Fatalf("duplicate upload: HTTP %d %+v, want 200 duplicate", code, ack)
	}
	if puts := h.store.Stats().Puts; puts != 1 {
		t.Fatalf("store saw %d puts, want exactly 1", puts)
	}
	if hist, err := waitDone(t, hd); err != nil || hist.FinalAcc() != 0.54 {
		t.Fatalf("handle: %+v, %v", hist, err)
	}
	if n := divergent(); n != 0 {
		t.Fatalf("an identical re-upload counted as divergent (%v)", n)
	}
	stored, err := os.ReadFile(h.store.Path(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	// A worker that computed other bytes for the same spec.
	if code, ack := h.upload(slow, job.ID, cannedHist(5), ""); code != http.StatusOK || ack.Status != "duplicate" {
		t.Fatalf("divergent upload: HTTP %d %+v, want 200 duplicate", code, ack)
	}
	if n := divergent(); n != 1 {
		t.Fatalf("fedwcm_dispatch_divergent_uploads_total = %v after a differing upload, want 1", n)
	}
	if after, err := os.ReadFile(h.store.Path(job.ID)); err != nil || !bytes.Equal(after, stored) {
		t.Fatalf("the divergent upload replaced the stored artifact (%v)", err)
	}
}

// TestDeregisterRequeuesCleanly: a worker shutting down gracefully hands
// its lease back immediately (no TTL wait) and the job survives even with
// a retry budget of one — clean handover does not consume an attempt.
func TestDeregisterRequeuesCleanly(t *testing.T) {
	h := newCoordHarness(t, CoordinatorConfig{LeaseTTL: 10 * time.Second, MaxAttempts: 1})
	job := testJob(5)
	hd, err := h.coord.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	leaving := h.register(1)
	if got := h.leaseUntil(leaving, 5*time.Second); got.ID != job.ID {
		t.Fatal("lease missing")
	}
	h.deregister(leaving)
	// The TTL is 10s, far beyond this test: only the deregistration can
	// have requeued the job.
	survivor := h.register(1)
	if got := h.leaseUntil(survivor, 2*time.Second); got.ID != job.ID {
		t.Fatal("job not requeued on deregistration")
	}
	if code, _ := h.upload(survivor, job.ID, cannedHist(5), ""); code != http.StatusOK {
		t.Fatalf("upload: HTTP %d", code)
	}
	if _, err := waitDone(t, hd); err != nil {
		t.Fatalf("clean handover consumed the retry budget: %v", err)
	}
}

// TestResultBackfillsUnheartbeatedRounds: a job that finishes before (or
// between) heartbeats still delivers every round to progress subscribers —
// the result upload backfills whatever the beats never carried, matching
// the local backend's progress contract.
func TestResultBackfillsUnheartbeatedRounds(t *testing.T) {
	h := newCoordHarness(t, CoordinatorConfig{})
	job := testJob(12)
	hd, err := h.coord.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wid := h.register(1)
	h.leaseUntil(wid, 5*time.Second)
	hist := &fl.History{Method: "fedavg", Stats: []fl.RoundStat{
		{Round: 1, TestAcc: 0.2}, {Round: 2, TestAcc: 0.4}, {Round: 3, TestAcc: 0.6},
	}}
	// Heartbeat only the first round, then upload the full history.
	if code := h.heartbeat(wid, job.ID, hist.Stats[:1]); code != http.StatusOK {
		t.Fatalf("heartbeat: HTTP %d", code)
	}
	if code, _ := h.upload(wid, job.ID, hist, ""); code != http.StatusOK {
		t.Fatalf("upload: HTTP %d", code)
	}
	if _, err := waitDone(t, hd); err != nil {
		t.Fatal(err)
	}
	if rounds := hd.Rounds().Events(); len(rounds) != 3 || rounds[2].Round != 3 {
		t.Fatalf("progress subscribers saw %d rounds (%+v), want the full 3", len(rounds), rounds)
	}
}

// TestAdoptedLeaseRelaysOnlyOnUpload: a worker that re-attaches mid-run
// cannot be ordered against what an earlier incarnation streamed, so the
// rounds its heartbeats carry are neither relayed nor counted as relayed —
// the upload's backfill then delivers every round, once, in order.
func TestAdoptedLeaseRelaysOnlyOnUpload(t *testing.T) {
	h := newCoordHarness(t, CoordinatorConfig{LeaseTTL: 10 * time.Second})
	job, hd := h.submit(13, SubmitOpts{})
	first := h.register(1)
	h.leaseUntil(first, 5*time.Second)
	h.deregister(first)
	hist := &fl.History{Method: "fedavg", Stats: []fl.RoundStat{{Round: 1}, {Round: 2}, {Round: 3}}}
	second := h.register(1)
	if code := h.heartbeat(second, job.ID, hist.Stats[:2]); code != http.StatusOK || h.coord.Stats().Reattached != 1 {
		t.Fatalf("heartbeat under the new id: HTTP %d, stats %+v; want the lease adopted", code, h.coord.Stats())
	}
	if rounds := hd.Rounds().Events(); len(rounds) != 0 {
		t.Fatalf("an adopted lease's heartbeat relayed rounds %v", rounds)
	}
	if code, _ := h.upload(second, job.ID, hist, ""); code != http.StatusOK {
		t.Fatalf("upload: HTTP %d", code)
	}
	if _, err := waitDone(t, hd); err != nil {
		t.Fatal(err)
	}
	if rounds := <-streamRounds(hd); !reflect.DeepEqual(rounds, []int{1, 2, 3}) {
		t.Fatalf("subscriber saw rounds %v, want 1 2 3 from the upload's backfill", rounds)
	}
}

// TestStaleErrorUploadDoesNotKillRequeuedJob: after a lease expires and
// the job moves to a survivor, the original worker's late *error* upload
// is rejected (410) instead of failing the retry — only the current lease
// holder may fail a job, while successful uploads are accepted from anyone
// (deterministic results make them interchangeable).
func TestStaleErrorUploadDoesNotKillRequeuedJob(t *testing.T) {
	h := newCoordHarness(t, CoordinatorConfig{LeaseTTL: 60 * time.Millisecond})
	job := testJob(11)
	hd, err := h.coord.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	stale := h.register(1)
	if got := h.leaseUntil(stale, 5*time.Second); got.ID != job.ID {
		t.Fatal("first lease missing")
	}
	survivor := h.register(1)
	if got := h.leaseUntil(survivor, 5*time.Second); got.ID != job.ID { // after expiry
		t.Fatal("requeued lease missing")
	}
	if code, _ := h.upload(stale, job.ID, nil, "worker-local disk full"); code != http.StatusGone {
		t.Fatalf("stale error upload: HTTP %d, want 410", code)
	}
	if code, ack := h.upload(survivor, job.ID, cannedHist(11), ""); code != http.StatusOK || ack.Status != "stored" {
		t.Fatalf("survivor upload after stale error: HTTP %d %+v", code, ack)
	}
	if hist, err := waitDone(t, hd); err != nil || hist == nil {
		t.Fatalf("stale error killed the requeued job: %v", err)
	}
}

// TestExecutionErrorFailsWithoutRetry: a worker-reported error is
// deterministic and fails the job immediately — the retry budget is for
// infrastructure loss, not diverging runs.
func TestExecutionErrorFailsWithoutRetry(t *testing.T) {
	h := newCoordHarness(t, CoordinatorConfig{})
	job := testJob(6)
	hd, err := h.coord.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wid := h.register(1)
	h.leaseUntil(wid, 5*time.Second)
	if code, ack := h.upload(wid, job.ID, nil, "diverged"); code != http.StatusOK || ack.Status != "failed" {
		t.Fatalf("error upload: HTTP %d %+v", code, ack)
	}
	if _, err := waitDone(t, hd); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("handle error %v, want the execution error", err)
	}
}

// TestCoordinatorServesFromStore is the restart case: a coordinator opened
// over a store that already holds the artifact (a previous process
// computed it) completes the submission instantly — no workers involved,
// cached cells are never re-shipped.
func TestCoordinatorServesFromStore(t *testing.T) {
	st := tstore(t)
	job := testJob(7)
	if err := st.Put(job.ID, cannedHist(7)); err != nil {
		t.Fatal(err)
	}
	h := newCoordHarness(t, CoordinatorConfig{Store: st})
	hd, err := h.coord.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := waitDone(t, hd)
	if err != nil || hist.FinalAcc() != cannedHist(7).FinalAcc() {
		t.Fatalf("cached submit: %+v, %v", hist, err)
	}
	if st := h.coord.Stats(); st.Pending != 0 || st.Leased != 0 {
		t.Fatalf("cached submit touched the queue: %+v", st)
	}
}

// TestSubmitCoalesces: identical in-flight submissions share one job — two
// while it is queued, and a third that joins after round 1 was relayed —
// and every one of them reads every round from the shared handle's feed,
// the late joiner round 1 included.
func TestSubmitCoalesces(t *testing.T) {
	h := newCoordHarness(t, CoordinatorConfig{})
	job := testJob(8)
	h1, err := h.coord.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	early := streamRounds(h1)
	h2, err := h.coord.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if st := h.coord.Stats(); st.Pending != 1 || h2 != h1 {
		t.Fatalf("coalesced submissions queued %d jobs (same handle: %t), want 1", st.Pending, h2 == h1)
	}
	wid := h.register(1)
	h.leaseUntil(wid, 5*time.Second)
	hist := &fl.History{Method: "fedavg", Stats: []fl.RoundStat{{Round: 1, TestAcc: 0.1}, {Round: 2, TestAcc: 0.2}, {Round: 3, TestAcc: 0.3}}}
	h.heartbeat(wid, job.ID, hist.Stats[:1])
	h3, err := h.coord.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if h3 != h1 || h3.Status() != StatusRunning {
		t.Fatalf("the late submission got its own handle (or status %s), want the running job's", h3.Status())
	}
	late := streamRounds(h3)
	h.heartbeat(wid, job.ID, hist.Stats[1:2])
	h.upload(wid, job.ID, hist, "")
	if _, err := waitDone(t, h1); err != nil {
		t.Fatal(err)
	}
	for who, ch := range map[string]<-chan []int{"first": early, "late": late} {
		if rounds := <-ch; !reflect.DeepEqual(rounds, []int{1, 2, 3}) {
			t.Fatalf("the %s subscriber read rounds %v, want 1 2 3", who, rounds)
		}
	}
}

// TestCoordinatorCloseFailsJobs: Close completes outstanding handles with
// ErrClosed so no submitter hangs.
func TestCoordinatorCloseFailsJobs(t *testing.T) {
	h := newCoordHarness(t, CoordinatorConfig{})
	hd, err := h.coord.Submit(testJob(9), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	h.coord.Close()
	if _, err := waitDone(t, hd); !errors.Is(err, ErrClosed) {
		t.Fatalf("handle error %v, want ErrClosed", err)
	}
	if _, err := h.coord.Submit(testJob(10), SubmitOpts{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: %v, want ErrClosed", err)
	}
}
