package dispatch

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fedwcm/internal/dispatch/wal"
	"fedwcm/internal/fl"
	"fedwcm/internal/obs"
	"fedwcm/internal/wire"
)

// uploadLease is coordHarness.upload with ?lease=1: the upload asks for the
// freed slot's next job on the ack.
func (h *coordHarness) uploadLease(wid, jobID string, hist *fl.History, errStr string) (int, resultResponse) {
	h.t.Helper()
	var resp resultResponse
	code := h.postBody(fmt.Sprintf("/v1/workers/%s/jobs/%s/result?lease=1", wid, jobID), wire.ContentType, wire.EncodeResult(hist, errStr), &resp)
	return code, resp
}

func (h *coordHarness) submit(n int, opts SubmitOpts) (Job, Handle) {
	h.t.Helper()
	job := testJob(n)
	hd, err := h.coord.Submit(job, opts)
	if err != nil {
		h.t.Fatal(err)
	}
	return job, hd
}

func (h *coordHarness) wantQueue(what string, pending, leased int) {
	h.t.Helper()
	if s := h.coord.Stats(); s.Pending != pending || s.Leased != leased {
		h.t.Fatalf("%s: %d pending / %d leased, want %d / %d", what, s.Pending, s.Leased, pending, leased)
	}
}

// TestResultAckLeasesNext is the coordinator half of complete-and-lease-next:
// an upload posted with ?lease=1 is acked with the FIFO head of the queue,
// granted exactly like a polled lease (in the uploader's in-flight set,
// OnStart fired, counted) — and only when a slot was really freed, work is
// really pending, the worker is known and the answer is a 200.
func TestResultAckLeasesNext(t *testing.T) {
	reg := obs.NewRegistry()
	h := newCoordHarness(t, CoordinatorConfig{LeaseTTL: 10 * time.Second, Metrics: reg})
	onAck := func() float64 { return registryValues(t, reg)["fedwcm_dispatch_leases_on_ack_total"] }

	j1, _ := h.submit(201, SubmitOpts{})
	started2 := 0
	j2, _ := h.submit(202, SubmitOpts{OnStart: func() { started2++ }})
	j3, _ := h.submit(203, SubmitOpts{})
	wid := h.register(1)
	if got := h.leaseUntil(wid, 5*time.Second); got.ID != j1.ID {
		t.Fatalf("polled lease %.12s, want %.12s", got.ID, j1.ID)
	}

	// The flag on a non-empty queue: stored, and the ack carries job 2.
	code, ack := h.uploadLease(wid, j1.ID, cannedHist(201), "")
	if code != http.StatusOK || ack.Status != "stored" || ack.Next == nil {
		t.Fatalf("upload with lease=1: HTTP %d %+v, want stored with a next job", code, ack)
	}
	if ack.Next.ID != j2.ID || string(ack.Next.Spec) != string(j2.Spec) {
		t.Fatalf("ack granted %.12s %q, want the queue head %.12s %q", ack.Next.ID, ack.Next.Spec, j2.ID, j2.Spec)
	}
	h.wantQueue("after the acked grant", 1, 1)
	if started2 != 1 {
		t.Fatalf("OnStart of the acked job fired %d times, want 1", started2)
	}
	if n := onAck(); n != 1 {
		t.Fatalf("fedwcm_dispatch_leases_on_ack_total = %v, want 1", n)
	}
	// The grant is a real lease: the job heartbeats under the uploader's id.
	if code := h.heartbeat(wid, j2.ID, nil); code != http.StatusOK {
		t.Fatalf("heartbeat on the acked lease: HTTP %d", code)
	}

	// No flag, no grant — hand-rolled and pre-upgrade workers see the old ack.
	if code, ack := h.upload(wid, j2.ID, cannedHist(202), ""); code != http.StatusOK || ack.Next != nil {
		t.Fatalf("upload without the flag: HTTP %d %+v, want no next", code, ack)
	}
	h.wantQueue("after an unflagged upload", 1, 0)

	// Empty queue: nothing to grant.
	if got := h.leaseUntil(wid, 5*time.Second); got.ID != j3.ID {
		t.Fatalf("polled lease %.12s, want %.12s", got.ID, j3.ID)
	}
	if code, ack := h.uploadLease(wid, j3.ID, cannedHist(203), ""); code != http.StatusOK || ack.Status != "stored" || ack.Next != nil {
		t.Fatalf("upload against an empty queue: HTTP %d %+v, want stored and no next", code, ack)
	}
	h.wantQueue("after draining", 0, 0)

	// Unknown worker: the result is accepted (whoever finishes first wins),
	// but there is no registration to hold a lease under.
	j4, _ := h.submit(204, SubmitOpts{})
	j5, _ := h.submit(205, SubmitOpts{})
	if got := h.leaseUntil(wid, 5*time.Second); got.ID != j4.ID {
		t.Fatalf("polled lease %.12s, want %.12s", got.ID, j4.ID)
	}
	if code, ack := h.uploadLease("w-999", j4.ID, cannedHist(204), ""); code != http.StatusOK || ack.Status != "stored" || ack.Next != nil {
		t.Fatalf("upload as an unknown worker: HTTP %d %+v, want stored and no next", code, ack)
	}
	h.wantQueue("after an unknown worker's upload", 1, 0)

	// At the slot cap: the single-slot worker holds job 5 and uploads job 6
	// out of the pending queue — no slot was freed, so none is refilled.
	if got := h.leaseUntil(wid, 5*time.Second); got.ID != j5.ID {
		t.Fatalf("polled lease %.12s, want %.12s", got.ID, j5.ID)
	}
	j6, _ := h.submit(206, SubmitOpts{})
	j7, hd7 := h.submit(207, SubmitOpts{})
	if code, ack := h.uploadLease(wid, j6.ID, cannedHist(206), ""); code != http.StatusOK || ack.Status != "stored" || ack.Next != nil {
		t.Fatalf("upload at the slot cap: HTTP %d %+v, want stored and no next", code, ack)
	}
	h.wantQueue("after an upload at the slot cap", 1, 1)

	// A 4xx never grants: the empty history is rejected, job 7 stays queued.
	if code, ack := h.uploadLease(wid, j5.ID, &fl.History{Method: "fedavg"}, ""); code != http.StatusBadRequest || ack.Next != nil {
		t.Fatalf("empty upload: HTTP %d %+v, want 400 and no next", code, ack)
	}
	h.wantQueue("after a rejected upload", 1, 0)

	// A failed ack is still a 200 that frees a slot: it may carry one.
	if got := h.leaseUntil(wid, 5*time.Second); got.ID != j7.ID {
		t.Fatalf("polled lease %.12s, want %.12s", got.ID, j7.ID)
	}
	j8, _ := h.submit(208, SubmitOpts{})
	code, ack = h.uploadLease(wid, j7.ID, nil, "boom")
	if code != http.StatusOK || ack.Status != "failed" || ack.Next == nil || ack.Next.ID != j8.ID {
		t.Fatalf("failed upload with lease=1: HTTP %d %+v, want failed with next %.12s", code, ack, j8.ID)
	}
	if _, err := waitDone(t, hd7); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("failed job's handle: %v", err)
	}

	// So may a duplicate ack, once the uploader has a free slot again.
	j9, _ := h.submit(209, SubmitOpts{})
	if code, ack := h.uploadLease(wid, j1.ID, cannedHist(201), ""); code != http.StatusOK || ack.Status != "duplicate" || ack.Next != nil {
		t.Fatalf("duplicate upload at the slot cap: HTTP %d %+v, want duplicate and no next", code, ack)
	}
	if code, _ := h.upload(wid, j8.ID, cannedHist(208), ""); code != http.StatusOK {
		t.Fatalf("upload: HTTP %d", code)
	}
	code, ack = h.uploadLease(wid, j1.ID, cannedHist(201), "")
	if code != http.StatusOK || ack.Status != "duplicate" || ack.Next == nil || ack.Next.ID != j9.ID {
		t.Fatalf("duplicate upload with lease=1: HTTP %d %+v, want duplicate with next %.12s", code, ack, j9.ID)
	}
	if n := onAck(); n != 3 {
		t.Fatalf("fedwcm_dispatch_leases_on_ack_total = %v, want 3 (stored, failed, duplicate)", n)
	}
}

// TestAckedLeaseIsJournaledLikeAPolledOne: the grant on the ack writes the
// same TypeLease record a poll does. Kill the coordinator after the ack and
// the job replays as leased — requeued first, its interrupted attempt
// refunded — exactly like TestCoordinatorRecoversWALJobs' polled lease.
func TestAckedLeaseIsJournaledLikeAPolledOne(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "coord.wal")
	st := tstore(t)
	mk := func() *coordHarness {
		return newCoordHarness(t, CoordinatorConfig{
			Store: st, WALPath: walPath, LeaseTTL: 10 * time.Second, MaxAttempts: 1,
		})
	}
	h1 := mk()
	ja, _ := h1.submit(221, SubmitOpts{})
	jb, _ := h1.submit(222, SubmitOpts{})
	wid := h1.register(1)
	if got := h1.leaseUntil(wid, 5*time.Second); got.ID != ja.ID {
		t.Fatalf("polled lease %.12s, want %.12s", got.ID, ja.ID)
	}
	if code, ack := h1.uploadLease(wid, ja.ID, cannedHist(221), ""); code != http.StatusOK || ack.Next == nil || ack.Next.ID != jb.ID {
		t.Fatalf("upload with lease=1: HTTP %d %+v, want next %.12s", code, ack, jb.ID)
	}
	// Crash after the ack: Close journals no completes for what it drains.
	h1.coord.Close()
	h1.ts.Close()

	lg, recov, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	lg.Close()
	// The uploaded job's last record is its complete; the acked grant's is
	// the lease a poll would have written.
	last := map[string]wal.Record{}
	for _, r := range recov.Records {
		last[r.Job] = r
	}
	if r := last[ja.ID]; r.Type != wal.TypeComplete {
		t.Fatalf("uploaded job's last record is %+v, want its complete", r)
	}
	if r := last[jb.ID]; r.Type != wal.TypeLease || r.Worker != wid || r.Attempts != 1 {
		t.Fatalf("acked grant journaled as %+v, want a lease to %s on attempt 1", r, wid)
	}

	h2 := mk()
	if s := h2.coord.Stats(); s.Recovered != 1 || s.Pending != 1 {
		t.Fatalf("recovery stats %+v, want the acked job back in the queue", s)
	}
	// MaxAttempts is 1 and the job was leased once before the crash: it can
	// only be re-leased if recovery refunded the interrupted attempt.
	wid2 := h2.register(1)
	if got := h2.leaseUntil(wid2, 5*time.Second); got.ID != jb.ID {
		t.Fatalf("re-leased %.12s, want %.12s", got.ID, jb.ID)
	}
	if code, _ := h2.upload(wid2, jb.ID, cannedHist(222), ""); code != http.StatusOK {
		t.Fatalf("upload after recovery: HTTP %d", code)
	}
}

// routeLog records every request a wrapped coordinator mux answered, and
// lets a test run a hook after the handler has written its response but
// before the server flushes it to the worker.
type routeLog struct {
	mu    sync.Mutex
	hits  []routeHit
	after func(routeHit)
}

type routeHit struct {
	method, path, query string
	code                int
}

type codeRecorder struct {
	http.ResponseWriter
	code int
}

func (c *codeRecorder) WriteHeader(code int) {
	c.code = code
	c.ResponseWriter.WriteHeader(code)
}

func (r *routeLog) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rec := &codeRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, req)
		hit := routeHit{req.Method, req.URL.Path, req.URL.RawQuery, rec.code}
		r.mu.Lock()
		r.hits = append(r.hits, hit)
		after := r.after
		r.mu.Unlock()
		if after != nil {
			after(hit)
		}
	})
}

// count returns how many recorded requests match.
func (r *routeLog) count(match func(routeHit) bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, h := range r.hits {
		if match(h) {
			n++
		}
	}
	return n
}

func isUpload(h routeHit) bool { return strings.HasSuffix(h.path, "/result") }
func isLease(h routeHit) bool  { return strings.HasSuffix(h.path, "/lease") }

// newLoggedHarness is newCoordHarness with the mux behind a routeLog.
func newLoggedHarness(t *testing.T, cfg CoordinatorConfig) (*coordHarness, *routeLog) {
	t.Helper()
	rl := &routeLog{}
	return newWrappedCoordHarness(t, cfg, rl.wrap), rl
}

// TestSlotDrainsQueueOnOneLeasePoll is the worker half: with work queued, a
// slot polls for its first job only — every later one arrives on the ack of
// the upload before it, and counts as a lease all the same.
func TestSlotDrainsQueueOnOneLeasePoll(t *testing.T) {
	creg, wreg := obs.NewRegistry(), obs.NewRegistry()
	h, rl := newLoggedHarness(t, CoordinatorConfig{LeaseTTL: 10 * time.Second, Metrics: creg})
	const n = 6
	var handles []Handle
	for i := 0; i < n; i++ {
		_, hd := h.submit(230+i, SubmitOpts{})
		handles = append(handles, hd)
	}
	w, err := NewWorker(WorkerConfig{
		Coordinator: h.ts.URL, Runner: echoRunner(nil), Slots: 1,
		PollWait: 200 * time.Millisecond, Logf: t.Logf, Metrics: wreg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	for i, hd := range handles {
		if hist, err := waitDone(t, hd); err != nil || hist.FinalAcc() != cannedHist(230+i).FinalAcc() {
			t.Fatalf("job %d: %+v, %v", i, hist, err)
		}
	}
	cancel()
	<-done

	if got := rl.count(func(r routeHit) bool { return isLease(r) && r.code == http.StatusOK }); got != 1 {
		t.Fatalf("%d lease polls were answered with a job, want exactly 1", got)
	}
	if got := rl.count(func(r routeHit) bool { return isUpload(r) && r.query == "lease=1" && r.code == http.StatusOK }); got != n {
		t.Fatalf("%d uploads asked for the next job, want %d", got, n)
	}
	if got := registryValues(t, creg)["fedwcm_dispatch_leases_on_ack_total"]; got != n-1 {
		t.Fatalf("fedwcm_dispatch_leases_on_ack_total = %v, want %d", got, n-1)
	}
	wm := registryValues(t, wreg)
	if wm["fedwcm_worker_leases_total"] != n || wm[`fedwcm_worker_uploads_total{status="stored"}`] != n {
		t.Fatalf("worker counted %v leases / %v stored uploads, want %d each (an acked lease is a lease)",
			wm["fedwcm_worker_leases_total"], wm[`fedwcm_worker_uploads_total{status="stored"}`], n)
	}
}

// TestShuttingDownWorkerDoesNotAskForMore: a worker whose context is
// cancelled mid-run still ships the finished result, but without lease=1 —
// it must not be handed work it is about to walk away from.
func TestShuttingDownWorkerDoesNotAskForMore(t *testing.T) {
	h, rl := newLoggedHarness(t, CoordinatorConfig{LeaseTTL: 10 * time.Second})
	running, release := make(chan struct{}, 1), make(chan struct{})
	cancel, exited := runWorker(t, h.ts.URL, 1, func(ctx context.Context, job Job, onRound func(fl.RoundStat)) (*fl.History, error) {
		running <- struct{}{}
		<-release // finishes regardless of ctx: the work is done, ship it
		return cannedHist(241), nil
	})
	_, hd := h.submit(241, SubmitOpts{})
	h.submit(242, SubmitOpts{})
	select {
	case <-running:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never started the job")
	}
	cancel()
	close(release)
	if _, err := waitDone(t, hd); err != nil {
		t.Fatal(err)
	}
	<-exited // every answered request is in the route log once the worker is gone
	if got := rl.count(func(r routeHit) bool { return isUpload(r) && r.query == "" }); got != 1 {
		t.Fatalf("%d uploads without lease=1, want 1", got)
	}
	if got := rl.count(func(r routeHit) bool { return isUpload(r) && r.query != "" }); got != 0 {
		t.Fatalf("%d uploads asked for more work during shutdown, want 0", got)
	}
	h.wantQueue("after the shutdown upload", 1, 0)
}

// TestAckedJobHandedBackOnShutdown: the ack granted a job, but the worker
// was cancelled before the slot could start it. The job stays leased to the
// worker until deregistration hands it back — without consuming an attempt.
func TestAckedJobHandedBackOnShutdown(t *testing.T) {
	h, rl := newLoggedHarness(t, CoordinatorConfig{LeaseTTL: 10 * time.Second, MaxAttempts: 1})
	_, hd1 := h.submit(251, SubmitOpts{})
	j2, _ := h.submit(252, SubmitOpts{})
	// Cancel between ack and execute: the hook runs after the coordinator
	// wrote the ack (grant included) and before the server flushes it.
	var cancel context.CancelFunc
	armed := make(chan struct{})
	rl.mu.Lock()
	rl.after = func(r routeHit) {
		if isUpload(r) {
			<-armed
			cancel()
		}
	}
	rl.mu.Unlock()
	cancel, exited := runWorker(t, h.ts.URL, 1, echoRunner(nil))
	close(armed)
	if _, err := waitDone(t, hd1); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never exited")
	}
	if got := rl.count(func(r routeHit) bool { return isUpload(r) && r.query == "lease=1" }); got != 1 {
		t.Fatalf("%d uploads with lease=1, want 1 (the worker was healthy when it uploaded)", got)
	}
	if got := rl.count(isUpload); got != 1 {
		t.Fatalf("%d uploads, want 1 (the acked job must not have run)", got)
	}
	h.wantQueue("after deregistration", 1, 0)
	// MaxAttempts is 1 and the ack's grant consumed it: the job is leasable
	// again only because the handover refunded the attempt.
	if got := h.leaseUntil(h.register(1), 5*time.Second); got.ID != j2.ID {
		t.Fatalf("handed-back job: re-leased %.12s, want %.12s", got.ID, j2.ID)
	}
}

// TestAckedJobRunsUnderUploadingID: a worker that had to re-register mid-job
// (the coordinator forgot it) uploads under its new id, and the job the ack
// grants was granted to that id — so that is the id it must run under, not
// the one the slot originally leased with.
func TestAckedJobRunsUnderUploadingID(t *testing.T) {
	h, rl := newLoggedHarness(t, CoordinatorConfig{LeaseTTL: 10 * time.Second})
	running, release := make(chan struct{}, 2), make(chan struct{})
	w, err := NewWorker(WorkerConfig{
		Coordinator: h.ts.URL, Slots: 1, PollWait: 200 * time.Millisecond,
		HeartbeatEvery: 20 * time.Millisecond, Logf: t.Logf,
		Runner: func(ctx context.Context, job Job, onRound func(fl.RoundStat)) (*fl.History, error) {
			running <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return echoRunner(nil)(ctx, job, onRound)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	defer func() { cancel(); <-done }()

	j1, hd1 := h.submit(261, SubmitOpts{})
	select {
	case <-running:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never started the job")
	}
	// What a coordinator restart leaves behind: the registration is gone and
	// the job is back in the queue, while the worker keeps computing. The
	// test, not the worker, deregisters the worker's id — the worker stays
	// ignorant, and its next heartbeat 404s, re-registers and adopts.
	var oldID string
	rl.mu.Lock()
	for _, r := range rl.hits {
		if isLease(r) {
			oldID = strings.Split(r.path, "/")[3] // /v1/workers/{id}/lease
		}
	}
	rl.mu.Unlock()
	h.deregister(oldID)
	deadline := time.Now().Add(10 * time.Second)
	for h.coord.Stats().Reattached == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never re-attached: %+v", h.coord.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	j2, hd2 := h.submit(262, SubmitOpts{})
	close(release)
	for _, hd := range []Handle{hd1, hd2} {
		if _, err := waitDone(t, hd); err != nil {
			t.Fatal(err)
		}
	}
	w.mu.Lock()
	newID := w.id
	w.mu.Unlock()
	cancel()
	<-done // every answered request is in the route log once the worker is gone
	if newID == oldID {
		t.Fatalf("worker still registered as %s", oldID)
	}
	uploadAs := func(wid string, job Job) func(routeHit) bool {
		return func(r routeHit) bool {
			return r.path == fmt.Sprintf("/v1/workers/%s/jobs/%s/result", wid, job.ID) && r.code == http.StatusOK
		}
	}
	if rl.count(uploadAs(newID, j1)) != 1 {
		t.Fatalf("job 1 was not uploaded as the re-registered %s", newID)
	}
	if rl.count(uploadAs(newID, j2)) != 1 || rl.count(uploadAs(oldID, j2)) != 0 {
		t.Fatalf("the acked job must upload as %s (the id it was granted to), never as %s", newID, oldID)
	}
	if got := rl.count(func(r routeHit) bool { return isLease(r) && r.code == http.StatusOK }); got != 1 {
		t.Fatalf("%d polled leases, want 1 (job 2 must have arrived on job 1's ack)", got)
	}
}
