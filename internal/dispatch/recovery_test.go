package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedwcm/internal/dispatch/wal"
	"fedwcm/internal/fl"
	"fedwcm/internal/obs"
	"fedwcm/internal/wire"
)

// TestCoordinatorRecoversWALJobs is the tentpole contract: a WAL-backed
// coordinator that dies with queued and leased jobs comes back with every
// non-terminal job re-entered, pending in submission order — the previously
// leased job, submitted first, leases first and without having consumed an
// attempt — and once the jobs complete, a third incarnation recovers
// nothing.
func TestCoordinatorRecoversWALJobs(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "coord.wal")
	st := tstore(t)
	// maxAttempts: 1: the job is leased once before the crash, and recovery
	// starts every job with no attempts used.
	mk := func() *coordHarness {
		return newCoordHarness(t, CoordinatorConfig{
			Store: st, WALPath: walPath, LeaseTTL: 10 * time.Second, maxAttempts: 1,
		})
	}

	h1 := mk()
	jobs := []Job{testJob(31), testJob(32), testJob(33)}
	for _, j := range jobs {
		if _, err := h1.coord.Submit(j, SubmitOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	wid := h1.register(1)
	if leased := h1.leaseUntil(wid, 5*time.Second); leased.ID != jobs[0].ID {
		t.Fatalf("leased %.12s, want the FIFO head %.12s", leased.ID, jobs[0].ID)
	}
	// Crash: Close drains in-memory state, and the log keeps the submits — a
	// shutdown is not a completion.
	h1.coord.Close()
	h1.ts.Close()

	h2 := mk()
	stats := h2.coord.Stats()
	if !stats.Durable || stats.Recovered != 3 || stats.Pending != 3 {
		t.Fatalf("recovery stats %+v, want durable with 3 recovered pending jobs", stats)
	}
	// The interrupted lease holder is at the front of the queue, spec intact.
	wid2 := h2.register(3)
	first := h2.leaseUntil(wid2, 5*time.Second)
	if first.ID != jobs[0].ID {
		t.Fatalf("first recovered lease is %.12s, want the previously leased %.12s", first.ID, jobs[0].ID)
	}
	if string(first.Spec) != string(jobs[0].Spec) {
		t.Fatalf("spec lost in replay: %q != %q", first.Spec, jobs[0].Spec)
	}
	// A resubmission (the restarted server re-POSTing its sweep) coalesces
	// onto the recovered job instead of queueing a duplicate.
	hd, err := h2.coord.Submit(jobs[1], SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if s := h2.coord.Stats(); s.Pending != 2 {
		t.Fatalf("resubmission did not coalesce: %+v", s)
	}
	if code, ack := h2.upload(wid2, first.ID, cannedHist(31), ""); code != http.StatusOK || ack.Status != "stored" {
		t.Fatalf("upload after recovery: HTTP %d %+v", code, ack)
	}
	for i := 0; i < 2; i++ {
		j := h2.leaseUntil(wid2, 5*time.Second)
		if code, _ := h2.upload(wid2, j.ID, cannedHist(30), ""); code != http.StatusOK {
			t.Fatalf("upload %.12s: HTTP %d", j.ID, code)
		}
	}
	if _, err := waitDone(t, hd); err != nil {
		t.Fatalf("coalesced handle on recovered job: %v", err)
	}
	h2.coord.Close()
	h2.ts.Close()

	h3 := mk()
	if s := h3.coord.Stats(); s.Recovered != 0 || s.Pending != 0 {
		t.Fatalf("third incarnation recovered %+v, want a drained log", s)
	}
}

// TestRecoveryDropsJobsAlreadyStored: the store, not the log, is the record
// of completion, so a replayed job whose artifact exists is dropped.
func TestRecoveryDropsJobsAlreadyStored(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "coord.wal")
	st := tstore(t)
	jobA, jobB := testJob(34), testJob(35)
	lg, _, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Append(
		wal.Record{Type: wal.TypeSubmit, Job: jobA.ID, Spec: jobA.Spec},
		wal.Record{Type: wal.TypeSubmit, Job: jobB.ID, Spec: jobB.Spec},
	); err != nil {
		t.Fatal(err)
	}
	lg.Close()
	if err := st.Put(jobA.ID, cannedHist(34)); err != nil {
		t.Fatal(err)
	}

	h := newCoordHarness(t, CoordinatorConfig{Store: st, WALPath: walPath})
	if s := h.coord.Stats(); s.Recovered != 1 || s.Pending != 1 {
		t.Fatalf("stats %+v, want only the unstored job recovered", s)
	}
	hd, err := h.coord.Submit(jobA, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if hist, err := waitDone(t, hd); err != nil || hist == nil {
		t.Fatalf("stored job should complete from the store: %v", err)
	}
}

// TestTransitionLogReplaysSubmitsOnly opens a log in the format coordinators
// wrote while they journaled every job transition (testdata/transitions.wal).
// Its history, jobs testJob(61..66):
//
//	61  a compacted submit carrying Attempts: 2
//	62  leased, completed "stored" — its artifact is in the store
//	63  leased, requeued by expiry, leased again
//	64  leased, completed "failed"
//	65  leased, handed over (requeued with its attempt refunded)
//	66  submitted last, leased when the log ends
//
// Every submitted job the store does not hold comes back pending, in
// submission order, with no attempts; the stored one does not.
func TestTransitionLogReplaysSubmitsOnly(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "transitions.wal"))
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(t.TempDir(), "coord.wal")
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st := tstore(t)
	if err := st.Put(testJob(62).ID, cannedHist(62)); err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(CoordinatorConfig{Store: st, WALPath: walPath, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var want []string
	for _, n := range []int{61, 63, 64, 65, 66} {
		want = append(want, testJob(n).ID+"/0")
	}
	c.mu.Lock()
	got := fifoOf(c.q)
	c.mu.Unlock()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered FIFO %v, want %v", got, want)
	}
	if s := c.Stats(); s.Recovered != 5 || s.Pending != 5 || s.Leased != 0 {
		t.Fatalf("recovery stats %+v, want 5 recovered, all pending", s)
	}
}

// TestWorkerErrorJobRunsAgainAfterRestart: the log records what was
// accepted and the store what finished, so a job that failed with a worker
// error since the last checkpoint is neither — it comes back pending after a
// restart and runs again, as a resubmission would.
func TestWorkerErrorJobRunsAgainAfterRestart(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "coord.wal")
	st := tstore(t)
	mk := func() *coordHarness {
		return newCoordHarness(t, CoordinatorConfig{Store: st, WALPath: walPath, LeaseTTL: 10 * time.Second})
	}
	h1 := mk()
	job, hd := h1.submit(67, SubmitOpts{})
	wid := h1.register(1)
	h1.leaseUntil(wid, 5*time.Second)
	if code, ack := h1.upload(wid, job.ID, nil, "boom"); code != http.StatusOK || ack.Status != "failed" {
		t.Fatalf("error upload: HTTP %d %+v", code, ack)
	}
	if _, err := waitDone(t, hd); err == nil {
		t.Fatal("the job did not fail")
	}
	h1.coord.Close()
	h1.ts.Close()

	h2 := mk()
	if s := h2.coord.Stats(); s.Recovered != 1 || s.Pending != 1 {
		t.Fatalf("recovery stats %+v, want the failed job pending again", s)
	}
	wid2 := h2.register(1)
	if got := h2.leaseUntil(wid2, 5*time.Second); got.ID != job.ID {
		t.Fatalf("leased %.12s after the restart, want %.12s", got.ID, job.ID)
	}
}

// TestCheckpointKeepsJobsNotYetStored: a checkpoint that runs while a
// finished job's Put is still in flight keeps the job's submit, so a crash
// before the Put lands recovers the job instead of losing it.
func TestCheckpointKeepsJobsNotYetStored(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "coord.wal")
	st := tstore(t)
	mk := func() *coordHarness {
		return newCoordHarness(t, CoordinatorConfig{Store: st, WALPath: walPath, LeaseTTL: 10 * time.Second})
	}
	h1 := mk()
	job, _ := h1.submit(68, SubmitOpts{})
	wid := h1.register(1)
	h1.leaseUntil(wid, 5*time.Second)
	// What result does before its Put: the job leaves the queue, its handle
	// is retained. Another job's completion checkpoints meanwhile.
	h1.coord.mu.Lock()
	j, fx, err := h1.coord.q.finish(time.Now(), wid, job.ID, outcomeStored)
	if err != nil {
		t.Fatal(err)
	}
	h1.coord.retained[job.ID] = j.h
	h1.coord.settleLocked(fx)
	h1.coord.mu.Unlock()
	h1.coord.checkpoint()
	h1.coord.Close() // the crash: the Put never ran
	h1.ts.Close()

	h2 := mk()
	if s := h2.coord.Stats(); s.Recovered != 1 || s.Pending != 1 {
		t.Fatalf("recovery stats %+v, want the unstored job recovered", s)
	}
}

// TestCorruptWALFailsStartup: damage before the log's tail means
// acknowledged history was lost — the coordinator must refuse to start
// rather than silently serve a partial queue.
func TestCorruptWALFailsStartup(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "coord.wal")
	lg, _, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []Job{testJob(36), testJob(37)} {
		if err := lg.Append(wal.Record{Type: wal.TypeSubmit, Job: j.ID, Spec: j.Spec}); err != nil {
			t.Fatal(err)
		}
	}
	lg.Close()
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0x04 // inside the first record: mid-file damage
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(CoordinatorConfig{Store: tstore(t), WALPath: walPath, Logf: t.Logf}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("NewCoordinator on corrupt WAL: %v, want ErrCorrupt", err)
	}
}

// TestSubmitRacingWorkerNeverDoubleBooksJob is bug (i) end to end: while a
// durable Submit waits for its record's fsync, a worker that is already
// running the job heartbeats (even rounds) or uploads its result (odd
// rounds) as fast as it can. The job must never be leased before it is
// durable and queued as well, nor queued after the upload finished it: one
// live job is at most one of pending / leased, and none once its handle is
// done.
func TestSubmitRacingWorkerNeverDoubleBooksJob(t *testing.T) {
	h := newCoordHarness(t, CoordinatorConfig{
		WALPath: filepath.Join(t.TempDir(), "coord.wal"), LeaseTTL: 10 * time.Second, Logf: func(string, ...any) {},
	})
	wid := h.register(8)
	for round := 0; round < 60; round++ {
		job := testJob(700 + round)
		url, body := h.ts.URL+"/v1/workers/"+wid+"/jobs/"+job.ID+"/heartbeat", []byte(nil)
		if round%2 == 1 {
			url, body = h.ts.URL+"/v1/workers/"+wid+"/jobs/"+job.ID+"/result", wire.EncodeResult(cannedHist(round), "")
		}
		stop, spun := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(spun)
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(url, wire.ContentType, bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
		hd, err := h.coord.Submit(job, SubmitOpts{})
		close(stop)
		<-spun
		if err != nil {
			t.Fatal(err)
		}
		if s := h.coord.Stats(); s.Pending+s.Leased > 1 {
			t.Fatalf("round %d: one live job is %d pending and %d leased", round, s.Pending, s.Leased)
		}
		if code, _ := h.upload(wid, job.ID, cannedHist(round), ""); code != http.StatusOK {
			t.Fatalf("round %d: upload: HTTP %d", round, code)
		}
		if _, err := waitDone(t, hd); err != nil {
			t.Fatal(err)
		}
		if s := h.coord.Stats(); s.Pending+s.Leased != 0 {
			t.Fatalf("round %d: the job is done and %d pending, %d leased remain", round, s.Pending, s.Leased)
		}
	}
}

// TestExpiryFailuresCountTowardCheckpoint is bug (ii): a job that exhausts
// maxAttempts by lease expiry is as terminal as an uploaded one, and counts
// toward walCompactEvery like one.
func TestExpiryFailuresCountTowardCheckpoint(t *testing.T) {
	reg := obs.NewRegistry()
	h := newCoordHarness(t, CoordinatorConfig{
		WALPath: filepath.Join(t.TempDir(), "coord.wal"), LeaseTTL: 40 * time.Millisecond,
		maxAttempts: 1, walCompactEvery: 2, Metrics: reg,
	})
	checkpoints := func() float64 { return registryValues(t, reg)["fedwcm_dispatch_wal_checkpoints_total"] }
	if n := checkpoints(); n != 1 {
		t.Fatalf("%v checkpoints after startup, want 1", n)
	}
	wid := h.register(2)
	var handles []Handle
	for _, n := range []int{721, 722} {
		_, hd := h.submit(n, SubmitOpts{})
		h.leaseUntil(wid, 5*time.Second)
		handles = append(handles, hd)
	}
	for _, hd := range handles { // the worker goes silent; each job's only attempt expires
		if _, err := waitDone(t, hd); err == nil || !strings.Contains(err.Error(), "lease expired") {
			t.Fatalf("job completed with %v, want lease-expiry failure", err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); checkpoints() != 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%v checkpoints after two jobs failed by expiry, want 2", checkpoints())
		}
	}
}

// serveCoord serves c's worker protocol on l — a coordinator "process" a
// test can kill (srv.Close, c.Close) and restart on the same address.
func serveCoord(c *Coordinator, l net.Listener) *http.Server {
	mux := http.NewServeMux()
	c.Mount(mux)
	srv := &http.Server{Handler: mux}
	go srv.Serve(l)
	return srv
}

// TestWorkerReattachesAcrossCoordinatorRestart is the end-to-end crash
// story with a real Worker: the coordinator dies mid-computation and a new
// one on the same address + WAL + store takes over. The worker — still
// computing the job — hits 404, re-registers, and its next heartbeat adopts
// the recovered lease, so the job finishes with EXACTLY ONE execution.
func TestWorkerReattachesAcrossCoordinatorRestart(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "coord.wal")
	st := tstore(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	mkCoord := func() *Coordinator {
		c, err := NewCoordinator(CoordinatorConfig{
			Store: st, WALPath: walPath, LeaseTTL: 2 * time.Second, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	c1 := mkCoord()
	srv1 := serveCoord(c1, ln)

	var execs atomic.Int64
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	runner := func(ctx context.Context, job Job, onRound func(fl.RoundStat)) (*fl.History, error) {
		execs.Add(1)
		started <- struct{}{}
		select {
		case <-release:
			return cannedHist(41), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	w, err := NewWorker(WorkerConfig{
		Coordinator: "http://" + addr, Runner: runner,
		PollWait: 200 * time.Millisecond, HeartbeatEvery: 50 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() { defer close(workerDone); w.Run(wctx) }()
	defer func() {
		wcancel()
		select {
		case <-workerDone:
		case <-time.After(10 * time.Second):
			t.Error("worker never exited")
		}
	}()

	job := testJob(41)
	if _, err := c1.Submit(job, SubmitOpts{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never started the job")
	}

	// "SIGKILL" the coordinator: tear down its listener and drop it. Close
	// journals no completes, so the WAL still says the job is leased.
	srv1.Close()
	c1.Close()

	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	c2 := mkCoord()
	defer c2.Close()
	if s := c2.Stats(); !s.Durable || s.Recovered != 1 || s.Pending != 1 {
		t.Fatalf("restart recovered %+v, want the in-flight job back in the queue", s)
	}
	srv2 := serveCoord(c2, ln2)
	defer srv2.Close()

	// The restarted server's sweep layer would re-POST the sweep; the
	// resubmission coalesces onto the recovered job.
	hd, err := c2.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to discover the restart (heartbeat 404 →
	// re-register → heartbeat adoption), then let the computation finish.
	deadline := time.Now().Add(10 * time.Second)
	for c2.Stats().Reattached == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never re-attached: %+v", c2.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(release)
	hist, err := waitDone(t, hd)
	if err != nil || hist == nil || hist.FinalAcc() != cannedHist(41).FinalAcc() {
		t.Fatalf("recovered job result: %+v, %v", hist, err)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("runner executed %d times, want exactly 1 (adoption, not recompute)", n)
	}
	if _, ok, _ := st.Get(job.ID); !ok {
		t.Fatal("artifact missing from the store after re-attached upload")
	}
}

// TestCoordinatorKilledMidSweepWithDeepQueue is the crash story at sweep
// depth: a WAL-backed coordinator is "SIGKILLed" (listener torn down,
// coordinator dropped without journaling completes — the crash signature
// the smoke test produces with a real kill -9) while a 40-job sweep has
// cells done, cells leased and most of the queue still pending, then
// restarted on the same address + WAL + store. The resubmitted sweep must
// finish with every cell completing exactly once and every artifact
// byte-identical to a local-backend run of the same jobs.
//
// Execution (not completion) is at-least-once by design: a worker whose
// upload window straddles the crash abandons the job, the recovered lease
// expires, and a retry recomputes it — the idempotent content-addressed
// upload still completes the cell once. The choreography keeps the kill
// window narrow enough that a duplicate execution stays the rare case, and
// asserts it never exceeds the one-retry budget.
func TestCoordinatorKilledMidSweepWithDeepQueue(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "coord.wal")
	st := tstore(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	mkCoord := func() *Coordinator {
		c, err := NewCoordinator(CoordinatorConfig{
			Store: st, WALPath: walPath, LeaseTTL: 5 * time.Second, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Deterministic runner whose artifact derives from the spec alone, so a
	// local-backend reference run must produce byte-identical store files.
	var execMu sync.Mutex
	execs := map[string]int{}
	slowCounting := func(ctx context.Context, job Job, onRound func(fl.RoundStat)) (*fl.History, error) {
		execMu.Lock()
		execs[job.ID]++
		execMu.Unlock()
		select {
		case <-time.After(30 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return echoRunner(nil)(ctx, job, onRound)
	}

	const n = 40
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = testJob(i)
	}

	c1 := mkCoord()
	srv1 := serveCoord(c1, ln)

	// Three slots over two workers, slow enough that the sweep is genuinely
	// mid-flight when the kill lands.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i, slots := range []int{2, 1} {
		w, err := NewWorker(WorkerConfig{
			Coordinator: "http://" + addr, Runner: slowCounting, Name: "w" + string(rune('0'+i)),
			Slots: slots, PollWait: 250 * time.Millisecond, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(ctx) }()
	}
	defer func() { cancel(); wg.Wait() }()

	for _, j := range jobs {
		if _, err := c1.Submit(j, SubmitOpts{}); err != nil {
			t.Fatal(err)
		}
	}

	// Wait until the sweep is mid-flight: several cells done, every slot
	// holding a lease, most of the queue still pending.
	stored := func() int {
		k := 0
		for _, j := range jobs {
			if _, ok, _ := st.Get(j.ID); ok {
				k++
			}
		}
		return k
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		done, s := stored(), c1.Stats()
		if done >= 4 && done <= n-12 && s.Leased == 3 && s.Pending >= 8 {
			break
		}
		if done > n-12 {
			t.Fatalf("sweep drained to %d/%d before the kill window", done, n)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never got mid-flight (%d/%d done, %+v)", done, n, s)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// "SIGKILL": Close journals no completes, so the WAL still carries every
	// unfinished job — the on-disk state a real kill -9 leaves behind.
	killedAt := c1.Stats()
	srv1.Close()
	c1.Close()
	t.Logf("coordinator killed with %d/%d cells stored, %d leased, %d pending", stored(), n, killedAt.Leased, killedAt.Pending)

	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	c2 := mkCoord()
	defer c2.Close()
	if s := c2.Stats(); !s.Durable || s.Recovered == 0 {
		t.Fatalf("restarted coordinator recovered %+v, want journaled jobs back", s)
	}
	srv2 := serveCoord(c2, ln2)
	defer srv2.Close()
	t.Logf("coordinator restarted: %d jobs recovered", c2.Stats().Recovered)

	// The orchestration layer re-submits the sweep after a backend restart;
	// resubmissions coalesce onto recovered (or already-stored) jobs.
	handles := make([]Handle, n)
	for i, j := range jobs {
		if handles[i], err = c2.Submit(j, SubmitOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range handles {
		if _, err := waitDone(t, h); err != nil {
			t.Fatalf("cell %d (%.12s) after the restart: %v", i, h.Job().ID, err)
		}
	}

	// Byte-identity: run the same jobs on the local backend and compare the
	// artifact files bit for bit.
	refStore := tstore(t)
	local, err := NewLocal(LocalConfig{Store: refStore, Workers: 2, Runner: echoRunner(nil), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	for _, j := range jobs {
		h, err := local.Submit(j, SubmitOpts{Block: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := waitDone(t, h); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		got, err := os.ReadFile(st.Path(j.ID))
		if err != nil {
			t.Fatalf("artifact %.12s missing after recovery: %v", j.ID, err)
		}
		want, err := os.ReadFile(refStore.Path(j.ID))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("artifact %.12s differs from the local-backend run", j.ID)
		}
	}

	// Exactly-once completion, bounded re-execution: every cell ran, and no
	// cell burned more than one crash retry.
	execMu.Lock()
	defer execMu.Unlock()
	for _, j := range jobs {
		switch k := execs[j.ID]; {
		case k == 0:
			t.Errorf("cell %.12s never executed", j.ID)
		case k > 2:
			t.Errorf("cell %.12s executed %d times; the crash budget is one retry", j.ID, k)
		}
	}
}

// TestRelayOrderingUnderUploadRace is the regression for the progress-relay
// race: a slow subscriber reading the feed while a heartbeat relay and the
// result upload's backfill publish into it concurrently. Per-job delivery is
// serialized, so every subscriber must observe rounds 1..N strictly in
// order, no duplicates, no interleaving — under the race detector this also
// proves the relay state is properly guarded.
func TestRelayOrderingUnderUploadRace(t *testing.T) {
	h := newCoordHarness(t, CoordinatorConfig{LeaseTTL: 10 * time.Second})
	const rounds = 8
	for iter := 0; iter < 10; iter++ {
		job := testJob(500 + iter)
		hd, err := h.coord.Submit(job, SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		slowSub := make(chan []int, 1)
		go func() {
			var got []int
			hd.Rounds().Stream(context.Background(), func(batch []fl.RoundStat) {
				time.Sleep(time.Millisecond) // widen the race window
				for _, st := range batch {
					got = append(got, st.Round)
				}
			})
			slowSub <- got
		}()
		wid := h.register(1)
		h.leaseUntil(wid, 5*time.Second)
		hist := &fl.History{Method: "fedavg"}
		for r := 1; r <= rounds; r++ {
			hist.Stats = append(hist.Stats, fl.RoundStat{Round: r, TestAcc: float64(r) / 10})
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); h.heartbeat(wid, job.ID, hist.Stats[:3]) }()
		go func() { defer wg.Done(); h.upload(wid, job.ID, hist, "") }()
		wg.Wait()
		if _, err := waitDone(t, hd); err != nil {
			t.Fatal(err)
		}
		seen := <-slowSub
		if len(seen) != rounds {
			t.Fatalf("iter %d: subscriber saw %d rounds (%v), want %d exactly once each", iter, len(seen), seen, rounds)
		}
		for i, r := range seen {
			if r != i+1 {
				t.Fatalf("iter %d: rounds out of order at %d: %v", iter, i, seen)
			}
		}
	}
}

// TestRegisterAcceptsEmptyBody: POST /v1/workers with no body at all is a
// valid registration with defaults — the documented curl flow must work.
func TestRegisterAcceptsEmptyBody(t *testing.T) {
	h := newCoordHarness(t, CoordinatorConfig{})
	resp, err := http.Post(h.ts.URL+"/v1/workers", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("empty-body register: HTTP %d, want 201", resp.StatusCode)
	}
	var reg registerResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	if reg.ID == "" || reg.Slots != 1 {
		t.Fatalf("empty-body registration %+v, want an id with 1 default slot", reg)
	}
	// The registration is fully functional: it can lease and finish a job.
	job := testJob(61)
	if _, err := h.coord.Submit(job, SubmitOpts{}); err != nil {
		t.Fatal(err)
	}
	if leased := h.leaseUntil(reg.ID, 5*time.Second); leased.ID != job.ID {
		t.Fatalf("empty-body worker leased %.12s, want %.12s", leased.ID, job.ID)
	}
	if code, _ := h.upload(reg.ID, job.ID, cannedHist(61), ""); code != http.StatusOK {
		t.Fatalf("upload from empty-body worker: HTTP %d", code)
	}
	// Malformed (non-empty) JSON still 400s.
	resp2, err := http.Post(h.ts.URL+"/v1/workers", "application/json", strings.NewReader(`{"slots":`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed register: HTTP %d, want 400", resp2.StatusCode)
	}
}

// TestDeregisterTimesOutOnWedgedCoordinator: the clean-handover DELETE is
// bounded — a coordinator that accepts the connection and never answers
// must not hang worker shutdown (the lease lapses instead).
func TestDeregisterTimesOutOnWedgedCoordinator(t *testing.T) {
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer func() { close(block); ts.Close() }()
	w, err := NewWorker(WorkerConfig{Coordinator: ts.URL, Runner: echoRunner(nil), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	w.id = "w-wedged"
	w.mu.Unlock()
	start := time.Now()
	w.deregister()
	if elapsed := time.Since(start); elapsed > deregisterTimeout+5*time.Second {
		t.Fatalf("deregister took %v against a wedged coordinator, want ~%v", elapsed, deregisterTimeout)
	}
}

// TestInMemoryCoordinatorReportsNotDurable sanity-checks the no-WAL
// default: coordinators without WALPath behave exactly as before and
// report Durable: false.
func TestInMemoryCoordinatorReportsNotDurable(t *testing.T) {
	h := newCoordHarness(t, CoordinatorConfig{})
	if s := h.coord.Stats(); s.Durable || s.Recovered != 0 {
		t.Fatalf("in-memory coordinator reports durability: %+v", s)
	}
}
