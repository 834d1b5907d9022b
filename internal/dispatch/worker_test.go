package dispatch

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"fedwcm/internal/fl"
)

// startWorker runs a real Worker against the harness coordinator and
// returns its cancel func; cleanup waits for the run loop to exit.
func startWorker(t *testing.T, h *coordHarness, runner Runner, slots int) context.CancelFunc {
	t.Helper()
	cancel, _ := runWorker(t, h.ts.URL, slots, runner)
	return cancel
}

// runWorker is startWorker that also returns a channel closed once Run has
// returned (deregistration included). A request reaches a routeLog before
// its response reaches the worker, so after exited every exchange the worker
// saw answered is in the log.
func runWorker(t *testing.T, coordinator string, slots int, runner Runner) (cancel context.CancelFunc, exited <-chan struct{}) {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		Coordinator: coordinator,
		Runner:      runner,
		Slots:       slots,
		PollWait:    200 * time.Millisecond,
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
			t.Error("worker never exited")
		}
	})
	return cancel, done
}

// echoRunner decodes the job's spec as {"cell":N} and returns cannedHist(N)
// — a deterministic function of the job, like real training is.
func echoRunner(execs *atomic.Int64) Runner {
	return func(ctx context.Context, job Job, onRound func(fl.RoundStat)) (*fl.History, error) {
		if execs != nil {
			execs.Add(1)
		}
		var spec struct {
			Cell int `json:"cell"`
		}
		if err := json.Unmarshal(job.Spec, &spec); err != nil {
			return nil, err
		}
		h := cannedHist(spec.Cell)
		if onRound != nil {
			for _, st := range h.Stats {
				onRound(st)
			}
		}
		return h, nil
	}
}

// TestWorkersDrainJobQueue fans a batch of jobs across two real workers;
// every handle completes with the job's own history and every artifact
// lands in the store. The second worker joins the way an operator types it
// (-join http://host:8080/): the trailing slash must not cost it its
// registration.
func TestWorkersDrainJobQueue(t *testing.T) {
	h := newCoordHarness(t, CoordinatorConfig{LeaseTTL: 2 * time.Second})
	var execs atomic.Int64
	startWorker(t, h, echoRunner(&execs), 1)
	runWorker(t, h.ts.URL+"/", 1, echoRunner(&execs))
	for deadline := time.Now().Add(5 * time.Second); h.coord.Stats().Workers != 2; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 2 workers registered", h.coord.Stats().Workers)
		}
		time.Sleep(5 * time.Millisecond)
	}

	const n = 8
	handles := make([]Handle, n)
	for i := 0; i < n; i++ {
		var err error
		handles[i], err = h.coord.Submit(testJob(i), SubmitOpts{Block: true})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, hd := range handles {
		hist, err := waitDone(t, hd)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if want := cannedHist(i).FinalAcc(); hist.FinalAcc() != want {
			t.Fatalf("job %d returned acc %v, want %v", i, hist.FinalAcc(), want)
		}
		if _, ok, _ := h.store.Get(testJob(i).ID); !ok {
			t.Fatalf("job %d artifact missing from store", i)
		}
	}
	if got := execs.Load(); got != n {
		t.Fatalf("workers executed %d jobs, want %d", got, n)
	}
}

// TestKilledWorkerJobMovesToSurvivor kills a real worker mid-job: its
// runner hangs and its heartbeats are configured away, so from the
// coordinator's view the process is dead. The lease expires and the
// surviving worker completes the job.
func TestKilledWorkerJobMovesToSurvivor(t *testing.T) {
	h := newCoordHarness(t, CoordinatorConfig{LeaseTTL: 80 * time.Millisecond})

	// The victim: leases, then hangs forever without heartbeating — the
	// observable behaviour of a SIGKILLed process holding a lease.
	hang := make(chan struct{})
	victim, err := NewWorker(WorkerConfig{
		Coordinator:    h.ts.URL,
		Slots:          1,
		PollWait:       100 * time.Millisecond,
		HeartbeatEvery: time.Hour,
		Logf:           t.Logf,
		Runner: func(ctx context.Context, job Job, onRound func(fl.RoundStat)) (*fl.History, error) {
			<-hang
			return nil, context.Canceled
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	victimCtx, victimCancel := context.WithCancel(context.Background())
	victimDone := make(chan struct{})
	go func() { defer close(victimDone); victim.Run(victimCtx) }()
	t.Cleanup(func() {
		close(hang)
		victimCancel()
		<-victimDone
	})

	job := testJob(42)
	hd, err := h.coord.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the victim holds the lease before the survivor exists, so
	// the requeue is provably what hands the job over.
	deadline := time.Now().Add(5 * time.Second)
	for h.coord.Stats().Leased != 1 {
		if time.Now().After(deadline) {
			t.Fatal("victim never leased the job")
		}
		time.Sleep(5 * time.Millisecond)
	}

	startWorker(t, h, echoRunner(nil), 1)
	hist, err := waitDone(t, hd)
	if err != nil {
		t.Fatalf("job did not recover from the killed worker: %v", err)
	}
	if want := cannedHist(42).FinalAcc(); hist.FinalAcc() != want {
		t.Fatalf("recovered history acc %v, want %v", hist.FinalAcc(), want)
	}
}

// TestWorkerShutdownDeregisters: cancelling a worker's context mid-job
// hands the lease back via deregistration; with a retry budget of one the
// job still completes on the survivor, proving the handover consumed no
// attempt.
func TestWorkerShutdownDeregisters(t *testing.T) {
	h := newCoordHarness(t, CoordinatorConfig{LeaseTTL: 10 * time.Second, MaxAttempts: 1})

	leased := make(chan struct{}, 1)
	cancel := startWorker(t, h, func(ctx context.Context, job Job, onRound func(fl.RoundStat)) (*fl.History, error) {
		leased <- struct{}{}
		<-ctx.Done() // train "forever" until shut down
		return nil, ctx.Err()
	}, 1)

	job := testJob(43)
	hd, err := h.coord.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-leased:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never leased the job")
	}
	cancel() // SIGTERM path: abort the run, deregister

	// The lease TTL is 10s; only deregistration can requeue within the test
	// budget. The survivor finishes the job.
	startWorker(t, h, echoRunner(nil), 1)
	if _, err := waitDone(t, hd); err != nil {
		t.Fatalf("job lost across graceful worker shutdown: %v", err)
	}
}

// TestJitterStaysWithinBounds pins the jitter envelope: every sample lands
// in [0.8d, 1.2d) and the samples actually spread (a constant factor would
// defeat the desynchronization it exists for).
func TestJitterStaysWithinBounds(t *testing.T) {
	d := time.Second
	lo, hi := d, d
	for i := 0; i < 1000; i++ {
		j := jitter(d)
		if j < 800*time.Millisecond || j >= 1200*time.Millisecond {
			t.Fatalf("jitter(%v) = %v, outside [800ms, 1200ms)", d, j)
		}
		lo, hi = min(lo, j), max(hi, j)
	}
	if hi-lo < 100*time.Millisecond {
		t.Fatalf("1000 jitter samples spread only [%v, %v]; expected a wide spread", lo, hi)
	}
}
