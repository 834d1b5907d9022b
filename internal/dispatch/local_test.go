package dispatch

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"fedwcm/internal/fl"
	"fedwcm/internal/store"
)

// testJob builds a job whose ID is a real fingerprint (the store rejects
// anything else) over a tiny opaque spec document.
func testJob(n int) Job {
	spec := []byte(fmt.Sprintf(`{"cell":%d}`, n))
	sum := sha256.Sum256(spec)
	return Job{ID: hex.EncodeToString(sum[:]), Spec: spec}
}

// cannedHist is a minimal valid history (the store refuses empty ones).
func cannedHist(n int) *fl.History {
	return &fl.History{Method: "fedavg", Stats: []fl.RoundStat{{Round: 1, TestAcc: 0.5 + float64(n)/100}}}
}

func tstore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func waitDone(t *testing.T, h Handle) (*fl.History, error) {
	t.Helper()
	select {
	case <-h.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %.12s never completed", h.Job().ID)
	}
	return h.Result()
}

func TestLocalRunsAndPersists(t *testing.T) {
	st := tstore(t)
	l, err := NewLocal(LocalConfig{
		Store: st,
		Runner: func(ctx context.Context, job Job, onRound func(fl.RoundStat)) (*fl.History, error) {
			h := cannedHist(1)
			if onRound != nil {
				for _, s := range h.Stats {
					onRound(s)
				}
			}
			return h, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	job := testJob(1)
	h, err := l.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := waitDone(t, h)
	if err != nil || hist == nil || hist.FinalAcc() != 0.51 {
		t.Fatalf("result: %+v, %v", hist, err)
	}
	// Persisted before the handle completed: the store is the artifact
	// exchange, so a completed handle implies a servable artifact.
	if _, ok, err := st.Get(job.ID); err != nil || !ok {
		t.Fatalf("artifact not persisted: ok=%v err=%v", ok, err)
	}
	if rounds, status := h.Rounds().Events(), h.Status(); len(rounds) != 1 || status != StatusDone {
		t.Fatalf("rounds=%v status=%s, want 1 round, done", rounds, status)
	}
}

// streamRounds follows h's feed on its own goroutine; the channel yields the
// round numbers it read once the feed finishes.
func streamRounds(h Handle) <-chan []int {
	out := make(chan []int, 1)
	go func() {
		var rounds []int
		h.Rounds().Stream(context.Background(), func(batch []fl.RoundStat) {
			for _, st := range batch {
				rounds = append(rounds, st.Round)
			}
		})
		out <- rounds
	}()
	return out
}

// waitRounds blocks until h's feed holds n rounds.
func waitRounds(t *testing.T, h Handle, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	seen := 0
	h.Rounds().Stream(ctx, func(batch []fl.RoundStat) {
		if seen += len(batch); seen >= n {
			cancel()
		}
	})
	if seen < n {
		t.Fatalf("job %.12s relayed %d rounds, want %d", h.Job().ID, seen, n)
	}
}

// blockingTestRunner holds jobs open until released, honouring ctx like
// the real runner does (fl checks ctx between rounds).
type blockingTestRunner struct {
	started chan string
	release chan struct{}
}

func newBlockingTestRunner() *blockingTestRunner {
	return &blockingTestRunner{started: make(chan string, 16), release: make(chan struct{})}
}

func (b *blockingTestRunner) run(ctx context.Context, job Job, onRound func(fl.RoundStat)) (*fl.History, error) {
	b.started <- job.ID
	select {
	case <-b.release:
		return cannedHist(0), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func TestLocalQueueFullAndBlocking(t *testing.T) {
	br := newBlockingTestRunner()
	l, err := NewLocal(LocalConfig{Runner: br.run, Workers: 1, Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	h0, err := l.Submit(testJob(0), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	<-br.started // job 0 occupies the single worker
	if _, err := l.Submit(testJob(1), SubmitOpts{}); err != nil {
		t.Fatalf("queued submission refused: %v", err)
	}
	// Queue of one is full: fail fast without Block.
	if _, err := l.Submit(testJob(2), SubmitOpts{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-queue submit: %v, want ErrQueueFull", err)
	}
	// With Block the same submission waits for space instead.
	done := make(chan Handle, 1)
	go func() {
		h, err := l.Submit(testJob(2), SubmitOpts{Block: true})
		if err != nil {
			t.Errorf("blocking submit: %v", err)
		}
		done <- h
	}()
	select {
	case <-done:
		t.Fatal("blocking submit returned while the queue was full")
	case <-time.After(50 * time.Millisecond):
	}
	close(br.release) // workers drain; space frees; the blocked submit lands
	h2 := <-done
	if _, err := waitDone(t, h2); err != nil {
		t.Fatalf("blocked-then-accepted job failed: %v", err)
	}
	if _, err := waitDone(t, h0); err != nil {
		t.Fatal(err)
	}
}

// TestLocalCloseCancelsInFlight is the graceful-shutdown contract: Close
// cancels the running job via context (it completes with the context
// error) and fails queued jobs with ErrClosed, so no handle is ever
// abandoned.
func TestLocalCloseCancelsInFlight(t *testing.T) {
	br := newBlockingTestRunner()
	l, err := NewLocal(LocalConfig{Runner: br.run, Workers: 1, Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	running, _ := l.Submit(testJob(0), SubmitOpts{})
	<-br.started
	queued, _ := l.Submit(testJob(1), SubmitOpts{})

	closed := make(chan struct{})
	go func() { l.Close(); close(closed) }()
	if _, err := waitDone(t, running); !errors.Is(err, context.Canceled) {
		t.Fatalf("running job completed with %v, want context.Canceled", err)
	}
	if _, err := waitDone(t, queued); !errors.Is(err, ErrClosed) {
		t.Fatalf("queued job completed with %v, want ErrClosed", err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	if _, err := l.Submit(testJob(2), SubmitOpts{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: %v, want ErrClosed", err)
	}
}

// TestLocalSubmitCoalesces: Local runs the Coordinator's queue, so identical
// in-flight submissions share one execution and one handle, and a
// submission that joins after round 1 was relayed still reads round 1, then
// the rest, from the handle's feed.
func TestLocalSubmitCoalesces(t *testing.T) {
	release := make(chan struct{})
	execs := 0
	l, err := NewLocal(LocalConfig{Workers: 1, Runner: func(ctx context.Context, job Job, onRound func(fl.RoundStat)) (*fl.History, error) {
		execs++
		onRound(fl.RoundStat{Round: 1})
		<-release
		onRound(fl.RoundStat{Round: 2})
		return &fl.History{Method: "fedavg", Stats: []fl.RoundStat{{Round: 1}, {Round: 2}}}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var handles [2]Handle
	for i := range handles {
		if handles[i], err = l.Submit(testJob(0), SubmitOpts{}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			waitRounds(t, handles[0], 1) // the second submission joins a running job, after round 1
		}
	}
	if handles[0] != handles[1] || l.Pending() != 0 || handles[1].Status() != StatusRunning {
		t.Fatalf("the second submission got its own handle (or was queued: %d pending, status %s)", l.Pending(), handles[1].Status())
	}
	late := streamRounds(handles[1])
	close(release)
	if _, err := waitDone(t, handles[0]); err != nil {
		t.Fatal(err)
	}
	if got := <-late; execs != 1 || !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("%d executions, the late joiner read rounds %v; want one run, rounds 1 2", execs, got)
	}
}

// TestUnstorableHistoryIsRetainedDone: a history the store refuses (a NaN
// loss, which JSON cannot encode, so every Put fails) still ends its job
// done with the history. The coordinator keeps the handle: Lookup finds it,
// and a second submission joins it instead of computing the cell again.
func TestUnstorableHistoryIsRetainedDone(t *testing.T) {
	st := tstore(t)
	execs := 0
	l, err := NewLocal(LocalConfig{Store: st, Workers: 1, Runner: func(ctx context.Context, job Job, onRound func(fl.RoundStat)) (*fl.History, error) {
		execs++
		return &fl.History{Method: "fedavg", Stats: []fl.RoundStat{{Round: 1, TestAcc: 0.5, TrainLoss: math.NaN()}}}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	job := testJob(30)
	h, err := l.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if hist, err := waitDone(t, h); err != nil || hist == nil || h.Status() != StatusDone {
		t.Fatalf("result %+v, %v, status %s; want done with its history", hist, err, h.Status())
	}
	if _, ok, _ := st.Get(job.ID); ok {
		t.Fatal("the NaN history was stored; the test needs a failed persist")
	}
	if got := l.Lookup(job.ID); got != h {
		t.Fatalf("Lookup = %v, want the retained done handle", got)
	}
	again, err := l.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if hist, _ := again.Result(); again != h || hist == nil || execs != 1 || l.Records() != 1 {
		t.Fatalf("resubmission: same handle %t, history %v, %d executions, %d records; want the retained one, 1, 1",
			again == h, hist, execs, l.Records())
	}
}

// TestFailedJobIsRetainedUntilResubmitted: a job whose worker reported an
// error is kept as failed for Lookup, and a resubmission is a fresh attempt
// that replaces it.
func TestFailedJobIsRetainedUntilResubmitted(t *testing.T) {
	execs := 0
	l, err := NewLocal(LocalConfig{Store: tstore(t), Workers: 1, Runner: func(ctx context.Context, job Job, onRound func(fl.RoundStat)) (*fl.History, error) {
		if execs++; execs == 1 {
			return nil, errors.New("diverged")
		}
		return cannedHist(31), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	job := testJob(31)
	h, err := l.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waitDone(t, h); err == nil || h.Status() != StatusFailed {
		t.Fatalf("first attempt: err %v, status %s; want the worker's failure", err, h.Status())
	}
	if got := l.Lookup(job.ID); got != h {
		t.Fatalf("Lookup = %v, want the retained failed handle", got)
	}
	retry, err := l.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if retry == h {
		t.Fatal("the resubmission joined the failed record")
	}
	if _, err := waitDone(t, retry); err != nil || execs != 2 || retry.Status() != StatusDone {
		t.Fatalf("retry: err %v, %d executions, status %s; want success on the 2nd", err, execs, retry.Status())
	}
	if got := l.Lookup(job.ID); got != nil || l.Records() != 0 {
		t.Fatalf("Lookup = %v with %d records after a stored retry, want nothing held", got, l.Records())
	}
}
