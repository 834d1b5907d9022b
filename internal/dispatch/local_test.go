package dispatch

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
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
	var rounds, started int
	h, err := l.Submit(job, SubmitOpts{
		OnRound: func(fl.RoundStat) { rounds++ },
		OnStart: func() { started++ },
	})
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
	if rounds != 1 || started != 1 {
		t.Fatalf("rounds=%d started=%d, want 1/1", rounds, started)
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
// in-flight submissions share one execution and one handle, queued or
// already running, and each one's callbacks fire.
func TestLocalSubmitCoalesces(t *testing.T) {
	started, release := make(chan struct{}, 2), make(chan struct{})
	execs := 0
	l, err := NewLocal(LocalConfig{Workers: 1, Runner: func(ctx context.Context, job Job, onRound func(fl.RoundStat)) (*fl.History, error) {
		execs++
		started <- struct{}{}
		<-release
		onRound(fl.RoundStat{Round: 1})
		return cannedHist(0), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var rounds, starts [2]int
	var handles [2]Handle
	for i := range handles {
		handles[i], err = l.Submit(testJob(0), SubmitOpts{
			OnRound: func(fl.RoundStat) { rounds[i]++ },
			OnStart: func() { starts[i]++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-started // the second submission joins a job that is already running
		}
	}
	if handles[0] != handles[1] || l.Pending() != 0 {
		t.Fatalf("the second submission got its own handle (or was queued: %d pending)", l.Pending())
	}
	close(release)
	if _, err := waitDone(t, handles[0]); err != nil {
		t.Fatal(err)
	}
	if execs != 1 || rounds != [2]int{1, 1} || starts != [2]int{1, 1} {
		t.Fatalf("%d executions, rounds %v, starts %v; want one run reported to both", execs, rounds, starts)
	}
}
