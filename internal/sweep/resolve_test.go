package sweep

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"fedwcm/internal/dispatch"
	"fedwcm/internal/fl"
	"fedwcm/internal/store"
)

// resolveFixture is one engine over a one-worker, one-slot local backend
// that shares the engine's store, with a runner the case can count, gate
// and fail.
type resolveFixture struct {
	st      *store.Store
	local   *dispatch.Local
	eng     *Engine
	runs    atomic.Int64
	started chan struct{} // one token per runner invocation
	gate    chan struct{} // non-nil: the runner waits for a token (or close)
	fail    atomic.Bool
}

func newResolveFixture(t *testing.T) *resolveFixture {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	f := &resolveFixture{st: st, started: make(chan struct{}, 64)}
	run := Runner(func(ctx context.Context, spec RunSpec, _ func(fl.RoundStat)) (*fl.History, error) {
		f.runs.Add(1)
		f.started <- struct{}{}
		if f.gate != nil {
			select {
			case <-f.gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if f.fail.Load() {
			return nil, errors.New("diverged")
		}
		return &fl.History{Method: spec.Method, Stats: []fl.RoundStat{{Round: 1, TestAcc: 0.5}}}, nil
	})
	f.local, err = dispatch.NewLocal(dispatch.LocalConfig{Runner: run.Dispatch(), Workers: 1, Queue: 1, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	f.eng = &Engine{Store: st, Executor: f.local}
	t.Cleanup(func() { f.local.Close(); f.eng.Close() })
	return f
}

// TestResolve pins the one cell resolver: every way a fingerprint can be
// asked for ends in a store hit, a join of the backend's job handle, or
// exactly one execution.
func TestResolve(t *testing.T) {
	cells, err := Spec{Methods: []string{"fedavg", "fedcm", "fedwcm"}, Effort: 0.1}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	await := func(t *testing.T, h dispatch.Handle) (*fl.History, error) {
		t.Helper()
		if h == nil {
			t.Fatal("want a job handle")
		}
		<-h.Done()
		return h.Result()
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, f *resolveFixture)
	}{
		{"store hit", func(t *testing.T, f *resolveFixture) {
			want := &fl.History{Method: "stored", Stats: []fl.RoundStat{{Round: 1}}}
			if err := f.st.Put(cells[0].ID, want); err != nil {
				t.Fatal(err)
			}
			hist, h, err := f.eng.Resolve(cells[0], false)
			if err != nil || h != nil || hist == nil || hist.Method != "stored" || f.runs.Load() != 0 {
				t.Fatalf("hist=%v handle=%v err=%v runs=%d, want the stored history and no execution", hist, h, err, f.runs.Load())
			}
		}},
		{"miss computes and persists once", func(t *testing.T, f *resolveFixture) {
			_, h, err := f.eng.Resolve(cells[0], false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := await(t, h); err != nil {
				t.Fatal(err)
			}
			hist, h2, err := f.eng.Resolve(cells[0], false)
			if err != nil || h2 != nil || hist == nil {
				t.Fatalf("second resolve: hist=%v handle=%v err=%v, want a hit", hist, h2, err)
			}
			// A stored job leaves no record behind once its handle is done.
			if puts, n := f.st.Stats().Puts, f.local.Records(); puts != 1 || n != 0 || f.runs.Load() != 1 {
				t.Fatalf("puts=%d records=%d runs=%d, want 1/0/1 (the backend shares the store: no second Put)", puts, n, f.runs.Load())
			}
		}},
		{"concurrent callers share one execution", func(t *testing.T, f *resolveFixture) {
			f.gate = make(chan struct{})
			const callers = 8
			handles := make([]dispatch.Handle, callers)
			var wg sync.WaitGroup
			for i := range handles {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, handles[i], _ = f.eng.Resolve(cells[0], true)
				}()
			}
			wg.Wait()
			close(f.gate)
			first, err := await(t, handles[0])
			if err != nil {
				t.Fatal(err)
			}
			for i, h := range handles {
				if hist, err := await(t, h); err != nil || hist != first {
					t.Fatalf("caller %d: hist=%p err=%v, want the shared %p", i, hist, err, first)
				}
			}
			if f.runs.Load() != 1 {
				t.Fatalf("runner invoked %d times, want 1", f.runs.Load())
			}
		}},
		{"failed then resubmitted is a fresh attempt", func(t *testing.T, f *resolveFixture) {
			f.fail.Store(true)
			_, h, err := f.eng.Resolve(cells[0], false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := await(t, h); err == nil {
				t.Fatal("want the runner's failure")
			}
			if got := f.eng.Lookup(cells[0].ID); got != h || got.Status() != dispatch.StatusFailed {
				t.Fatalf("failed record not retained for status queries: %v", got)
			}
			f.fail.Store(false)
			_, h2, err := f.eng.Resolve(cells[0], false)
			if err != nil || h2 == h {
				t.Fatalf("resubmission: handle=%p (failed %p) err=%v, want a new record", h2, h, err)
			}
			if _, err := await(t, h2); err != nil || f.runs.Load() != 2 {
				t.Fatalf("retry: err=%v runs=%d, want success on the 2nd execution", err, f.runs.Load())
			}
		}},
		{"full queue fails fast and leaves no record", func(t *testing.T, f *resolveFixture) {
			f.gate = make(chan struct{})
			defer close(f.gate)
			if _, _, err := f.eng.Resolve(cells[0], false); err != nil {
				t.Fatal(err)
			}
			<-f.started // the worker holds cell 0; the single queue slot is free
			if _, _, err := f.eng.Resolve(cells[1], false); err != nil {
				t.Fatal(err)
			}
			_, h, err := f.eng.Resolve(cells[2], false)
			if !errors.Is(err, dispatch.ErrQueueFull) || h != nil {
				t.Fatalf("handle=%v err=%v, want dispatch.ErrQueueFull", h, err)
			}
			if f.eng.Lookup(cells[2].ID) != nil {
				t.Fatal("refused submission left a stale record")
			}
		}},
		{"closed executor", func(t *testing.T, f *resolveFixture) {
			f.local.Close()
			_, h, err := f.eng.Resolve(cells[0], true)
			if !errors.Is(err, dispatch.ErrClosed) || h != nil || f.eng.Lookup(cells[0].ID) != nil {
				t.Fatalf("handle=%v err=%v, want dispatch.ErrClosed and no record", h, err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newResolveFixture(t)) })
	}
}

// TestSweepOnSharedStorePersistsOnce: a backend that already persisted into
// the engine's own store is not persisted behind again — a sweep costs one
// Put (temp file + two fsyncs) per computed cell, not two.
func TestSweepOnSharedStorePersistsOnce(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	local, err := dispatch.NewLocal(dispatch.LocalConfig{Runner: cannedRunner(&execs).Dispatch(), Workers: 2, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	eng := &Engine{Store: st, Executor: local}
	res, err := eng.RunSweep(Spec{Methods: []string{"fedavg", "fedwcm"}, SeedCount: 2, Effort: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if puts := st.Stats().Puts; res.Computed != 4 || puts != 4 {
		t.Fatalf("computed=%d puts=%d, want 4 cells persisted once each", res.Computed, puts)
	}
}
