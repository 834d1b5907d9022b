package sweep

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"fedwcm/internal/dispatch"
	"fedwcm/internal/fl"
	"fedwcm/internal/store"
)

// doneHandle is an already-completed dispatch.Handle.
type doneHandle struct {
	job  dispatch.Job
	hist *fl.History
}

func (h doneHandle) Job() dispatch.Job            { return h.job }
func (h doneHandle) Status() string               { return dispatch.StatusDone }
func (h doneHandle) Result() (*fl.History, error) { return h.hist, nil }
func (h doneHandle) Done() <-chan struct{}        { return h.Rounds().Done() }
func (h doneHandle) Rounds() *dispatch.Feed[fl.RoundStat] {
	f := dispatch.NewFeed[fl.RoundStat]()
	f.Finish()
	return f
}

// windowExec is a backend that only makes progress when submits overlap:
// every Submit waits until at least two callers have been inside it at once
// — what a group-committing journal needs to amortize its fsync — and the
// peak overlap is recorded.
type windowExec struct {
	hold time.Duration // how long a Submit stays in once overlap was seen

	mu         sync.Mutex
	overlapped *sync.Cond
	cur, peak  int
	submits    int
}

func newWindowExec(hold time.Duration) *windowExec {
	w := &windowExec{hold: hold}
	w.overlapped = sync.NewCond(&w.mu)
	return w
}

func (w *windowExec) Submit(job dispatch.Job, opts dispatch.SubmitOpts) (dispatch.Handle, error) {
	if !opts.Block {
		return nil, errors.New("sweep feeders must submit blocking")
	}
	w.mu.Lock()
	w.submits++
	w.cur++
	if w.cur > w.peak {
		w.peak = w.cur
		if w.peak >= 2 {
			w.overlapped.Broadcast()
		}
	}
	timedOut := false
	timer := time.AfterFunc(5*time.Second, func() {
		w.mu.Lock()
		timedOut = true
		w.overlapped.Broadcast()
		w.mu.Unlock()
	})
	for w.peak < 2 && !timedOut {
		w.overlapped.Wait()
	}
	timer.Stop()
	w.mu.Unlock()
	if timedOut {
		return nil, errors.New("no second submitter arrived: the driver submits one cell at a time")
	}
	time.Sleep(w.hold)
	w.mu.Lock()
	w.cur--
	w.mu.Unlock()
	return doneHandle{job, &fl.History{Method: "fake", Stats: []fl.RoundStat{{Round: 1, TestAcc: 0.5}}}}, nil
}

func (w *windowExec) Close() {}

// reportLog collects Drive's reports and checks the exactly-once contract.
type reportLog struct {
	mu     sync.Mutex
	order  []int
	status map[int]string
}

func (r *reportLog) report(t *testing.T) func(i int, status string, hist *fl.History, err error) {
	r.status = make(map[int]string)
	return func(i int, status string, hist *fl.History, err error) {
		r.mu.Lock()
		defer r.mu.Unlock()
		if prev, dup := r.status[i]; dup {
			t.Errorf("cell %d reported twice (%s, then %s)", i, prev, status)
		}
		if err != nil {
			t.Errorf("cell %d: %v", i, err)
		} else if hist == nil {
			t.Errorf("cell %d reported %s without a history", i, status)
		}
		r.status[i] = status
		r.order = append(r.order, i)
	}
}

func (r *reportLog) wantAll(t *testing.T, n int, status string) {
	t.Helper()
	if len(r.status) != n {
		t.Fatalf("%d of %d cells reported", len(r.status), n)
	}
	for i, s := range r.status {
		if s != status {
			t.Fatalf("cell %d reported %s, want %s", i, s, status)
		}
	}
}

// TestDriveSubmitsThroughBoundedWindow: misses reach the backend from more
// than one goroutine at once (a serial feeder deadlocks windowExec and fails
// by timeout), but never from more than submitWindow.
func TestDriveSubmitsThroughBoundedWindow(t *testing.T) {
	cells, err := Spec{SeedCount: 200, Effort: 0.1}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// The hold is long against the driver's hand-off, so an unbounded driver
	// would pile all 200 cells into Submit.
	exec := newWindowExec(2 * time.Millisecond)
	eng := &Engine{Executor: exec}
	var log reportLog
	live := make(map[int]bool)
	var liveMu sync.Mutex
	eng.Drive(cells, func(i int, h dispatch.Handle) {
		liveMu.Lock() // onLive is concurrent, like report
		live[i] = true
		liveMu.Unlock()
	}, log.report(t))
	log.wantAll(t, len(cells), CellComputed)
	if len(live) != len(cells) {
		t.Fatalf("onLive saw %d of %d executing cells", len(live), len(cells))
	}
	if exec.submits != len(cells) {
		t.Fatalf("%d submits for %d cells", exec.submits, len(cells))
	}
	if exec.peak < 2 || exec.peak > submitWindow {
		t.Fatalf("peak concurrent submits %d, want within [2, %d]", exec.peak, submitWindow)
	}
}

// goroutineID reads the current goroutine's id off its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := bytes.Cut(bytes.TrimPrefix(buf, []byte("goroutine ")), []byte(" "))
	return string(id)
}

// TestDriveCachedGridStaysInline: store hits never touch the window — a
// fully cached grid is reported in grid order on the caller's goroutine and
// the backend is never asked.
func TestDriveCachedGridStaysInline(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := Spec{Methods: []string{"fedavg", "fedwcm"}, SeedCount: 30, Effort: 0.1}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if err := st.Put(c.ID, &fl.History{Method: c.Axes.Method, Stats: []fl.RoundStat{{Round: 1, TestAcc: 0.5}}}); err != nil {
			t.Fatal(err)
		}
	}
	exec := newWindowExec(0)
	eng := &Engine{Store: st, Executor: exec}
	caller := goroutineID()
	var log reportLog
	report := log.report(t)
	eng.Drive(cells, func(i int, h dispatch.Handle) { t.Errorf("cell %d went live on a cached grid", i) },
		func(i int, status string, hist *fl.History, err error) {
			if g := goroutineID(); g != caller {
				t.Errorf("cell %d reported on goroutine %s, want the caller's (%s)", i, g, caller)
			}
			report(i, status, hist, err)
		})
	log.wantAll(t, len(cells), CellCached)
	for pos, i := range log.order {
		if pos != i {
			t.Fatalf("report %d was cell %d: cached cells must be reported in grid order", pos, i)
		}
	}
	if exec.submits != 0 {
		t.Fatalf("a fully cached grid submitted %d jobs", exec.submits)
	}
}

// TestDriveTricklesThroughTinyQueue: the backend's bounded queue stays the
// only back-pressure. A grid far larger than a one-slot queue still goes
// through, every feeder waiting its turn, and every cell is reported
// exactly once.
func TestDriveTricklesThroughTinyQueue(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	run := specRun(func(ctx context.Context, spec RunSpec, _ func(fl.RoundStat)) (*fl.History, error) {
		return &fl.History{Method: spec.Method, Stats: []fl.RoundStat{{Round: 1, TestAcc: 0.5}}}, nil
	})
	local, err := dispatch.NewLocal(dispatch.LocalConfig{Runner: run.runner(), Workers: 1, Queue: 1, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	eng := &Engine{Store: st, Executor: local}
	cells, err := Spec{SeedCount: 3 * submitWindow, Effort: 0.1}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var log reportLog
	eng.Drive(cells, nil, log.report(t))
	log.wantAll(t, len(cells), CellComputed)
	for _, c := range cells {
		if _, ok, err := st.Get(c.ID); !ok || err != nil {
			t.Fatalf("store lacks cell %.12s (%v)", c.ID, err)
		}
	}
	if n := local.Records(); n != 0 {
		t.Fatalf("%d records left in flight", n)
	}
}

// TestDriveBuildsEachEnvOncePerGrid: the Table 4 grid (3 methods × 2 β × 6
// IF) names 12 environments, more than a default-cap EnvCache holds, and
// Expand lists it method-major. Fed in grid order, the environments cycle
// through the cache once per method (27–36 builds); grouped by environment,
// each is built about once — the slack is the feeders' race to the queue.
// Two clients a round for one epoch keep the training, which only has to
// take time, cheap enough for ten laps under -race.
func TestDriveBuildsEachEnvOncePerGrid(t *testing.T) {
	sp := Spec{Methods: []string{"fedavg", "fedcm", "fedwcm"}, Betas: []float64{0.1, 0.6},
		IFs: []float64{1, 0.4, 0.1, 0.06, 0.04, 0.01}, Effort: 0.01,
		SampleRates: []float64{0.02}, LocalEpochs: []int{1}}
	var builds []uint64
	for rep := 0; rep < 10; rep++ {
		envs := NewEnvCache(0)
		eng := localEngine(t, nil, 2, DispatchRunner(envs))
		res, err := eng.RunSweep(sp)
		eng.Executor.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cells) != 36 {
			t.Fatalf("%d cells, want 36", len(res.Cells))
		}
		st := envs.Stats()
		if st.Misses > 16 {
			t.Fatalf("rep %d: %d environment builds for a 12-environment grid, want ≤ 16 (%+v)", rep, st.Misses, st)
		}
		builds = append(builds, st.Misses)
	}
	t.Logf("environment builds per rep: %v", builds)
}
