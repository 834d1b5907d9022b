package sweep

import (
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"

	"fedwcm/internal/dispatch"
	"fedwcm/internal/fl"
	"fedwcm/internal/store"
)

// specRun is a test runner over the decoded spec, standing in for training.
type specRun func(ctx context.Context, spec RunSpec, onRound func(fl.RoundStat)) (*fl.History, error)

// runner adapts r to the dispatch layer, as DispatchRunner adapts training.
func (r specRun) runner() dispatch.Runner {
	return func(ctx context.Context, job dispatch.Job, onRound func(fl.RoundStat)) (*fl.History, error) {
		spec, err := jobSpec(job)
		if err != nil {
			return nil, err
		}
		return r(ctx, spec, onRound)
	}
}

// localEngine is an engine over st and a dispatch.Local of workers slots
// that runs run and persists into the same store. The backend is the
// caller's to close; the test's cleanup closes it too.
func localEngine(t testing.TB, st *store.Store, workers int, run dispatch.Runner) *Engine {
	t.Helper()
	local, err := dispatch.NewLocal(dispatch.LocalConfig{Runner: run, Workers: workers, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(local.Close)
	return &Engine{Store: st, Executor: local}
}

// TestEngineDelegatesToExecutor: cells execute on the engine's Executor,
// which receives real canonical spec JSON, and results aggregate from its
// histories; the store it shares with the engine fills so the next sweep is
// cache hits.
func TestEngineDelegatesToExecutor(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var dispatched atomic.Int64
	local, err := dispatch.NewLocal(dispatch.LocalConfig{
		Workers: 2,
		Store:   st,
		Runner: func(ctx context.Context, job dispatch.Job, onRound func(fl.RoundStat)) (*fl.History, error) {
			dispatched.Add(1)
			// Decode the shipped canonical spec: the executor sees real spec
			// JSON, exactly what a remote worker would receive.
			var spec RunSpec
			if err := json.Unmarshal(job.Spec, &spec); err != nil {
				return nil, err
			}
			return &fl.History{Method: spec.Method, Stats: []fl.RoundStat{
				{Round: 1, TestAcc: 0.3}, {Round: 2, TestAcc: 0.6},
			}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	eng := &Engine{Store: st, Executor: local}
	sp := Spec{Methods: []string{"fedavg", "fedwcm"}, SeedCount: 2, Effort: 0.1}
	res, err := eng.RunSweep(sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Computed != 4 || dispatched.Load() != 4 {
		t.Fatalf("computed=%d dispatched=%d, want 4/4", res.Computed, dispatched.Load())
	}
	// The backend filed the artifacts in the shared store; a repeat sweep
	// never touches the executor again.
	res2, err := eng.RunSweep(sp)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cached != 4 || dispatched.Load() != 4 {
		t.Fatalf("repeat sweep: cached=%d dispatched=%d, want 4 cached / 4 total dispatches", res2.Cached, dispatched.Load())
	}
}

// fileOnSubmit is a backend that files want under every submitted cell's
// fingerprint in st, then forwards the submission: the cell finishing
// elsewhere between the engine's store probe and its submit.
type fileOnSubmit struct {
	*dispatch.Local
	st   *store.Store
	want *fl.History
}

func (f fileOnSubmit) Submit(job dispatch.Job, opts dispatch.SubmitOpts) (dispatch.Handle, error) {
	if err := f.st.Put(job.ID, f.want); err != nil {
		return nil, err
	}
	return f.Local.Submit(job, opts)
}

// TestResolveFindsArtifactStoredAfterProbe pins the coordinator's admission
// probe (enterLocked → cached) as the exactly-once guard: a cell that
// lands in the store after Engine.stored missed it is answered from the
// store by the submit, and never runs again.
func TestResolveFindsArtifactStoredAfterProbe(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	local, err := dispatch.NewLocal(dispatch.LocalConfig{Workers: 1, Store: st,
		Runner: func(context.Context, dispatch.Job, func(fl.RoundStat)) (*fl.History, error) {
			runs.Add(1)
			return &fl.History{Method: "recomputed", Stats: []fl.RoundStat{{Round: 1}}}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	want := &fl.History{Method: "stored elsewhere", Stats: []fl.RoundStat{{Round: 1, TestAcc: 0.5}}}
	eng := &Engine{Store: st, Executor: fileOnSubmit{local, st, want}}
	cells, err := Spec{Methods: []string{"fedavg"}, Effort: 0.1}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	hist, h, err := eng.Resolve(cells[0], false)
	if err != nil || hist != nil || h == nil {
		t.Fatalf("hist=%v handle=%v err=%v, want the probe to miss and a handle", hist, h, err)
	}
	<-h.Done()
	got, err := h.Result()
	if err != nil || got == nil || got.Method != want.Method || len(got.Stats) != 1 || got.Stats[0].TestAcc != 0.5 {
		t.Fatalf("handle carries %+v (err %v), want the stored %+v", got, err, want)
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("runner ran %d times, want 0: the stored artifact was computed again", n)
	}
}

// TestFailureSummaryGroupsErrors: failed cells collapse into one line per
// seed-zeroed axes group carrying the group's first error — what fedbench
// prints instead of a bare count.
func TestFailureSummaryGroupsErrors(t *testing.T) {
	mk := func(method string, seed uint64, status, errMsg string) CellResult {
		return CellResult{
			Cell:   Cell{Axes: Axes{Dataset: "cifar10-syn", Method: method, Seed: seed}},
			Status: status,
			Err:    errMsg,
		}
	}
	res := NewResult(Spec{}, []CellResult{
		mk("fedcm", 1, CellFailed, "diverged at round 3"),
		mk("fedcm", 2, CellFailed, "diverged at round 7"),
		mk("fedavg", 1, CellComputed, ""),
		mk("fedwcm", 1, CellFailed, "store: disk full"),
	})
	lines := res.FailureSummary()
	if len(lines) != 2 {
		t.Fatalf("summary lines: %v, want 2 (one per failed group)", lines)
	}
	if !strings.Contains(lines[0], "fedcm") || !strings.Contains(lines[0], "2 cell(s)") ||
		!strings.Contains(lines[0], "diverged at round 3") {
		t.Fatalf("fedcm group line: %q", lines[0])
	}
	if !strings.Contains(lines[1], "fedwcm") || !strings.Contains(lines[1], "disk full") {
		t.Fatalf("fedwcm group line: %q", lines[1])
	}
}
