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

// TestEngineDelegatesToExecutor: with an Executor set, cells execute on
// that backend (the engine's own Runner must never fire), results aggregate
// exactly as its own backend's would, and the engine's store — a different
// instance from the backend's — still fills so the next sweep is cache hits.
func TestEngineDelegatesToExecutor(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var dispatched atomic.Int64
	local, err := dispatch.NewLocal(dispatch.LocalConfig{
		Workers: 2,
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

	inline := int64(0)
	eng := &Engine{
		Store:    st,
		Workers:  2,
		Executor: local,
		Runner: func(ctx context.Context, spec RunSpec, onRound func(fl.RoundStat)) (*fl.History, error) {
			atomic.AddInt64(&inline, 1)
			t.Error("inline runner fired despite Executor being set")
			return nil, nil
		},
	}
	sp := Spec{Methods: []string{"fedavg", "fedwcm"}, SeedCount: 2, Effort: 0.1}
	res, err := eng.RunSweep(sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Computed != 4 || dispatched.Load() != 4 || atomic.LoadInt64(&inline) != 0 {
		t.Fatalf("computed=%d dispatched=%d inline=%d, want 4/4/0", res.Computed, dispatched.Load(), inline)
	}
	// Artifacts landed in the engine's store; a repeat sweep never touches
	// the executor again.
	res2, err := eng.RunSweep(sp)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cached != 4 || dispatched.Load() != 4 {
		t.Fatalf("repeat sweep: cached=%d dispatched=%d, want 4 cached / 4 total dispatches", res2.Cached, dispatched.Load())
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
