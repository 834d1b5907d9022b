package dispatch

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fedwcm/internal/fl"
	"fedwcm/internal/store"
)

// The dispatch-overhead benchmarks measure time-to-complete for a 16-cell
// trivial sweep — the runner does no training, so the number is pure
// dispatch cost: queueing, scheduling and handle plumbing locally; plus HTTP
// leases, heartbeat wiring and artifact upload for the 2-worker remote
// backend on localhost.

const benchCells = 16

func trivialRunner(ctx context.Context, job Job, onRound func(fl.RoundStat)) (*fl.History, error) {
	return &fl.History{Method: "fedavg", Stats: []fl.RoundStat{{Round: 1, TestAcc: 0.5}}}, nil
}

// runBatch submits cells 16 distinct jobs and waits for all of them. Jobs
// are keyed by iteration so store hits never short-circuit the path under
// measurement.
func runBatch(b *testing.B, ex Executor, base int) {
	b.Helper()
	handles := make([]Handle, benchCells)
	for i := 0; i < benchCells; i++ {
		h, err := ex.Submit(testJob(base+i), SubmitOpts{Block: true})
		if err != nil {
			b.Fatal(err)
		}
		handles[i] = h
	}
	for _, h := range handles {
		<-h.Done()
		if _, err := h.Result(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDispatchLocal16Cell(b *testing.B) {
	st, err := store.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	l, err := NewLocal(LocalConfig{Runner: trivialRunner, Workers: 2, Queue: benchCells, Store: st, Logf: b.Logf})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBatch(b, l, i*benchCells)
	}
}

func BenchmarkDispatchRemote16Cell(b *testing.B) {
	st, err := store.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewCoordinator(CoordinatorConfig{Store: st, LeaseTTL: 5 * time.Second, Logf: b.Logf})
	if err != nil {
		b.Fatal(err)
	}
	mux := http.NewServeMux()
	c.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		w, err := NewWorker(WorkerConfig{
			Coordinator: ts.URL,
			Runner:      trivialRunner,
			Slots:       1,
			PollWait:    time.Second,
			Logf:        b.Logf,
		})
		if err != nil {
			b.Fatal(err)
		}
		go w.Run(ctx)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBatch(b, c, i*benchCells)
	}
}

// TestDispatchRemote16CellAllocBound: heap bytes per remote 16-cell sweep
// stay under 1.7 MB. B/op counts allocations, which do not depend on the
// machine, so a fixed bound holds on any runner and trips on a marshalling
// or buffering regression.
func TestDispatchRemote16CellAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	const bound = 1_700_000
	if b := testing.Benchmark(BenchmarkDispatchRemote16Cell).AllocedBytesPerOp(); b >= bound {
		t.Fatalf("DispatchRemote16Cell at %d B/op, want < %d", b, bound)
	}
}
