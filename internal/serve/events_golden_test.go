package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"fedwcm/internal/fl"
	"fedwcm/internal/store"
	"fedwcm/internal/sweep"
)

// flushCounter is a ResponseWriter that records the body and counts flushes
// (each one is a write(2) on a real connection).
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() { f.flushes++ }

func getEvents(t *testing.T, s *Server, path string) *flushCounter {
	t.Helper()
	rec := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", path, rec.Code, rec.Body)
	}
	return rec
}

func neverRun(context.Context, sweep.RunSpec, func(fl.RoundStat)) (*fl.History, error) {
	return nil, errors.New("a fully cached request must not execute")
}

// The two bodies below were recorded on the commit before Feed became a
// cursor and SSE started flushing per batch (PR 20): framing, order and
// payloads of both event streams are part of the API (docs/API.md), only the
// number of flushes was allowed to change.

const cachedSweepEvents = `event: cell
data: {"id":"5c8431e671f00141777324772e1fb3f685eda938f0c0b591f0f04ea7d341a2d3","axes":{"dataset":"cifar10-syn","method":"fedavg","beta":0.1,"if":1,"clients":100,"sample_clients":10,"local_epochs":5,"seed":1},"status":"cached"}

event: cell
data: {"id":"7ab6f37197f2406185428e08a4cc6065ac251e8ecd9092a7a1fad492396d91ca","axes":{"dataset":"cifar10-syn","method":"fedavg","beta":0.1,"if":0.1,"clients":100,"sample_clients":10,"local_epochs":5,"seed":1},"status":"cached"}

event: cell
data: {"id":"82832aeb504c027a720a8fe1a882f42fb7dbc1b11098db19c79fc7a998a2be53","axes":{"dataset":"cifar10-syn","method":"fedavg","beta":0.1,"if":0.01,"clients":100,"sample_clients":10,"local_epochs":5,"seed":1},"status":"cached"}

event: cell
data: {"id":"7e2dfa65775664b4be0419ee963c8982823d9195f1499c80f5763d8246fe0958","axes":{"dataset":"cifar10-syn","method":"fedwcm","beta":0.1,"if":1,"clients":100,"sample_clients":10,"local_epochs":5,"seed":1},"status":"cached"}

event: cell
data: {"id":"b60e9f2e3961e8727d786ea4b42f8b30b3fbec9ba4bdb156d719cb8d6c0227ca","axes":{"dataset":"cifar10-syn","method":"fedwcm","beta":0.1,"if":0.1,"clients":100,"sample_clients":10,"local_epochs":5,"seed":1},"status":"cached"}

event: cell
data: {"id":"415966188952749f1277d3eeeadfd345bcca991feba3a358a064823a798aa118","axes":{"dataset":"cifar10-syn","method":"fedwcm","beta":0.1,"if":0.01,"clients":100,"sample_clients":10,"local_epochs":5,"seed":1},"status":"cached"}

event: done
data: {"id":"6dcf1265ef0876acd24ce97fa3c0b3c7589646f33f00902c94c6bfcc282e197c","status":"done","total":6,"counts":{"cached":6}}

`

func TestSweepEventsBytesForCachedSweep(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sp := sweep.Spec{Methods: []string{"fedavg", "fedwcm"}, IFs: []float64{1, 0.1, 0.01}, Effort: 0.1}
	cells, err := sp.Expand()
	if err != nil || len(cells) != 6 {
		t.Fatalf("expand: %d cells, %v", len(cells), err)
	}
	for _, c := range cells {
		h := &fl.History{Method: c.Axes.Method, Stats: []fl.RoundStat{{Round: 1, TestAcc: 0.5}}}
		if err := st.Put(c.ID, h); err != nil {
			t.Fatal(err)
		}
	}
	s, ts := newStubServer(t, Config{Store: st}, neverRun)
	_, sub := postSweep(t, ts, sp)
	if sum := waitSweepDone(t, ts, sub.ID); sum.Counts[StatusCached] != 6 {
		t.Fatalf("sweep not fully cached: %+v", sum)
	}

	rec := getEvents(t, s, "/v1/sweeps/"+sub.ID+"/events")
	if got := rec.Body.String(); got != cachedSweepEvents {
		t.Fatalf("sweep event stream changed\n--- got\n%s--- want\n%s", got, cachedSweepEvents)
	}
	// One flush for the replayed batch, one after "done" (one per event
	// before PR 20: 7).
	if rec.flushes > 2 {
		t.Fatalf("%d flushes for a finished 6-cell sweep, want at most 2", rec.flushes)
	}
}

const storedRunEvents = `event: round
data: {"round":1,"test_acc":0.25,"train_loss":2.125}

event: round
data: {"round":2,"test_acc":0.4,"per_class":[0.75,0.05],"train_loss":1.5,"metrics":{"alpha":0.3,"concentration/act1":0.125}}

event: round
data: {"round":3,"test_acc":0.6,"per_class":[1,0.2],"train_loss":1e-7,"shot":{"head":1,"medium":0.5,"tail":0.2}}

event: done
data: {"status":"cached"}

`

func TestRunEventsBytesForStoredArtifact(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	hist := &fl.History{Method: "fedwcm", Stats: []fl.RoundStat{
		{Round: 1, TestAcc: 0.25, TrainLoss: 2.125},
		{Round: 2, TestAcc: 0.4, TrainLoss: 1.5, PerClass: []float64{0.75, 0.05},
			Metrics: map[string]float64{"concentration/act1": 0.125, "alpha": 0.3}},
		{Round: 3, TestAcc: 0.6, TrainLoss: 1e-07, PerClass: []float64{1, 0.2},
			Shot: &fl.ShotAcc{Head: 1, Medium: 0.5, Tail: 0.2}},
	}}
	if err := st.Put(fp, hist); err != nil {
		t.Fatal(err)
	}
	s, _ := newStubServer(t, Config{Store: st}, neverRun)

	rec := getEvents(t, s, "/v1/runs/"+fp+"/events")
	if got := rec.Body.String(); got != storedRunEvents {
		t.Fatalf("run event stream changed\n--- got\n%s--- want\n%s", got, storedRunEvents)
	}
	// The replay of a stored artifact is one batch.
	if rec.flushes != 1 {
		t.Fatalf("%d flushes for a stored artifact's replay, want 1", rec.flushes)
	}
}

// cachedTable1Grid is a Table-1-shaped block (methods × β × IF) at two
// seeds. resultGoldenHistory is the canned history stored for cell i of its
// expansion: four evaluation points whose accuracies differ per cell, shot
// data on the final point of every cell but i = 3, so a group averages its
// shot over fewer seeds than its mean.
func cachedTable1Grid() sweep.Spec {
	return sweep.Spec{
		Name:    "table1 golden",
		Methods: []string{"fedavg", "fedwcm"},
		Betas:   []float64{0.1, 0.6},
		IFs:     []float64{1, 0.1},
		Seeds:   []uint64{1, 2},
		Effort:  0.1,
	}
}

func resultGoldenHistory(method string, i int) *fl.History {
	h := &fl.History{Method: method}
	for k := 0; k < 4; k++ {
		h.Stats = append(h.Stats, fl.RoundStat{
			Round:     k + 1,
			TestAcc:   0.3 + 0.07*float64(i%5) + 0.011*float64(k) + 0.003*float64(i),
			TrainLoss: 1.5 - 0.1*float64(k),
		})
	}
	if i != 3 {
		h.Stats[3].Shot = &fl.ShotAcc{Head: 0.9 - 0.01*float64(i), Medium: 0.5 + 0.02*float64(i%3), Tail: 0.1 + 0.013*float64(i)}
	}
	return h
}

// TestSweepResultBytesForCachedGrid pins the /result body of a cached grid
// with one failed cell (cell 5, left out of the store, fails in a canned
// runner): counts, groups in grid order, each group's mean, std and shot as
// summed in grid order, and the rendered table. Recorded on the commit
// before a cell's score replaced the second store read per cell.
func TestSweepResultBytesForCachedGrid(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sp := cachedTable1Grid()
	cells, err := sp.Expand()
	if err != nil || len(cells) != 16 {
		t.Fatalf("expand: %d cells, %v", len(cells), err)
	}
	for i, c := range cells {
		if i == 5 {
			continue
		}
		if err := st.Put(c.ID, resultGoldenHistory(c.Axes.Method, i)); err != nil {
			t.Fatal(err)
		}
	}
	failing := func(context.Context, sweep.RunSpec, func(fl.RoundStat)) (*fl.History, error) {
		return nil, errors.New("canned failure")
	}
	s, ts := newStubServer(t, Config{Store: st}, failing)
	_, sub := postSweep(t, ts, sp)
	if sum := waitSweepDone(t, ts, sub.ID); sum.Counts[StatusCached] != 15 || sum.Counts[StatusFailed] != 1 {
		t.Fatalf("sweep counts: %+v", sum)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+sub.ID+"/result", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", rec.Code, rec.Body)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "cached_sweep_result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.String(); got != string(want) {
		t.Fatalf("sweep result body changed\n--- got\n%s--- want\n%s", got, want)
	}
}
