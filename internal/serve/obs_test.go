package serve

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"fedwcm/internal/dispatch"
	"fedwcm/internal/fl"
	"fedwcm/internal/store"
	"fedwcm/internal/sweep"
)

// stillSeries are the registered series that TestEverySeriesMoves' traffic —
// one local, in-memory fedserve — cannot move. Each names its reader: the
// test function, script or bench/ file that moves or reads it, and that
// mentions it by name.
var stillSeries = map[string]struct{ reason, reader string }{
	"fedwcm_dispatch_lease_expiries_total":    {"a local lease never expires", "TestCoordinatorMetricsEndToEnd"},
	"fedwcm_dispatch_requeues_total":          {"only an expiry or a deregistration requeues", "TestCoordinatorMetricsEndToEnd"},
	"fedwcm_dispatch_duplicate_uploads_total": {"one in-process worker uploads each job once", "TestCoordinatorMetricsEndToEnd"},
	"fedwcm_dispatch_divergent_uploads_total": {"one in-process worker uploads each job once", "TestDuplicateResultUploadIdempotent"},
	"fedwcm_dispatch_wal_records_total":       {"the local backend keeps no WAL", "bench/layers.go"},
	"fedwcm_dispatch_wal_checkpoints_total":   {"the local backend keeps no WAL", "TestExpiryFailuresCountTowardCheckpoint"},
	"fedwcm_worker_leases_total":              {"registered only by a remote worker process", "TestRemoteSweepSurfacesWorkerMetrics"},
	"fedwcm_worker_uploads_total":             {"registered only by a remote worker process", "TestRemoteSweepSurfacesWorkerMetrics"},
}

// TestEverySeriesMoves holds every registered series to having a reader. It
// drives one fedserve process view — the local backend on obs.Default(), where
// the fl series land whatever Config.Metrics says — through a sweep over
// churn and straggler scenarios, an async run with the collapse probe, a
// scrape taken while a run's and the sweep's event streams are open, and a
// cached re-POST of the run.
// Every series must read differently in the mid-traffic or the final scrape
// than before the traffic (a histogram through its _count), unless
// stillSeries names it with a reader that exists and mentions it.
func TestEverySeriesMoves(t *testing.T) {
	root := filepath.Join("..", "..")
	sp := sweep.Spec{
		Methods:   []string{"fedavg", "fedwcm"},
		Scenarios: []string{"churn", "stragglers"},
		Clients:   []int{4},
		Model:     "linear",
		Rounds:    3,
		Effort:    0.05,
	}
	cells, err := sp.ExpandValidated()
	if err != nil {
		t.Fatal(err)
	}
	async := tinySpec()
	async.Cfg.Async = &fl.AsyncConfig{Staleness: fl.StalePoly}
	async.Probes = []string{"collapse"}
	asyncID, err := async.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	// One slot, held by the async run after its first evaluation, so the
	// sweep's cells queue behind it. One cell is pre-stored: its cached row
	// opens the sweep's event stream before any training ends.
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(cells[0].ID, &fl.History{Stats: []fl.RoundStat{{Round: 3, TestAcc: 0.3}}}); err != nil {
		t.Fatal(err)
	}
	envs := sweep.NewEnvCache(0)
	gate := newRoundGate(asyncID)
	local, err := dispatch.NewLocal(dispatch.LocalConfig{Runner: gate.wrap(sweep.DispatchRunner(envs)), Workers: 1, Store: st, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: st, Executor: local, Envs: envs})
	release := sync.OnceFunc(func() { close(gate.release) })
	defer release() // before the server's cleanup closes it

	before := scrape(t, ts)
	if code, _ := postSpec(t, ts, async); code != http.StatusAccepted {
		t.Fatalf("async run: HTTP %d", code)
	}
	<-gate.first[asyncID]
	code, sum := postSweep(t, ts, sp)
	if code != http.StatusAccepted {
		t.Fatalf("sweep: HTTP %d", code)
	}
	runEvents := openEvents(t, ts, "/v1/runs/"+asyncID+"/events", "round")
	sweepEvents := openEvents(t, ts, "/v1/sweeps/"+sum.ID+"/events", "cell")
	mid := scrape(t, ts)
	release()
	for _, events := range []*bufio.Reader{runEvents, sweepEvents} {
		for readSSE(t, events).name != "done" {
		}
	}
	if done := waitSweepDone(t, ts, sum.ID); done.Status != StatusDone {
		t.Fatalf("sweep ended %s: %+v", done.Status, done)
	}
	code, again := postSpec(t, ts, async)
	if code != http.StatusOK || again.Status != StatusCached || again.History == nil || len(again.History.Stats) == 0 {
		t.Fatalf("re-POST of the async run: HTTP %d, status %s, history %v; want 200, cached, with history", code, again.Status, again.History)
	}
	// Probe readings are per-run: they reach the served history, and no
	// series carries them.
	for _, st := range again.History.Stats {
		if st.Metrics["concentration"] < 1 {
			t.Fatalf("served history carries %+v, want a concentration reading ≥ 1 per evaluation", again.History.Stats)
		}
	}
	after := scrape(t, ts)

	registered := registeredSeries(t, root)
	moved := map[string]bool{}
	for _, now := range []map[string]float64{mid, after} {
		for key, v := range now {
			name, _, _ := strings.Cut(key, "{")
			if base, ok := strings.CutSuffix(name, "_count"); ok && registered[base] {
				name = base
			}
			if v != before[key] {
				moved[name] = true
			}
		}
	}
	for name := range registered {
		still, listed := stillSeries[name]
		switch {
		case listed && moved[name]:
			t.Errorf("%s moved, yet stillSeries lists it (%s): drop the entry", name, still.reason)
		case !listed && !moved[name]:
			t.Errorf("%s did not move: give it a reader in stillSeries, or delete the series", name)
		}
	}
	for name, still := range stillSeries {
		switch {
		case !registered[name]:
			t.Errorf("stillSeries lists %s, which no code registers", name)
		case !strings.Contains(readerSource(t, root, still.reader), name):
			t.Errorf("stillSeries names %s as the reader of %s, but it does not mention the series", still.reader, name)
		}
	}

	// The health surface mounted alongside /metrics answers on the same mux.
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != want {
			t.Errorf("%s: HTTP %d, want %d", path, r.StatusCode, want)
		}
	}
}

// scrape GETs /metrics and parses the exposition into sample → value, keyed
// by the sample's name and labels ("name{labels}").
func scrape(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed exposition line %q", line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		samples[key] = f
	}
	return samples
}

// openEvents opens an SSE stream, reads its first event (which must be
// first) and returns the stream, still open; the test's cleanup closes it.
func openEvents(t *testing.T, ts *httptest.Server, path, first string) *bufio.Reader {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: HTTP %d", path, resp.StatusCode)
	}
	r := bufio.NewReader(resp.Body)
	if ev := readSSE(t, r); ev.name != first {
		t.Fatalf("%s: first event %q %s, want %q", path, ev.name, ev.data, first)
	}
	return r
}

// readerSource returns a series reader's text: a repo file when reader is a
// path, else the source of the test function of that name.
func readerSource(t *testing.T, root, reader string) string {
	t.Helper()
	if strings.Contains(reader, "/") {
		raw, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(reader)))
		if err != nil {
			t.Errorf("reader %s: %v", reader, err)
		}
		return string(raw)
	}
	var src string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || src != "" {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, raw, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == reader {
				src = string(raw[fset.Position(fd.Pos()).Offset:fset.Position(fd.End()).Offset])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if src == "" {
		t.Errorf("reader %s: no test function of that name", reader)
	}
	return src
}
