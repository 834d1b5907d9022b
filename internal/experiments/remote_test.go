package experiments_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fedwcm/internal/dispatch"
	"fedwcm/internal/experiments"
	"fedwcm/internal/fl"
	"fedwcm/internal/serve"
	"fedwcm/internal/store"
	"fedwcm/internal/sweep"
)

// newRemote starts a fedserve over a fresh store behind httptest, with
// front (when set) wrapping its handler. A non-nil runner replaces training
// in a two-slot local backend over that store.
func newRemote(t *testing.T, runner dispatch.Runner, front func(next http.Handler) http.Handler) string {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.Config{Store: st, Workers: 2, Logf: t.Logf}
	if runner != nil {
		if cfg.Executor, err = dispatch.NewLocal(dispatch.LocalConfig{Runner: runner, Workers: 2, Store: st, Logf: t.Logf}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var h http.Handler = s
	if front != nil {
		h = front(s)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts.URL
}

// execute runs experiment id and returns its output.
func execute(t *testing.T, id string, opt experiments.Options) string {
	t.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	opt.Seed, opt.Effort, opt.Out = 2, 0.08, &buf
	if _, err := e.Execute(opt); err != nil {
		t.Fatalf("%s: %v\n%s", id, err, buf.String())
	}
	return buf.String()
}

// TestRemoteRendersLikeLocal: an experiment run on a server through
// Options.Remote renders the text a local Execute renders — a probe series
// (fig4), per-class accuracy (fig8) and per-history final/best (abl_parts).
// The counts are the server's: a second remote run is all server-side cache
// hits. Fetched histories land in Options.Store, so a local run over that
// store computes nothing.
func TestRemoteRendersLikeLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs skipped in -short mode")
	}
	base := newRemote(t, nil, nil)
	for _, id := range []string{"fig4", "fig8", "abl_parts"} {
		t.Run(id, func(t *testing.T) {
			local := execute(t, id, experiments.Options{})
			cache, err := store.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			first := execute(t, id, experiments.Options{Remote: base, Store: cache})
			if !strings.Contains(first, " 0 cached,") {
				t.Fatalf("first remote run found cells cached:\n%s", first)
			}
			second := execute(t, id, experiments.Options{Remote: base})
			if !strings.Contains(second, " 0 computed;") {
				t.Fatalf("second remote run recomputed cells:\n%s", second)
			}
			fromCache := execute(t, id, experiments.Options{Store: cache})
			if !strings.Contains(fromCache, " 0 computed;") {
				t.Fatalf("remote histories were not put into the local store:\n%s", fromCache)
			}
			for _, out := range []string{first, second, fromCache} {
				if experiments.Tail(out) != experiments.Tail(local) {
					t.Fatalf("remote run rendered differently:\nlocal:\n%s\nremote:\n%s", local, out)
				}
			}
		})
	}
}

// cannedRunner returns a one-evaluation history for every spec, and an
// error for method fail.
func cannedRunner(fail string) dispatch.Runner {
	return func(_ context.Context, job dispatch.Job, _ func(fl.RoundStat)) (*fl.History, error) {
		var spec sweep.RunSpec
		if err := json.Unmarshal(job.Spec, &spec); err != nil {
			return nil, err
		}
		if spec.Method == fail {
			return nil, errors.New("canned failure")
		}
		return &fl.History{Method: spec.Method, Stats: []fl.RoundStat{{Round: 1, TestAcc: 0.5}}}, nil
	}
}

// TestRemoteRetriesShedSubmit: a 503 with no Retry-After (what a server
// shutting down answers) is retried after remotePoll, and a base URL with a
// trailing slash still reaches the API.
func TestRemoteRetriesShedSubmit(t *testing.T) {
	var posts atomic.Int64
	base := newRemote(t, cannedRunner(""), func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.Method == http.MethodPost && req.URL.Path == "/v1/sweeps" && posts.Add(1) == 1 {
				http.Error(w, `{"error":"server shutting down"}`, http.StatusServiceUnavailable)
				return
			}
			next.ServeHTTP(w, req)
		})
	})
	start := time.Now()
	out := execute(t, "abl_parts", experiments.Options{Remote: base + "/"})
	if waited := time.Since(start); waited < 250*time.Millisecond {
		t.Fatalf("retried after %v, want at least the 250 ms poll interval", waited)
	}
	if n := posts.Load(); n != 2 {
		t.Fatalf("%d sweep submissions, want 2", n)
	}
	if !strings.Contains(out, "4 cells — 0 cached, 4 computed") {
		t.Fatalf("unexpected status line:\n%s", out)
	}
}

// TestRemoteFailedCellFailsExecute: a cell that fails on the server makes
// Execute return an error, and the output names the failed group.
func TestRemoteFailedCellFailsExecute(t *testing.T) {
	base := newRemote(t, cannedRunner("fedcm"), nil)
	e, err := experiments.ByID("abl_parts")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err = e.Execute(experiments.Options{Seed: 2, Effort: 0.08, Remote: base, Out: &buf})
	if err == nil {
		t.Fatalf("a failed remote cell did not fail Execute:\n%s", buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "1/4 cells FAILED") || !strings.Contains(out, "/fedcm ") || !strings.Contains(out, "canned failure") {
		t.Fatalf("output does not name the failed group:\n%s", out)
	}
}

// TestRemoteSurvivesServerRestart: the server the grid was posted to goes
// away mid-poll — the next polls find their connections dropped (more than
// one, as http.Transport retries a GET once on its own) — and a fresh
// server over the same store answers in its place, with no record of the
// sweep. The client re-posts the grid once, polls the same id on, and
// renders what a local run renders, after exactly two POSTs.
func TestRemoteSurvivesServerRestart(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	start := func() *serve.Server {
		s, err := serve.New(serve.Config{Store: st, Workers: 2, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	first, restarted := start(), start()
	var posts, polls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodPost && req.URL.Path == "/v1/sweeps" && posts.Add(1) == 1 {
			first.ServeHTTP(w, req)
			return
		}
		if req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/v1/sweeps/") && polls.Add(1) <= 3 {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close() // the first server dies with the poll unanswered
			return
		}
		restarted.ServeHTTP(w, req)
	}))
	t.Cleanup(ts.Close)

	local := execute(t, "fig4", experiments.Options{})
	remote := execute(t, "fig4", experiments.Options{Remote: ts.URL})
	if n := posts.Load(); n != 2 {
		t.Fatalf("%d sweep submissions, want 2", n)
	}
	if experiments.Tail(remote) != experiments.Tail(local) {
		t.Fatalf("remote run across a restart rendered differently:\nlocal:\n%s\nremote:\n%s", local, remote)
	}
}
