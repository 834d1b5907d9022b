package sweep

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fedwcm/internal/dispatch"
	"fedwcm/internal/fl"
	"fedwcm/internal/store"
)

// TestProgressMatchesAcrossTopologies: one spec, run on the local backend
// and on a coordinator with an HTTP worker, reports the same round feed on
// its handle — the same rounds in the same order, each the same JSON down to
// the per-class accuracies. The runner waits after every round until the
// submitter has read it from the feed, so on the remote leg every round
// travels in a heartbeat rather than in the result upload's backfill: a
// heartbeat must carry progress as exactly as the upload carries the
// history.
func TestProgressMatchesAcrossTopologies(t *testing.T) {
	spec := goldenSpec("fedwcm")
	spec.Cfg.EvalEvery = 1
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	job := dispatch.Job{ID: fp, Spec: raw}

	// seen hands each relayed round back to the runner that recorded it.
	seen := make(chan struct{}, 64)
	inner := DispatchRunner(NewEnvCache(0))
	runner := func(ctx context.Context, job dispatch.Job, onRound func(fl.RoundStat)) (*fl.History, error) {
		return inner(ctx, job, func(st fl.RoundStat) {
			onRound(st)
			select {
			case <-seen:
			case <-ctx.Done():
			}
		})
	}
	stream := func(ex dispatch.Executor) []string {
		t.Helper()
		var rounds []string
		h, err := ex.Submit(job, dispatch.SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		finished := h.Rounds().Stream(ctx, func(batch []fl.RoundStat) {
			for _, st := range batch {
				b, err := json.Marshal(st)
				if err != nil {
					t.Error(err)
				}
				rounds = append(rounds, string(b))
				seen <- struct{}{}
			}
		})
		if !finished {
			t.Fatal("run never finished")
		}
		if _, err := h.Result(); err != nil {
			t.Fatal(err)
		}
		return rounds
	}

	local, err := dispatch.NewLocal(dispatch.LocalConfig{Runner: runner, Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	localRounds := stream(local)

	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := dispatch.NewCoordinator(dispatch.CoordinatorConfig{Store: st, LeaseTTL: 5 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	coord.Mount(mux)
	ts := httptest.NewServer(mux)
	defer func() { ts.Close(); coord.Close() }()
	w, err := dispatch.NewWorker(dispatch.WorkerConfig{
		Coordinator: ts.URL, Runner: runner, PollWait: 200 * time.Millisecond,
		HeartbeatEvery: 10 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	exited := make(chan struct{})
	go func() { defer close(exited); w.Run(ctx) }()
	defer func() { cancel(); <-exited }()
	remoteRounds := stream(coord)

	if len(localRounds) != spec.Cfg.Rounds || !strings.Contains(localRounds[0], `"per_class":[`) {
		t.Fatalf("local run reported %d rounds (%v), want %d carrying per-class accuracy", len(localRounds), localRounds, spec.Cfg.Rounds)
	}
	if len(remoteRounds) != len(localRounds) {
		t.Fatalf("remote run reported %d rounds, local %d", len(remoteRounds), len(localRounds))
	}
	for i := range localRounds {
		if remoteRounds[i] != localRounds[i] {
			t.Fatalf("round %d differs across topologies:\nlocal:  %s\nremote: %s", i, localRounds[i], remoteRounds[i])
		}
	}
}
