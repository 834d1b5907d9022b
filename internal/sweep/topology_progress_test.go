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
// the per-class accuracies — and the same history. The runner waits after
// every round until the submitter has read it from the feed, so on the
// remote leg every round travels in a heartbeat rather than in the result
// upload's backfill: a heartbeat must carry progress as exactly as the
// upload carries the history. The clocked async spec adds the fields only
// such runs record, RoundStat.Time and RoundStat.Async, to both hops.
func TestProgressMatchesAcrossTopologies(t *testing.T) {
	barrier := goldenSpec("fedwcm")
	barrier.Cfg.EvalEvery = 1
	async := barrier
	async.Cfg.Async = &fl.AsyncConfig{K: 3}
	async.Cfg.Clock = true
	for _, c := range []struct {
		name string
		spec RunSpec
		want []string // keys every round of the local feed carries
	}{
		{"sync", barrier, []string{`"per_class":[`}},
		{"async", async, []string{`"per_class":[`, `"time":`, `"async":{`}},
	} {
		t.Run(c.name, func(t *testing.T) { progressMatchesAcrossTopologies(t, c.spec, c.want) })
	}
}

func progressMatchesAcrossTopologies(t *testing.T, spec RunSpec, want []string) {
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
	stream := func(ex dispatch.Executor) (rounds []string, history string) {
		t.Helper()
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
		hist, err := h.Result()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(hist)
		if err != nil {
			t.Fatal(err)
		}
		return rounds, string(b)
	}

	local, err := dispatch.NewLocal(dispatch.LocalConfig{Runner: runner, Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	localRounds, localHist := stream(local)

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
	remoteRounds, remoteHist := stream(coord)

	if len(localRounds) != spec.Cfg.Rounds {
		t.Fatalf("local run reported %d rounds (%v), want %d", len(localRounds), localRounds, spec.Cfg.Rounds)
	}
	for i, r := range localRounds {
		for _, key := range want {
			if !strings.Contains(r, key) {
				t.Fatalf("local round %d carries no %s: %s", i, key, r)
			}
		}
	}
	if len(remoteRounds) != len(localRounds) {
		t.Fatalf("remote run reported %d rounds, local %d", len(remoteRounds), len(localRounds))
	}
	for i := range localRounds {
		if remoteRounds[i] != localRounds[i] {
			t.Fatalf("round %d differs across topologies:\nlocal:  %s\nremote: %s", i, localRounds[i], remoteRounds[i])
		}
	}
	if remoteHist != localHist {
		t.Fatalf("history differs across topologies:\nlocal:  %s\nremote: %s", localHist, remoteHist)
	}
}
