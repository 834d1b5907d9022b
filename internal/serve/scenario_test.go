package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"fedwcm/internal/fl"
	"fedwcm/internal/sweep"
)

// shotRunner returns canned histories carrying shot-bucket data, counting
// executions so cache behaviour stays observable.
func shotRunner(execs *atomic.Int64) sweep.Runner {
	return func(_ context.Context, spec sweep.RunSpec, onRound func(fl.RoundStat)) (*fl.History, error) {
		execs.Add(1)
		stats := []fl.RoundStat{{
			Round: 8, TestAcc: 0.55,
			PerClass: []float64{0.9, 0.5, 0.2},
			Shot:     &fl.ShotAcc{Head: 0.9, Medium: 0.5, Tail: 0.2},
		}}
		if onRound != nil {
			for _, s := range stats {
				onRound(s)
			}
		}
		return &fl.History{Method: spec.Method, Stats: stats}, nil
	}
}

// TestRunSubmitWithScenario: a scenario block inside the spec's cfg is
// accepted, fingerprinted distinctly from the static spec, and resubmission
// is a cache hit; a malformed scenario is rejected at submission time.
func TestRunSubmitWithScenario(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestServer(t, Config{Runner: shotRunner(&execs)})

	post := func(body string) (int, runResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rr runResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatalf("decode (HTTP %d): %v", resp.StatusCode, err)
		}
		return resp.StatusCode, rr
	}

	static := `{"method":"fedavg","cfg":{"rounds":8}}`
	dynamic := `{"method":"fedavg","cfg":{"rounds":8,"scenario":{"availability":{"down_prob":0.2,"up_prob":0.4},"straggler":{"prob":0.5}}}}`

	code, rStatic := post(static)
	if code != http.StatusAccepted {
		t.Fatalf("static submit: HTTP %d", code)
	}
	code, rDyn := post(dynamic)
	if code != http.StatusAccepted {
		t.Fatalf("scenario submit: HTTP %d", code)
	}
	if rStatic.ID == rDyn.ID {
		t.Fatal("scenario must change the run id")
	}
	waitTerminal(t, ts, rDyn.ID)

	// Resubmission of the identical scenario spec is a cache/coalesce hit.
	before := execs.Load()
	code, again := post(dynamic)
	if code != http.StatusOK || again.Status != StatusCached {
		t.Fatalf("resubmit: HTTP %d status %s", code, again.Status)
	}
	if again.History == nil || again.History.Stats[0].Shot == nil {
		t.Fatal("cached history lost its shot data through the store round-trip")
	}
	if execs.Load() != before {
		t.Fatal("resubmission recomputed the cell")
	}

	// An invalid scenario fails validation with 400, before any queueing.
	bad := `{"method":"fedavg","cfg":{"scenario":{"straggler":{"prob":0.5,"min_frac":0.9,"max_frac":0.2}}}}`
	if code, _ := post(bad); code != http.StatusBadRequest {
		t.Fatalf("invalid scenario: HTTP %d, want 400", code)
	}
	// Availability plus legacy drop_prob is ambiguous and rejected.
	both := `{"method":"fedavg","cfg":{"drop_prob":0.3,"scenario":{"availability":{"down_prob":0.2,"up_prob":0.4}}}}`
	if code, _ := post(both); code != http.StatusBadRequest {
		t.Fatalf("drop_prob+availability: HTTP %d, want 400", code)
	}
}

// TestSweepWithScenarioAxis: a sweep over static vs dynamic scenarios runs
// through the pool, the result groups split by scenario, shot columns reach
// the rendered table, and resubmitting the grid is all store hits.
func TestSweepWithScenarioAxis(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestServer(t, Config{Runner: shotRunner(&execs)})

	sp := sweep.Spec{
		Name:      "scenario-sweep",
		Methods:   []string{"fedavg", "fedwcm"},
		Scenarios: []string{"static", "churn+drift"},
		Effort:    0.1,
	}
	code, sum := postSweep(t, ts, sp)
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit: HTTP %d", code)
	}
	if sum.Total != 4 {
		t.Fatalf("2 methods × 2 scenarios should expand to 4 cells, got %d", sum.Total)
	}
	waitSweepDone(t, ts, sum.ID)
	firstExecs := execs.Load()

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + sum.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res sweepResultResponse
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decode result (HTTP %d): %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d", resp.StatusCode)
	}
	if len(res.Groups) != 4 {
		t.Fatalf("expected 4 groups (method × scenario), got %d", len(res.Groups))
	}
	scenarios := map[string]int{}
	for _, g := range res.Groups {
		scenarios[g.Axes.Scenario]++
		if g.Shot == nil || g.Shot.Tail != 0.2 {
			t.Fatalf("group %+v lost shot data", g.Axes)
		}
	}
	if scenarios[""] != 2 || scenarios["churn+drift"] != 2 {
		t.Fatalf("groups not split by scenario: %v", scenarios)
	}
	for _, col := range []string{"scenario", "head", "medium", "tail", "churn+drift"} {
		if !strings.Contains(res.Table, col) {
			t.Fatalf("rendered table missing %q:\n%s", col, res.Table)
		}
	}

	// The grid is content-addressed: resubmitting recomputes nothing.
	code, sum2 := postSweep(t, ts, sp)
	if code != http.StatusOK || sum2.ID != sum.ID {
		t.Fatalf("resubmit: HTTP %d id %s (want %s)", code, sum2.ID, sum.ID)
	}
	if execs.Load() != firstExecs {
		t.Fatal("resubmitted sweep recomputed cells")
	}
}
