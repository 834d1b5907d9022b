package fl

import (
	"context"
	"reflect"
	"testing"
)

// TestRunFullHistoryDeterministicWorkers14 is the regression test for the
// contract Run documents ("deterministic regardless of scheduling") that the
// content-addressed store depends on: Workers is excluded from the spec
// fingerprint, so a history computed with 4 workers must be byte-for-byte
// the history computed with 1. Unlike the accuracy-only check above, this
// compares entire RoundStats — per-class accuracies, train loss and method
// metrics included.
func TestRunFullHistoryDeterministicWorkers14(t *testing.T) {
	mk := func(workers int) *History {
		cfg := Config{Rounds: 8, SampleClients: 5, LocalEpochs: 2, BatchSize: 16,
			EtaL: 0.1, EtaG: 1, Seed: 91, EvalEvery: 2, Workers: workers, DropProb: 0.2}
		env := testEnv(91, cfg, 4, 12, 0.3, 0.3)
		return Run(env, &sgdMethod{})
	}
	one, four := mk(1), mk(4)
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("Workers=1 and Workers=4 histories differ:\n w1: %+v\n w4: %+v", one, four)
	}
}

// TestRunWithProgressMatchesRun: the progress hook observes exactly the
// recorded stats, in order, and does not perturb the run.
func TestRunWithProgressMatchesRun(t *testing.T) {
	mk := func(onRound func(RoundStat)) *History {
		cfg := Config{Rounds: 6, SampleClients: 3, LocalEpochs: 1, BatchSize: 20, Seed: 93, EvalEvery: 2}
		env := testEnv(93, cfg, 3, 6, 0.5, 0.5)
		hist, _ := RunWithProgressCtx(context.Background(), env, &sgdMethod{}, onRound)
		return hist
	}
	var seen []RoundStat
	withHook := mk(func(s RoundStat) { seen = append(seen, s) })
	plain := mk(nil)
	if !reflect.DeepEqual(withHook, plain) {
		t.Fatal("progress hook changed the run result")
	}
	if !reflect.DeepEqual(seen, withHook.Stats) {
		t.Fatalf("hook saw %+v, history has %+v", seen, withHook.Stats)
	}
}
