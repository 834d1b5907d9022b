package sweep

import (
	"testing"

	"fedwcm/internal/fl"
	"fedwcm/internal/scenario"
)

// TestAsyncSyncEquivalence pins the async engine's degenerate case to the
// existing synchronous goldens byte-for-byte: with K equal to the sampled
// cohort, concurrency equal to the cohort and uniform staleness weights, the
// buffered engine must replay the barrier round loop exactly — same sampling
// and drop streams, same aggregation order, same serialized history. The
// three methods cover all aggregation paths: FedAvg (the engine's generic
// fallback), FedCM and FedWCM (their AggregateAsync uniform fast paths).
func TestAsyncSyncEquivalence(t *testing.T) {
	for _, method := range []string{"fedavg", "fedcm", "fedwcm"} {
		t.Run(method, func(t *testing.T) {
			spec := goldenSpec(method)
			spec.Cfg.Async = &fl.AsyncConfig{
				K:           spec.Cfg.SampleClients,
				Concurrency: spec.Cfg.SampleClients,
				Staleness:   fl.StaleUniform,
			}
			if err := spec.Validate(); err != nil {
				t.Fatalf("equivalence spec must validate: %v", err)
			}
			runGolden(t, spec, goldenHistories[method])
		})
	}
}

// TestBarrierReplayAcrossParticipation widens the equivalence above from the
// one golden fixture to every participation process the round core
// implements: the barrier scheduler and the event scheduler at K = cohort
// must see the same cohorts, drops, drift stages, loss carry and evaluations
// (equal history bytes with the clock off) and must charge the same virtual
// time for them (equal Time series with the clock on). "blackout" forces
// whole-cohort outages, where the event scheduler used to burn server
// versions in zero virtual time. Stragglers are absent by design: partial
// work at the deadline versus full work arriving late is the one observable
// difference between the two schedulers.
func TestBarrierReplayAcrossParticipation(t *testing.T) {
	named := func(name string) *scenario.Scenario {
		sc, err := scenario.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	cases := []struct {
		name     string
		dropProb float64
		scenario *scenario.Scenario
	}{
		{"dropprob", 0.25, nil},
		{"churn", 0, named("churn")},
		{"outage", 0, named("outage")},
		{"blackout", 0, &scenario.Scenario{Availability: &scenario.Availability{OutageProb: 0.5, OutageFrac: 1}}},
		{"drift", 0, named("drift")},
	}
	run := func(t *testing.T, spec RunSpec, async, clock bool) *fl.History {
		t.Helper()
		spec.Cfg.Clock = clock
		if async {
			spec.Cfg.Async = &fl.AsyncConfig{
				K:           spec.Cfg.SampleClients,
				Concurrency: spec.Cfg.SampleClients,
				Staleness:   fl.StaleUniform,
			}
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("spec must validate: %v", err)
		}
		h, err := spec.Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return h
	}
	for _, method := range []string{"fedavg", "fedcm", "fedwcm"} {
		for _, tc := range cases {
			t.Run(method+"/"+tc.name, func(t *testing.T) {
				spec := goldenSpec(method)
				spec.Cfg.Rounds, spec.Cfg.EvalEvery = 8, 1
				spec.Cfg.DropProb, spec.Cfg.Scenario = tc.dropProb, tc.scenario

				if s, a := historyHash(t, run(t, spec, false, false)), historyHash(t, run(t, spec, true, false)); s != a {
					t.Errorf("clock off: barrier history %s != event history %s", s, a)
				}
				sync, async := run(t, spec, false, true), run(t, spec, true, true)
				if len(sync.Stats) != len(async.Stats) {
					t.Fatalf("clock on: %d barrier stats vs %d event stats", len(sync.Stats), len(async.Stats))
				}
				empty := 0
				for i, st := range async.Stats {
					if st.Time != sync.Stats[i].Time {
						t.Errorf("version %d: event scheduler at virtual time %v, barrier at %v", st.Round, st.Time, sync.Stats[i].Time)
					}
					if st.Async.Buffer == 0 {
						empty++
					}
				}
				if tc.name == "blackout" && empty == 0 {
					t.Fatal("blackout produced no whole-cohort outage; the case is vacuous")
				}
			})
		}
	}
}

// asyncGoldenSpec is the golden fixture in genuinely asynchronous mode:
// buffer size below the cohort (the default K = SampleClients/2), poly
// staleness discounts, duration jitter so the event queue interleaves waves,
// and the virtual clock recorded into the history. Everything the sync
// goldens exercise (long-tail data, dropouts, partial participation) still
// applies underneath.
func asyncGoldenSpec(method string) RunSpec {
	spec := goldenSpec(method)
	spec.Cfg.Clock = true
	spec.Cfg.Async = &fl.AsyncConfig{Staleness: fl.StalePoly, Jitter: 0.25}
	return spec
}

// asyncGoldenHistories pins one buffered-async run per aggregation path.
// Recorded at Workers=1 on the async engine's introduction; runGolden proves
// Workers=4 reproduces them bit-for-bit, which is the engine's determinism
// contract (virtual time, not wall time, orders every event).
var asyncGoldenHistories = map[string]string{
	"fedavg": "392843183ee9a77e8b707b08e33e64420aab7e63ba63eefa39dbd4d70fe9b38e",
	"fedcm":  "df0d1b1edda769bfedf8903c1f63c957cc0620719686d26dcd18ba0ab80bd1a6",
	"fedwcm": "56ca47ce170cb0821f19a57f5d787b020f6d5934165f81c5aff993418a24a094",
}

func TestAsyncGoldenHistoriesBitIdentical(t *testing.T) {
	for method, want := range asyncGoldenHistories {
		t.Run(method, func(t *testing.T) {
			spec := asyncGoldenSpec(method)
			if err := spec.Validate(); err != nil {
				t.Fatalf("async golden spec must validate: %v", err)
			}
			runGolden(t, spec, want)
		})
	}
}

// TestAsyncGoldenProbedHistory: probes attach to the one round body, so the
// event scheduler records them exactly like the barrier loop — pinned, and
// identical to the probe-less async golden once the readings are stripped.
func TestAsyncGoldenProbedHistory(t *testing.T) {
	runProbedGolden(t, asyncGoldenSpec("fedcm"), "collapse",
		"ce5ac0a4aa19742902bf61aa916253b23daf8858e54ad2150d0c1b2365c52f88",
		asyncGoldenHistories["fedcm"])
}

// asyncStragglerGolden pins the async engine under the straggler scenario —
// the regime it exists for: slow clients stretch to 1/WorkFraction virtual
// time units, so waves overlap and staleness discounts actually bite. FedWCM
// is the method whose α damping consumes the staleness histogram, so its
// hash covers the most async-specific math.
var asyncStragglerGolden = map[string]string{
	"fedwcm": "9ce15318fd57f0585fef5a500c2cfcc230ac8e39744a78cfdd5aac25ba71b0eb",
}

func TestAsyncStragglerGoldenBitIdentical(t *testing.T) {
	for method, want := range asyncStragglerGolden {
		t.Run(method, func(t *testing.T) {
			spec := asyncGoldenSpec(method)
			spec.Cfg.DropProb = 0
			spec.Cfg.Scenario = &scenario.Scenario{
				Straggler: &scenario.Straggler{Prob: 0.5, MinFrac: 0.3, MaxFrac: 0.8},
			}
			if err := spec.Validate(); err != nil {
				t.Fatalf("async straggler spec must validate: %v", err)
			}
			runGolden(t, spec, want)
		})
	}
}
