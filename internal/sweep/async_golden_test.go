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

// asyncK3GoldenHistories pins every registered method in buffered-async
// mode, one digest each. Recorded on the commit before the averaging
// baselines became rows of one method type.
var asyncK3GoldenHistories = map[string]string{
	"balancefl":            "cc8240c9d2417acf057195e5d5980b542fb4492f1187cd9d48445b585aace2ad",
	"fedavg":               "fa28d776a97edb4975b5af865c4c07f104e30df81089cc0036e6329a9b77e767",
	"fedavgm":              "c2364aebf699f8f55df8d5ac07443030942af9d4fc556c4594cb8becf8606453",
	"fedcm":                "6ce71af146c62ceacdd650b886359824c2055925f9c9903de65ebe302c555cce",
	"fedcm+balanceloss":    "ed00c3d90d3d3455f48fffabd461a57b77689634d9b6a59d072e3122924868ae",
	"fedcm+balancesampler": "ffafef37aabc905cf8130fd5fda3ba285ae191471b450abf2ab4850e501cbcc1",
	"fedcm+focal":          "c0f12e6cfec5a56bd54411637ce6bb9051b0d4a998344881c1561d04f6fca111",
	"feddyn":               "989e5cc255c2a04e439d48546d9dd41b76ba7b0eacc4afccc93258a433768de4",
	"fedgrab":              "3400169375576f7a3aff4d3cc0ffddbe4defa6a11721a1514557b927c5097b4c",
	"fedlesam":             "24dfbcf22c1f9783edb68d60bdb31facdd0a67afd2e4d7ae207d368ef6dd0c94",
	"fedprox":              "ef5b52c5e03d910ab8a90c40d62ae7daed8b2d5bf96521633b3674d60fb42e95",
	"fedsam":               "801d8d2fdffe819970824f3ea1e329195d210991e35d4cfd272c787959fdae5b",
	"fedsmoo":              "ae35c658e34d72414be30513c92b51c4da37cc6c91008725adec12a3999cdeb0",
	"fedspeed":             "a7bd89429a7ed3a0059f4e868ea1f49f1d776599de31075d28cdb5df56060a19",
	"fedwcm":               "ebae3c394af7d7c3e8cd7cd3498efc244f9b0c965cc3a4a4aa4bac5cc6326019",
	"fedwcm-absscore":      "27bb650b3d342ecc614ace140b835472ffffa2032ec8da14cfd4d5f70ba67994",
	"fedwcm-alphaonly":     "9a941104f31f35076fc2c75fb3409d14065dc6311f6b4ea344b27fe73c87bc7e",
	"fedwcm-weightonly":    "8d9fe55ce1ece2ff44a39b36ec09219023b96434e7c2a431758cf26124db6080",
	"fedwcm-x":             "2d6ad1333fc237ae7ebf9056cd77b9d1e211af5ed87ab94275e2cc71f10f7d4a",
	"mofedsam":             "7136d6b3ffbdbc2aa6cbdaaea85bf8f9e5230bfee7f820f3c7cd1ffced112302",
	"scaffold":             "f453c229b98fba4d552ea0ffc272633c0989aebc8e65f73d42034b7d4394ae77",
}

// asyncK3GoldenSpec is asyncGoldenSpec with all 6 clients in the cohort, a
// buffer of K = 3 and 6 rounds. A method without AggregateAsync takes the
// engine's fallback: each delta is pre-scaled by its staleness weight times
// the buffer size, then the synchronous Aggregate averages. When the buffer
// size is a power of two, or no update in it is stale, that is bit for bit
// a direct weighted average, so asyncGoldenSpec (K = 2, cohort 4) and the
// same fixture at K = 3 (which sees no stale update) cannot tell the two
// paths apart. This one can: giving MoFedSAM FedCM's AggregateAsync moves
// its digest, and so does taking FedCM's away from its focal and
// balance-loss variants.
func asyncK3GoldenSpec(method string) RunSpec {
	spec := asyncGoldenSpec(method)
	spec.Cfg.SampleClients = spec.Clients
	spec.Cfg.Rounds = 6
	spec.Cfg.Async.K = 3
	return spec
}

func TestAsyncK3GoldenHistoriesBitIdentical(t *testing.T) {
	for method, want := range asyncK3GoldenHistories {
		t.Run(method, func(t *testing.T) {
			spec := asyncK3GoldenSpec(method)
			if err := spec.Validate(); err != nil {
				t.Fatalf("async golden spec must validate: %v", err)
			}
			runGolden(t, spec, want)
		})
	}
}
