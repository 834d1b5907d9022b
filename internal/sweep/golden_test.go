package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"testing"

	"fedwcm/internal/fl"
	"fedwcm/internal/fl/methods"
	"fedwcm/internal/scenario"
)

// goldenSpec is the shared fixture: a deliberately small but fully featured
// run (long-tailed data, client dropouts, partial participation) so the hash
// exercises sampling, drop handling, local SGD and every aggregation path.
func goldenSpec(method string) RunSpec {
	return RunSpec{
		Dataset:   "cifar10-syn",
		Method:    method,
		Beta:      0.3,
		IF:        0.2,
		Partition: "equal",
		Clients:   6,
		Model:     "mlpbn",
		Scale:     0.05,
		Cfg: fl.Config{
			Rounds: 4, SampleClients: 4, LocalEpochs: 1, BatchSize: 16,
			EtaL: 0.05, EtaG: 1, Seed: 7, EvalEvery: 2, Workers: 1,
			DropProb: 0.25,
		},
	}
}

// goldenHistories pins a SHA-256 of the canonical JSON history for one small
// run per method family. The hashes were recorded on the pre-runtime seed
// implementation (PR 2) and re-pinned when RoundStat gained the shot-bucket
// field; TestGoldenTrajectoriesMatchPreShotDigests proves mechanically that
// only the serialization changed, by stripping `shot` and comparing against
// the original PR 2 digests. Any engine, scratch-buffer or kernel change
// that shifts a single bit of any history must fail here. They complement
// the Workers=1v4 determinism test in internal/fl, which only proves
// schedule-independence, not stability across refactors.
var goldenHistories = map[string]string{
	"fedavg":    "575487d4e7e7aaff713fc6d5f48f46fd08815ccba8fcf21accd8376f4ef5509d",
	"fedcm":     "ed237def79c3dd4f9c2d371abb3de037ec2084800e6e88dcd5cf5daea21acdd3",
	"fedwcm":    "ba1575cf0ad3c8716171fe139f45d35c3537f9249060dedcbc763d4a5db4d156",
	"scaffold":  "c4dc354ef107cd62f9afcb522e524ac91ce97be922bb559a69131d59a10409f8",
	"feddyn":    "b120d44b6e16a4edbce42a302be1b931146bb199406be6f825f760dd903c7f13",
	"mofedsam":  "00840f9f8a38ac20b989b5e9c32876261cac3bfa195fede522c288e0112595c0",
	"fedgrab":   "36e19056692f673e0e9064fb5bf23efb103c774a2815c25cfb0917489990e733",
	"balancefl": "8e3efe5416da65c6647f8fba6d07815f4117e444d8541d069a88085779f260d4",
	// Recorded later, on the commit before the network's parameters became
	// two flat vectors: between them they cover every local-SGD option the
	// rewrite touched (the prox term, SAM along the local gradient and along
	// a global direction, a correction with SAM and prox) and the Focal and
	// PriorCE losses.
	"fedprox":           "a537d42cb167483d2b5a4bcdfa464940de68cf9534d5b7ef43017af1ee15194e",
	"fedsam":            "858b69e1d6f5c4231651af3a352ba014dbbc24a1a2604e25dfd71d1b2aee6180",
	"fedlesam":          "29fba49175a85ae34db28c1a250b745e9bc4697f9e68a90d6baac694284ce90e",
	"fedsmoo":           "2e3758f1690822d4d2fe13409bff6a8634acdb7e089254bcfcd7d575cf5dc1ae",
	"fedcm+focal":       "77dc821b975178c186d1c99d156297fa1ef7e293a7dd2dc30a70cf859a2dca43",
	"fedcm+balanceloss": "e5ce26173ecbdd5045665bca2cd362452efcedf04968ac8c1eb2ae5be0dac42e",
	// Recorded on the commit before the averaging baselines became rows of
	// one method type, so that every registered method has a sync pin.
	"fedavgm":              "42f8670142c5d1d654879d5e51974b4102c00446b2ba4e1f519b00eec6b27dcd",
	"fedspeed":             "696d41e6be571e81cee22b4032c570ca1e6a82ff4acaeae1a89397537ffadd90",
	"fedcm+balancesampler": "f563c3a0b7bbc64fb75308451b7652a18544474d5ee62b8ce1ae8182224331ae",
	"fedwcm-x":             "27937d60991954eba6c2fc95437337056be1f9d90816ee14f81b5cab0977b83b",
	"fedwcm-absscore":      "bcbe2e172f763fa856d27910e2e4d0436caf3be6416c78da13f847f493c0be1b",
	"fedwcm-weightonly":    "661c218caa25e3985ebb23893c3ee3fb562cf57d8e3a290910a498937280bcc5",
	"fedwcm-alphaonly":     "62bb16d3f6a26599425d96dd130db12dadfdad8007588745b220bb6c1802081c",
}

// goldenFedgrabSpec is goldenSpec on the quantity-skewed partition. On the
// equal partition every client holds the same sample count, so sample-size
// weights give the bits uniform weights give; here clients differ in size,
// which pins each method's choice of weights, and their epochs end on
// batches of every length.
func goldenFedgrabSpec(method string) RunSpec {
	spec := goldenSpec(method)
	spec.Partition = "fedgrab"
	return spec
}

// goldenFedgrabHistories pins every registered method on goldenFedgrabSpec.
// Recorded on the commit before the local step's vector passes were fused
// and the GEMM's leftover rows stopped running a padded strip.
var goldenFedgrabHistories = map[string]string{
	"balancefl":            "a3fdef930032bcd0b2e879b6052fe6f69cd3c3cb6177169eb59450b8bea452ab",
	"fedavg":               "c7ac1e06db602dd1f57ccadcf0acb854b1089be30f04cb8f2c310cd4d3fe27b9",
	"fedavgm":              "d775dae768d34610f78f218a952a173d823a99538abe00fa0c200a3a2a56b2eb",
	"fedcm":                "648c1362eac381188063e361ed2ebb22283f76e8233722465a6a77a6bd44add4",
	"fedcm+balanceloss":    "057b2bb7f62fad5c60cb0f0fab55002e2cd22d078ab8ffb02ce3200e330c3444",
	"fedcm+balancesampler": "bc737686b77ab08f6396f4105407cccc2a2ef4422c866540ae9fae999364825f",
	"fedcm+focal":          "11268dd5f013943043caa68a5ff46b6c546358e10c521edbf4cc60665a6fe8a7",
	"feddyn":               "300ec3848311761f9c9f9b5f9787df8da0350c076c542d2d949ea935544fb733",
	"fedgrab":              "71eff6d61ff96846813549bce24ce3b86f05f7b5f62e97473d6b39d5cdc6b2f3",
	"fedlesam":             "be32c2f8d60f2070fdf159dfff0107c77fbd1f815650feb1c970bd817971988b",
	"fedprox":              "598c1d20b1c62f0931ed1de3e5a9fb0bdc0694610c6fe2b358003845f60a5c52",
	"fedsam":               "762c92f7c0cc99255dfa37b255a1caae58461cea65c6e8df5ca4f5f79a940110",
	"fedsmoo":              "e7cbc254b9a5e8564488ab7a86c44c291b4e5fbf70df570ab3271e781819a501",
	"fedspeed":             "d1f550df8ba2536eeac2b63974b50a90e0825a04cb50da3ecc1aef54e27f26bd",
	"fedwcm":               "17f3a82caf5bd68c24f03ae25afc769639216b6128f372a91b2106236b0ab676",
	"fedwcm-absscore":      "e620da8dca4673cf0be1e5720c646c7188d5ede5d2e73c2562a3dd3f670833be",
	"fedwcm-alphaonly":     "527fd6781f6d955d73c1957885cae91199167c55921379aa65ebf1d8f1dd6a9c",
	"fedwcm-weightonly":    "9580268d2e4f8187d0374f743329a28e5a5e8b4c19d9331b3c67fdb05f5d739a",
	"fedwcm-x":             "9d60ca90d60cb57eac018d48821fb8ce351b5dc314b79826f81f171cf5fc17b7",
	"mofedsam":             "cb58b6f9db438cd7374f102d23324cb2f92f4cfc0f6535724de3c96cc1a49fe2",
	"scaffold":             "e3ab9d16905ea9a5a06134040e5f29b13bb25b7babf4a81b840dee45569dd105",
}

func TestGoldenFedgrabHistoriesBitIdentical(t *testing.T) {
	for method, want := range goldenFedgrabHistories {
		t.Run(method, func(t *testing.T) {
			runGolden(t, goldenFedgrabSpec(method), want)
		})
	}
}

// TestGoldenPinsEveryMethod: a method registered without a sync golden on
// each partition and an async golden could change its arithmetic unseen,
// so registering one fails here until all three digests are recorded.
func TestGoldenPinsEveryMethod(t *testing.T) {
	for _, name := range methods.Names() {
		if goldenHistories[name] == "" {
			t.Errorf("%s has no sync golden in goldenHistories", name)
		}
		if goldenFedgrabHistories[name] == "" {
			t.Errorf("%s has no sync golden in goldenFedgrabHistories", name)
		}
		if asyncK3GoldenHistories[name] == "" {
			t.Errorf("%s has no async golden in asyncK3GoldenHistories", name)
		}
	}
}

// goldenPreShotHistories are the original PR 2 digests, recorded before
// RoundStat carried the `shot` field. The static training trajectories must
// still reproduce them exactly once `shot` is stripped — the mechanical
// proof that the shot-era re-pin changed serialization, not computation.
var goldenPreShotHistories = map[string]string{
	"fedavg":    "416ec63e755b5f48a8eab5425576d716421df2ecddab82d32cb50c425cecd8d1",
	"fedcm":     "a7a6a228725b6687dbf9b569ee633508017a988231e7a8f210c6b1fb4a06bd1a",
	"fedwcm":    "62e339a14ee5f5091b43142c8d8b756996e936dbbe9d85985857c6ab1d8b6719",
	"scaffold":  "56410ce9df161cf88d01fc478627f603b32a9bd67a7958a17b20a9b34f290e58",
	"feddyn":    "921c4f8d6fc5240212df1d6abaaa33964983fbba87b9b5ddfb0cba3f6cc5d84f",
	"mofedsam":  "b81b86c38a989ad9f78819669933e0ee721541a223144f8ac0f572d2acb64f91",
	"fedgrab":   "3fcacd4940adf9543841f0458785de77a363e2c46377e4d3d74ebffe42e607a8",
	"balancefl": "8482bb06896e853ba558dd4aa06d9058baab426ea2fe055cdbe9a116f68e7658",
}

func TestGoldenTrajectoriesMatchPreShotDigests(t *testing.T) {
	for method, want := range goldenPreShotHistories {
		t.Run(method, func(t *testing.T) {
			h, err := goldenSpec(method).Run()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for i := range h.Stats {
				h.Stats[i].Shot = nil
			}
			if got := historyHash(t, h); got != want {
				t.Errorf("static trajectory diverged from the pre-shot era: got %s want %s", got, want)
			}
		})
	}
}

// historyHash is the pinned digest: hex SHA-256 of the history's canonical
// JSON (encoding/json is deterministic for this shape: struct field order is
// declaration order, map keys are sorted, float64 uses the shortest
// round-trip encoding).
func historyHash(t *testing.T, h *fl.History) string {
	t.Helper()
	sum := sha256.Sum256([]byte(mustJSON(t, h)))
	return hex.EncodeToString(sum[:])
}

// runGolden executes spec at Workers=1 and Workers=4, asserts the two
// histories hash identically, and compares against the pinned digest. It
// returns the Workers=1 history.
func runGolden(t *testing.T, spec RunSpec, want string) *fl.History {
	t.Helper()
	h1, err := spec.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := historyHash(t, h1)

	spec4 := spec
	spec4.Cfg.Workers = 4
	h4, err := spec4.Run()
	if err != nil {
		t.Fatalf("run workers=4: %v", err)
	}
	if got4 := historyHash(t, h4); got4 != got {
		t.Fatalf("Workers=4 history diverges from Workers=1: %s vs %s", got4, got)
	}

	if want == "" {
		t.Fatalf("no golden hash pinned; computed %s", got)
	}
	if got != want {
		t.Errorf("history hash changed: got %s want %s", got, want)
	}
	return h1
}

func TestGoldenHistoriesBitIdentical(t *testing.T) {
	for method, want := range goldenHistories {
		t.Run(method, func(t *testing.T) {
			runGolden(t, goldenSpec(method), want)
		})
	}
}

// goldenCNNSpec is the image-path fixture: ResNetLite on cifar10-img, so the
// convolution kernels, their batch reduction and the 2-D BatchNorm sit under
// a tier-1 pin like the MLP path does. Batch size 9 gives the backward
// reduction two unequal halves and the epoch a short last batch.
func goldenCNNSpec(method string) RunSpec {
	return RunSpec{
		Dataset:   "cifar10-img",
		Method:    method,
		Beta:      0.3,
		IF:        0.2,
		Partition: "equal",
		Clients:   4,
		Model:     "resnet",
		Scale:     0.2,
		Cfg: fl.Config{
			Rounds: 3, SampleClients: 3, LocalEpochs: 1, BatchSize: 9,
			EtaL: 0.05, EtaG: 1, Seed: 7, EvalEvery: 1, Workers: 1,
		},
	}
}

// goldenCNNHistories were recorded before Conv2D's reduction order was
// fixed, with the two-half reduction tree the frozen bench/golden.json was
// also recorded with (that code gave other digests on one goroutine and
// run-to-run different ones on three or more). They prove fixing the order
// moved no bit.
var goldenCNNHistories = map[string]string{
	"fedavg": "f30a529ab23ed21d5d13a7eaed6c6db37013b1630bb6673f602642386f725c14",
	"fedwcm": "ded0c1bb62e70e04dc88df0b4bb53fd712909d615d8549dcb15914d1d17c950b",
	// Recorded later, on the commit before Conv2D read its shifted taps
	// through a B-row table and added its products into dx and dW on store.
	"fedcm": "8457406c67c7ab0c37260ba17806743061ce2b5934075b2a9ba6ebec313a5be9",
}

// goldenCNNFedgrabSpec is goldenCNNSpec on the quantity-skewed partition
// with batches of 16: its clients hold 12, 65, 65 and 84 samples, so the
// backward reduction meets halves of 8, 6, 2 and 1 samples and a batch
// with no second half.
func goldenCNNFedgrabSpec(method string) RunSpec {
	spec := goldenCNNSpec(method)
	spec.Partition = "fedgrab"
	spec.Cfg.BatchSize = 16
	return spec
}

// goldenCNNFedgrabHistories pins goldenCNNFedgrabSpec, recorded with the
// fedcm entry of goldenCNNHistories.
var goldenCNNFedgrabHistories = map[string]string{
	"fedavg": "a5dc960c7a7b8831dfa801d55c963f347c39c2915ced9240285a3e450af369f7",
	"fedcm":  "4145d4f02f69254d83317c08d7c6ad137cf5a8eb1e1a58ce7782a9cda7bf7c05",
	"fedwcm": "6f04f7ec5ffc7e112430463fbaf3bfcabebcc56092704cbd608f13593ea4ec36",
}

// TestGoldenCNNHistoriesBitIdentical pins the image path and requires the
// pin to hold however many threads the kernels get to run on: a history is
// addressed by its spec, so it cannot depend on the host's core count. The
// kernels are serial, so the kernel-workers axis is GOMAXPROCS.
func TestGoldenCNNHistoriesBitIdentical(t *testing.T) {
	for method, want := range goldenCNNHistories {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/kernel-workers=%d", method, workers), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
				runGolden(t, goldenCNNSpec(method), want)
			})
		}
	}
}

func TestGoldenCNNFedgrabHistoriesBitIdentical(t *testing.T) {
	for method, want := range goldenCNNFedgrabHistories {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/kernel-workers=%d", method, workers), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
				runGolden(t, goldenCNNFedgrabSpec(method), want)
			})
		}
	}
}

// TestFedAvgMZeroBetaIsFedAvg is the first executable algebraic identity:
// FedAvgM is FedAvg with the server optimiser swapped (m ← β·m + Σ w·Δ,
// x ← x − η_g·m), so at β = 0 it must follow FedAvg's golden trajectory.
// Every evaluation (accuracy, per-class, shot) is bit-identical. The weights
// themselves are not: FedAvg folds clients in one at a time,
// (x − s₁d₁) − s₂d₂ …, FedAvgM sums first, x − η_g·(w₁d₁ + w₂d₂ + …) — the
// same real number under a different rounding association, so the models
// differ in the last bit and the carried train loss is allowed the few ulps
// that leaves (measured: ≤ 1 ulp on this fixture, ≤ 2 over 40 rounds).
func TestFedAvgMZeroBetaIsFedAvg(t *testing.T) {
	run := func(m fl.Method) *fl.History {
		env, err := goldenSpec("fedavg").BuildEnv()
		if err != nil {
			t.Fatal(err)
		}
		return fl.Run(env, m)
	}
	fedavg, err := methods.New("fedavg")
	if err != nil {
		t.Fatal(err)
	}
	avg, avgm := run(fedavg), run(methods.NewFedAvgM(0))
	if got := historyHash(t, avg); got != goldenHistories["fedavg"] {
		t.Fatalf("the FedAvg side is not the golden trajectory: %s", got)
	}
	for i := range avg.Stats {
		a, b := avg.Stats[i], avgm.Stats[i]
		ulps := int64(math.Float64bits(a.TrainLoss)) - int64(math.Float64bits(b.TrainLoss))
		if ulps < -4 || ulps > 4 {
			t.Errorf("round %d: train loss %v vs %v (%d ulps apart)", a.Round, a.TrainLoss, b.TrainLoss, ulps)
		}
		b.TrainLoss = a.TrainLoss
		if ja, jb := mustJSON(t, a), mustJSON(t, b); ja != jb {
			t.Errorf("round %d: FedAvgM(β=0) evaluation differs from FedAvg:\n %s\n %s", a.Round, jb, ja)
		}
	}
}

// TestFedCMUnitAlphaIsFedAvg is the client-momentum identity: at α = 1 every
// local step is v = 1·g + 0·Δ_r = g, and FedCM's server step is the same
// weighted average as FedAvg's, so FedCM(α = 1) follows FedAvg's golden
// trajectory bit for bit — the weights too, so even the train loss matches.
// It holds on goldenSpec's `equal` partition only, where every client holds
// the same count and FedCM's uniform weights are FedAvg's sample-size
// weights; on the `fedgrab` partition the two weightings differ and so do
// the histories.
func TestFedCMUnitAlphaIsFedAvg(t *testing.T) {
	run := func(m fl.Method) *fl.History {
		env, err := goldenSpec("fedavg").BuildEnv()
		if err != nil {
			t.Fatal(err)
		}
		return fl.Run(env, m)
	}
	fedavg, err := methods.New("fedavg")
	if err != nil {
		t.Fatal(err)
	}
	avg, cm := run(fedavg), run(methods.NewFedCM(1))
	if got := historyHash(t, avg); got != goldenHistories["fedavg"] {
		t.Fatalf("the FedAvg side is not the golden trajectory: %s", got)
	}
	if len(cm.Stats) != len(avg.Stats) {
		t.Fatalf("FedCM(α=1) has %d rounds, FedAvg %d", len(cm.Stats), len(avg.Stats))
	}
	for i := range avg.Stats {
		if ja, jb := mustJSON(t, avg.Stats[i]), mustJSON(t, cm.Stats[i]); ja != jb {
			t.Errorf("round %d: FedCM(α=1) differs from FedAvg:\n %s\n %s", avg.Stats[i].Round, jb, ja)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// goldenProbedHistories pins the golden fixture with a probe attached: the
// probe's readings are part of the history bytes (and so of what the store,
// the worker hop and SSE carry), pinned bit-for-bit like the trajectory.
var goldenProbedHistories = map[string]struct{ probe, hash string }{
	"fedcm":  {"collapse", "6f316e5d43083eac326e865260634456b5c5b78da121db1d2572d4b34d25e37d"},
	"fedavg": {"train_acc", "c24e11747f5d5a3d89f1b7ad575e84d9aa41a18bd03729f3604ff0d25da9e8fb"},
}

// runProbedGolden pins spec+probe against want, then strips the metrics the
// probe added and requires the probe-less digest: probes observe, never
// perturb. Only for methods that report no metrics of their own.
func runProbedGolden(t *testing.T, spec RunSpec, probe, want, bare string) {
	t.Helper()
	spec.Probes = []string{probe}
	if err := spec.Validate(); err != nil {
		t.Fatalf("probed golden spec must validate: %v", err)
	}
	h := runGolden(t, spec, want)
	for i := range h.Stats {
		if len(h.Stats[i].Metrics) == 0 {
			t.Fatalf("evaluation %d carries no probe reading", i)
		}
		h.Stats[i].Metrics = nil
	}
	if got := historyHash(t, h); got != bare {
		t.Errorf("probe %q perturbed the run: metrics-stripped history %s, probe-less golden %s", probe, got, bare)
	}
}

func TestGoldenProbedHistoriesBitIdentical(t *testing.T) {
	for method, g := range goldenProbedHistories {
		t.Run(method+"+"+g.probe, func(t *testing.T) {
			runProbedGolden(t, goldenSpec(method), g.probe, g.hash, goldenHistories[method])
		})
	}
}

// goldenScenarioSpec layers the full dynamics stack — availability churn
// with correlated outages, partial-work stragglers and label drift — over
// the golden fixture, so scenario-driven sampling, drop, partial-epoch and
// repartition paths are pinned bit-for-bit like everything else. DropProb
// is cleared: the availability trace replaces it (Validate enforces that).
func goldenScenarioSpec(method string) RunSpec {
	spec := goldenSpec(method)
	spec.Cfg.DropProb = 0
	spec.Cfg.Rounds = 6 // span at least two drift stages
	spec.Cfg.Scenario = &scenario.Scenario{
		Availability: &scenario.Availability{DownProb: 0.3, UpProb: 0.5, OutageProb: 0.2, OutageFrac: 0.5},
		Straggler:    &scenario.Straggler{Prob: 0.5, MinFrac: 0.3, MaxFrac: 0.8},
		Drift:        &scenario.Drift{ToBeta: 1, ToIF: 0.05, Stages: 3},
	}
	return spec
}

// goldenScenarioHistories pins scenario-enabled runs for a momentum method
// (the paper's focus — it must tolerate partial work) and plain FedAvg.
var goldenScenarioHistories = map[string]string{
	"fedavg": "c43b6bb52f35bdd5e3ca67fbfb9a151148213c94df9e60c758c13cdc4a717159",
	"fedwcm": "e42f60488ca81a3779b989b54e1b920793d118e7e2005341945836c4ec80984d",
}

func TestGoldenScenarioHistoriesBitIdentical(t *testing.T) {
	for method, want := range goldenScenarioHistories {
		t.Run(method, func(t *testing.T) {
			spec := goldenScenarioSpec(method)
			if err := spec.Validate(); err != nil {
				t.Fatalf("scenario golden spec must validate: %v", err)
			}
			runGolden(t, spec, want)
		})
	}
}
