package methods

import (
	"math"
	"testing"

	"fedwcm/internal/data"
	"fedwcm/internal/fl"
	"fedwcm/internal/loss"
	"fedwcm/internal/nn"
	"fedwcm/internal/partition"
	"fedwcm/internal/tensor"
	"fedwcm/internal/xrand"
)

// easyEnv builds a small, separable environment for smoke tests.
func easyEnv(seed uint64, cfg fl.Config, classes, clients int, beta, imbalance float64) *fl.Env {
	spec := data.GaussianSpec{Classes: classes, Dim: 10, Sep: 3.5, Noise: 0.8}
	train := spec.Generate(seed, 1, data.LongTailCounts(100, classes, imbalance))
	test := spec.Generate(seed, 2, data.UniformCounts(40, classes))
	part := partition.EqualQuantity(xrand.New(seed+7), train, clients, beta)
	return fl.NewEnv(cfg, train, test, part, nn.SoftmaxBuilder(10, classes), loss.CrossEntropy{})
}

func quickCfg(seed uint64, rounds int) fl.Config {
	return fl.Config{
		Rounds: rounds, SampleClients: 5, LocalEpochs: 2, BatchSize: 20,
		EtaL: 0.1, EtaG: 1, Seed: seed, EvalEvery: rounds,
	}
}

// mustNew builds the registered method name, failing the test when it is
// unknown.
func mustNew(t *testing.T, name string) fl.Method {
	t.Helper()
	m, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAllRegisteredMethodsLearnIID(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			env := easyEnv(11, quickCfg(11, 15), 4, 10, 100, 1)
			m := mustNew(t, name)
			hist := fl.Run(env, m)
			if hist.FinalAcc() < 0.75 {
				t.Fatalf("%s reached only %.3f on easy IID data", name, hist.FinalAcc())
			}
		})
	}
}

func TestRegistryErrors(t *testing.T) {
	if _, err := New("not-a-method"); err == nil {
		t.Fatal("unknown method must error")
	}
}

func TestRegistryNamesMatchMethodNames(t *testing.T) {
	for _, name := range Names() {
		m := mustNew(t, name)
		if m.Name() != name {
			t.Errorf("registry name %q but method reports %q", name, m.Name())
		}
	}
}

func TestFedAvgMWithZeroBetaMatchesFedAvg(t *testing.T) {
	run := func(m fl.Method) float64 {
		env := easyEnv(13, quickCfg(13, 8), 3, 6, 1, 0.5)
		return fl.Run(env, m).FinalAcc()
	}
	a := run(mustNew(t, "fedavg"))
	b := run(NewFedAvgM(0))
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("FedAvgM(beta=0) should equal FedAvg: %v vs %v", a, b)
	}
}

// TestFedWCMReducesToFedCMWhenBalanced is the key structural invariant: with
// a globally balanced dataset the deviation D is ~0, so the temperature is
// huge (uniform weights) and alpha stays at its base — FedWCM must follow
// the exact same trajectory as FedCM.
func TestFedWCMReducesToFedCMWhenBalanced(t *testing.T) {
	run := func(m fl.Method) []fl.RoundStat {
		cfg := fl.Config{Rounds: 10, SampleClients: 4, LocalEpochs: 2, BatchSize: 20,
			EtaL: 0.1, EtaG: 1, Seed: 17, EvalEvery: 2}
		env := easyEnv(17, cfg, 4, 8, 0.3, 1) // IF=1: balanced
		return fl.Run(env, m).Stats
	}
	cm := run(NewFedCM(0.1))
	wcm := run(NewFedWCM(DefaultWCMOptions()))
	for i := range cm {
		if math.Abs(cm[i].TestAcc-wcm[i].TestAcc) > 1e-12 {
			t.Fatalf("balanced FedWCM diverged from FedCM at eval %d: %v vs %v",
				i, cm[i].TestAcc, wcm[i].TestAcc)
		}
	}
}

func TestClassRelevanceScarcity(t *testing.T) {
	target := []float64{0.25, 0.25, 0.25, 0.25}
	// balanced global: every class equally relevant
	rel := ClassRelevance(ScoreScarcity, target, target)
	for _, v := range rel {
		if math.Abs(v-0.25) > 1e-6 {
			t.Fatalf("balanced scarcity should be uniform, got %v", rel)
		}
	}
	// long-tailed global: tail classes more relevant
	global := []float64{0.7, 0.2, 0.07, 0.03}
	rel = ClassRelevance(ScoreScarcity, global, target)
	for c := 1; c < 4; c++ {
		if rel[c] <= rel[c-1] {
			t.Fatalf("scarcer classes should be more relevant: %v", rel)
		}
	}
	sum := tensor.Sum(rel)
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("relevance should normalise to 1, got %v", sum)
	}
}

func TestClassRelevanceAbsDeviationMatchesEq3(t *testing.T) {
	target := []float64{0.5, 0.5}
	global := []float64{0.8, 0.2}
	rel := ClassRelevance(ScoreAbsDeviation, global, target)
	if math.Abs(rel[0]-0.3) > 1e-12 || math.Abs(rel[1]-0.3) > 1e-12 {
		t.Fatalf("abs deviation relevance %v, want [0.3 0.3]", rel)
	}
}

func TestClientScoreHandComputed(t *testing.T) {
	rel := []float64{0.1, 0.9}
	// client holds 3 of class 0, 1 of class 1:
	// s = (0.1·3 + 0.9·1)/4 = 0.3
	got := ClientScore(rel, []int{3, 1})
	if math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("ClientScore = %v, want 0.3", got)
	}
	if ClientScore(rel, []int{0, 0}) != 0 {
		t.Fatal("empty client must score 0")
	}
}

func TestFedWCMScoresFavourTailHolders(t *testing.T) {
	cfg := quickCfg(19, 1)
	env := easyEnv(19, cfg, 4, 8, 0.1, 0.05) // heavy tail, skewed clients
	m := NewFedWCM(DefaultWCMOptions())
	m.Init(env, 4)
	target := data.UniformTarget(4)
	// The client with the largest share of tail-class (class 3) data should
	// outscore the client with the largest share of head-class data.
	bestTail, bestHead := -1, -1
	var tailShare, headShare float64
	for k, c := range env.Clients {
		if c.N == 0 {
			continue
		}
		if p := float64(c.ClassCounts[3]) / float64(c.N); p > tailShare {
			tailShare, bestTail = p, k
		}
		if p := float64(c.ClassCounts[0]) / float64(c.N); p > headShare {
			headShare, bestHead = p, k
		}
	}
	_ = target
	if bestTail == bestHead {
		t.Skip("degenerate partition for this seed")
	}
	scores := m.scores
	if scores[bestTail] <= scores[bestHead] {
		t.Fatalf("tail-rich client should outscore head-rich client: %v vs %v",
			scores[bestTail], scores[bestHead])
	}
}

func TestFedWCMAlphaStaysInRange(t *testing.T) {
	cfg := quickCfg(23, 12)
	cfg.EvalEvery = 1
	env := easyEnv(23, cfg, 4, 8, 0.2, 0.05)
	m := NewFedWCM(DefaultWCMOptions())
	hist := fl.Run(env, m)
	for _, s := range hist.Stats {
		a := s.Metrics["alpha"]
		if a < 0.1-1e-12 || a > 0.99+1e-12 {
			t.Fatalf("alpha %v out of [0.1, 0.99]", a)
		}
	}
}

func TestFedWCMAlphaRespondsToImbalance(t *testing.T) {
	// With heavy global imbalance the imbalance factor approaches 1, so
	// alpha should rise well above its base when q ≈ 1.
	cfg := quickCfg(29, 6)
	cfg.EvalEvery = 1
	env := easyEnv(29, cfg, 4, 8, 0.5, 0.02)
	m := NewFedWCM(DefaultWCMOptions())
	hist := fl.Run(env, m)
	maxAlpha := 0.0
	for _, s := range hist.Stats {
		if a := s.Metrics["alpha"]; a > maxAlpha {
			maxAlpha = a
		}
	}
	if maxAlpha < 0.3 {
		t.Fatalf("alpha should rise under heavy imbalance, max was %v", maxAlpha)
	}

	// Balanced data: alpha must stay pinned at base.
	envBal := easyEnv(29, cfg, 4, 8, 0.5, 1)
	m2 := NewFedWCM(DefaultWCMOptions())
	hist2 := fl.Run(envBal, m2)
	for _, s := range hist2.Stats {
		if math.Abs(s.Metrics["alpha"]-0.1) > 0.02 {
			t.Fatalf("alpha should stay ~0.1 when balanced, got %v", s.Metrics["alpha"])
		}
	}
}

func TestFedWCMNamesForVariants(t *testing.T) {
	if NewFedWCM(DefaultWCMOptions()).Name() != "fedwcm" {
		t.Fatal("default name")
	}
	opt := DefaultWCMOptions()
	opt.quantityWeighted = true
	if NewFedWCM(opt).Name() != "fedwcm-x" {
		t.Fatal("x name")
	}
	opt = DefaultWCMOptions()
	opt.score = ScoreAbsDeviation
	if NewFedWCM(opt).Name() != "fedwcm-absscore" {
		t.Fatal("absscore name")
	}
}

func TestSCAFFOLDControlVariateBookkeeping(t *testing.T) {
	cfg := quickCfg(31, 3)
	env := easyEnv(31, cfg, 3, 6, 1, 1)
	m := mustNew(t, "scaffold").(*scaffold)
	dim := len(env.Build(cfg.Seed).Vector())
	m.Init(env, dim)
	if tensor.Norm2(m.c) != 0 {
		t.Fatal("server control must start at zero")
	}
	hist := fl.Run(env, mustNew(t, "scaffold"))
	if hist.FinalAcc() < 0.5 {
		t.Fatalf("SCAFFOLD failed to learn: %v", hist.FinalAcc())
	}
}

func TestFedGraBGainsTrackImbalance(t *testing.T) {
	// Heavily long-tailed data: the balancer should raise tail-class gains
	// above head-class gains within a few rounds.
	cfg := quickCfg(37, 10)
	env := easyEnv(37, cfg, 4, 8, 0.5, 0.05)
	m := mustNew(t, "fedgrab").(*fedgrab)
	fl.Run(env, m)
	gains := m.gains
	if gains[3] <= gains[0] {
		t.Fatalf("tail gain should exceed head gain: %v", gains)
	}
	for _, g := range gains {
		if g < minGain-1e-9 || g > maxGain+1e-9 {
			t.Fatalf("gain out of clip range: %v", gains)
		}
	}
}

func TestFedCMVariantsApplyConfiguredLoss(t *testing.T) {
	row := func(name string) *averaging {
		t.Helper()
		m, ok := mustNew(t, name).(*fedcm)
		if !ok || m.Name() != name || m.alpha != 0.1 || !m.uniform {
			t.Fatalf("%s is not a uniform FedCM row with α = 0.1", name)
		}
		return &m.averaging
	}
	focal := row("fedcm+focal")
	if focal.lossFor == nil {
		t.Fatal("focal variant misconfigured")
	}
	if _, ok := focal.lossFor(&fl.Client{ClassCounts: []int{1, 1}}).(loss.Focal); !ok {
		t.Fatal("focal variant should build Focal loss")
	}
	bl := row("fedcm+balanceloss")
	if _, ok := bl.lossFor(&fl.Client{ClassCounts: []int{5, 1}}).(*loss.PriorCE); !ok {
		t.Fatal("balance-loss variant should build PriorCE")
	}
	if !row("fedcm+balancesampler").opts.Balanced {
		t.Fatal("balance-sampler variant should enable balanced sampling")
	}
	for _, name := range []string{"fedcm", "fedcm+focal", "fedcm+balanceloss", "fedcm+balancesampler"} {
		if _, ok := mustNew(t, name).(fl.AsyncAggregator); !ok {
			t.Errorf("%s should aggregate async updates itself", name)
		}
	}
	if _, ok := mustNew(t, "mofedsam").(fl.AsyncAggregator); ok {
		t.Error("mofedsam should take the engine's async fallback")
	}
}

// TestLongTailOrdering is the headline end-to-end assertion: on a
// long-tailed, heterogeneous environment with a BatchNorm model, FedWCM
// must not collapse and must beat FedCM, reproducing the paper's core
// claim at miniature scale.
func TestLongTailOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("long-tail ordering run skipped in -short mode")
	}
	run := func(name string) *fl.History {
		spec := data.GaussianSpec{Classes: 6, Dim: 24, Sep: 3.6, Noise: 1.0, SubModes: 2}
		train := spec.Generate(41, 1, data.LongTailCounts(400, 6, 0.05))
		test := spec.Generate(41, 2, data.UniformCounts(60, 6))
		part := partition.EqualQuantity(xrand.New(48), train, 30, 0.1)
		cfg := fl.Config{Rounds: 40, SampleClients: 6, LocalEpochs: 5, BatchSize: 50,
			EtaL: 0.1, EtaG: 1, Seed: 41, EvalEvery: 10}
		env := fl.NewEnv(cfg, train, test, part,
			nn.MLPBuilder(24, []int{32, 16}, 6, true), loss.CrossEntropy{})
		return fl.Run(env, mustNew(t, name))
	}
	cm := run("fedcm")
	wcm := run("fedwcm")
	avg := run("fedavg")
	t.Logf("fedavg=%.3f fedcm=%.3f fedwcm=%.3f", avg.TailMeanAcc(2), cm.TailMeanAcc(2), wcm.TailMeanAcc(2))
	if wcm.TailMeanAcc(2) < cm.TailMeanAcc(2)+0.05 {
		t.Fatalf("FedWCM (%.3f) should clearly beat collapsed FedCM (%.3f) under long tail",
			wcm.TailMeanAcc(2), cm.TailMeanAcc(2))
	}
	if wcm.TailMeanAcc(2) < 0.27 {
		t.Fatalf("FedWCM failed to converge: %.3f", wcm.TailMeanAcc(2))
	}
}
