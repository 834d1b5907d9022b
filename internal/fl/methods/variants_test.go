package methods

import (
	"math"
	"testing"

	"fedwcm/internal/fl"
	"fedwcm/internal/tensor"
	"fedwcm/internal/xrand"
)

func TestFedWCMXScalesLearningRateByShardSize(t *testing.T) {
	// Two clients with very different shard sizes: FedWCM-X must take
	// proportionally smaller steps on the bigger shard (η'_l = η_l·B̂/B_k).
	cfg := quickCfg(101, 1)
	env := easyEnv(101, cfg, 3, 6, 1, 1)
	opt := DefaultWCMOptions()
	opt.QuantityWeighted = true
	m := NewFedWCM(opt)
	dim := len(env.Build(cfg.Seed).Vector())
	m.Init(env, dim)
	// Build a fake big client and small client view over the same env.
	big := env.Clients[0]
	// refSteps corresponds to the equal-split shard; a client with twice
	// the batches should get LRScale 0.5. We verify through the internal
	// computation: refSteps set at Init.
	batches := math.Ceil(float64(big.N) / float64(cfg.BatchSize))
	steps := batches * float64(cfg.LocalEpochs)
	wantScale := m.refSteps / steps
	if wantScale <= 0 {
		t.Fatalf("bad reference steps %v", m.refSteps)
	}
	net := env.Build(cfg.Seed)
	ctx := &fl.ClientCtx{Round: 0, Client: big, Env: env, Net: net, Global: net.Vector(), RNG: xrand.New(1)}
	res := m.LocalTrain(ctx)
	if res.Steps == 0 {
		t.Fatal("no steps")
	}
}

func TestFedLESAMFirstRoundFallsBackToPlainSGD(t *testing.T) {
	// Before any aggregate exists, FedLESAM has no global direction and
	// must behave exactly like FedAvg for the first round.
	mkStats := func(m fl.Method) []fl.RoundStat {
		cfg := quickCfg(103, 1)
		cfg.EvalEvery = 1
		env := easyEnv(103, cfg, 3, 6, 1, 1)
		return fl.Run(env, m).Stats
	}
	lesam := mkStats(NewFedLESAM(0.5))
	avg := mkStats(mustNew(t, "fedavg"))
	if math.Abs(lesam[0].TestAcc-avg[0].TestAcc) > 1e-12 {
		t.Fatalf("FedLESAM round 1 should equal FedAvg: %v vs %v",
			lesam[0].TestAcc, avg[0].TestAcc)
	}
}

func TestMoFedSAMDiffersFromFedSAM(t *testing.T) {
	mk := func(m fl.Method) float64 {
		env := easyEnv(105, quickCfg(105, 6), 3, 6, 0.5, 0.5)
		return fl.Run(env, m).FinalAcc()
	}
	sam := mk(mustNew(t, "fedsam"))
	mo := mk(NewMoFedSAM(0.1, 0.05))
	if sam == mo {
		t.Fatal("momentum should change the SAM trajectory")
	}
}

func TestFedDynAccumulatesClientState(t *testing.T) {
	cfg := quickCfg(107, 4)
	env := easyEnv(107, cfg, 3, 4, 1, 1)
	m := mustNew(t, "feddyn").(*averaging)
	fl.Run(env, m)
	nonZero := 0
	for _, h := range m.h {
		if tensor.Norm2(h) > 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Fatal("FedDyn client states never updated")
	}
}

func TestSCAFFOLDServerControlMoves(t *testing.T) {
	cfg := quickCfg(109, 5)
	env := easyEnv(109, cfg, 3, 6, 0.5, 1)
	m := NewSCAFFOLD()
	fl.Run(env, m)
	if tensor.Norm2(m.c) == 0 {
		t.Fatal("server control variate never moved")
	}
	// participating clients must have non-zero controls; with 5 rounds × 5
	// sampled of 6 clients, almost surely all were touched.
	touched := 0
	for _, ci := range m.ci {
		if tensor.Norm2(ci) > 0 {
			touched++
		}
	}
	if touched < len(m.ci)/2 {
		t.Fatalf("only %d/%d client controls updated", touched, len(m.ci))
	}
}

func TestFedWCMMetricsReported(t *testing.T) {
	cfg := quickCfg(111, 3)
	cfg.EvalEvery = 1
	env := easyEnv(111, cfg, 4, 6, 0.5, 0.1)
	hist := fl.Run(env, NewFedWCM(DefaultWCMOptions()))
	for _, s := range hist.Stats {
		for _, key := range []string{"alpha", "q", "wmax"} {
			if _, ok := s.Metrics[key]; !ok {
				t.Fatalf("round %d missing metric %q", s.Round, key)
			}
		}
		if s.Metrics["wmax"] <= 0 || s.Metrics["wmax"] > 1 {
			t.Fatalf("wmax out of range: %v", s.Metrics["wmax"])
		}
	}
}

func TestFedWCMTargetDistributionOverride(t *testing.T) {
	// A non-uniform target (§5.1: "users can adjust it based on the prior
	// distribution") must change the scoring: with the target equal to the
	// actual global distribution, all clients score identically.
	cfg := quickCfg(113, 1)
	env := easyEnv(113, cfg, 4, 6, 0.5, 0.1)
	opt := DefaultWCMOptions()
	opt.Target = env.GlobalProportions() // target == actual ⇒ no deviation
	m := NewFedWCM(opt)
	m.Init(env, 4)
	first := m.Scores()[0]
	for _, s := range m.Scores() {
		if math.Abs(s-first) > 1e-4 {
			t.Fatalf("matched target should equalise scores, got %v", m.Scores())
		}
	}
	if m.imbFactor > 1e-6 {
		t.Fatalf("matched target should zero the imbalance factor, got %v", m.imbFactor)
	}
}

func TestFedGraBVariantNamesAndClips(t *testing.T) {
	m := NewFedGraB(10) // huge step to force clipping
	cfg := quickCfg(115, 6)
	env := easyEnv(115, cfg, 4, 6, 0.5, 0.05)
	fl.Run(env, m)
	for _, g := range m.Gains() {
		if g < minGain-1e-12 || g > maxGain+1e-12 {
			t.Fatalf("gain escaped clip range: %v", m.Gains())
		}
	}
}
