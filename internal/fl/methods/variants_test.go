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
	opt.quantityWeighted = true
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
	ctx := &fl.ClientCtx{Client: big, Env: env, Net: net, Global: net.Vector(), RNG: xrand.New(1)}
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
	lesam := mkStats(&fedlesam{rho: 0.5})
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
	mo := mk(mustNew(t, "mofedsam"))
	if sam == mo {
		t.Fatal("momentum should change the SAM trajectory")
	}
}

// TestOnlyAlphaRowsKeepMomentum holds the two cores' memory contract: an
// averaging row with alpha keeps one Δ_r the size of the model; a row
// without it (FedAvg, the other plain baselines and the fedavgm, fedgrab and
// scaffold rows that embed averaging) allocates none; and fedlesam, whose
// SAM direction is serverMomentum's Δ_r, keeps one.
func TestOnlyAlphaRowsKeepMomentum(t *testing.T) {
	env := easyEnv(117, quickCfg(117, 1), 3, 4, 1, 1)
	const dim = 50
	rows, lesam := 0, false
	for _, name := range Names() {
		row := mustNew(t, name)
		var m *averaging
		switch v := row.(type) {
		case *averaging:
			m = v
		case *fedcm:
			m = &v.averaging
		case *FedAvgM:
			m = &v.averaging
		case *fedgrab:
			m = &v.averaging
		case *scaffold:
			m = &v.averaging
		case *fedlesam:
			row.Init(env, dim)
			if len(v.momentum) != dim {
				t.Errorf("%s: Δ_r has %d entries, want %d", name, len(v.momentum), dim)
			}
			lesam = true
			continue
		default:
			continue
		}
		rows++
		row.Init(env, dim)
		if m.alpha != 0 && len(m.momentum) != dim {
			t.Errorf("%s: Δ_r has %d entries, want %d", name, len(m.momentum), dim)
		}
		if m.alpha == 0 && cap(m.momentum) != 0 {
			t.Errorf("%s has no alpha but allocated a %d-entry Δ_r", name, cap(m.momentum))
		}
	}
	if rows != 15 || !lesam {
		t.Errorf("%d rows over averaging (want 15), fedlesam seen: %v", rows, lesam)
	}
}

// TestFedLESAMZeroDirectionIsPlainSGD: an armed fedlesam whose Δ_r is all
// zero trains bit for bit as plain local SGD, because the local trainer
// skips a SAM direction of norm ≤ 1e-12. This is why fedlesam can arm on
// serverMomentum's haveMomentum rather than on ‖Δ_r‖ > 0.
func TestFedLESAMZeroDirectionIsPlainSGD(t *testing.T) {
	cfg := quickCfg(119, 1)
	env := easyEnv(119, cfg, 3, 4, 1, 1)
	dim := len(env.Build(cfg.Seed).Vector())
	m := &fedlesam{rho: 0.05}
	m.Init(env, dim)
	m.haveMomentum = true
	train := func(local func(*fl.ClientCtx) *fl.ClientResult) *fl.ClientResult {
		net := env.Build(cfg.Seed)
		ctx := &fl.ClientCtx{Client: env.Clients[0], Env: env, Net: net, Global: net.Vector(), RNG: xrand.New(119)}
		res := local(ctx)
		res.Delta = append([]float64(nil), res.Delta...)
		return res
	}
	plain := train(func(ctx *fl.ClientCtx) *fl.ClientResult { return fl.RunLocalSGD(ctx, fl.LocalOpts{}) })
	same := func(a, b *fl.ClientResult) bool {
		if a.Steps != b.Steps || math.Float64bits(a.MeanLoss) != math.Float64bits(b.MeanLoss) {
			return false
		}
		for j := range a.Delta {
			if math.Float64bits(a.Delta[j]) != math.Float64bits(b.Delta[j]) {
				return false
			}
		}
		return true
	}
	if got := train(m.LocalTrain); got.Steps == 0 || !same(got, plain) {
		t.Fatal("an armed fedlesam with a zero Δ_r differs from plain local SGD")
	}
	m.momentum[0] = 1 // a nonzero Δ_r does perturb
	if same(train(m.LocalTrain), plain) {
		t.Fatal("a nonzero Δ_r left local training unchanged")
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
	m := mustNew(t, "scaffold").(*scaffold)
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
	opt.target = env.GlobalProportions() // target == actual ⇒ no deviation
	m := NewFedWCM(opt)
	m.Init(env, 4)
	first := m.scores[0]
	for _, s := range m.scores {
		if math.Abs(s-first) > 1e-4 {
			t.Fatalf("matched target should equalise scores, got %v", m.scores)
		}
	}
	if m.imbFactor > 1e-6 {
		t.Fatalf("matched target should zero the imbalance factor, got %v", m.imbFactor)
	}
}

func TestFedGraBVariantNamesAndClips(t *testing.T) {
	m := &fedgrab{averaging: averaging{name: "fedgrab"}, rho: 10} // huge step to force clipping
	cfg := quickCfg(115, 6)
	env := easyEnv(115, cfg, 4, 6, 0.5, 0.05)
	fl.Run(env, m)
	for _, g := range m.gains {
		if g < minGain-1e-12 || g > maxGain+1e-12 {
			t.Fatalf("gain escaped clip range: %v", m.gains)
		}
	}
}
