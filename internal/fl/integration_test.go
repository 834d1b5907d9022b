package fl

import (
	"math"
	"testing"

	"fedwcm/internal/tensor"
	"fedwcm/internal/xrand"
)

// cmMethod is a minimal FedCM reimplementation inside the fl package used
// to validate engine-level momentum invariants without importing methods
// (which would create an import cycle in tests).
type cmMethod struct {
	alpha    float64
	env      *Env
	momentum []float64
	have     bool
}

func (m *cmMethod) Name() string { return "test-cm" }
func (m *cmMethod) Init(env *Env, dim int) {
	m.env = env
	m.momentum = make([]float64, dim)
}
func (m *cmMethod) LocalTrain(ctx *ClientCtx) *ClientResult {
	opts := LocalOpts{Alpha: m.alpha}
	if m.have {
		opts.Momentum = m.momentum
	}
	return RunLocalSGD(ctx, opts)
}
func (m *cmMethod) Aggregate(round int, global []float64, results []*ClientResult) {
	w := UniformWeightsInto(nil, len(results))
	WeightedDeltaInto(global, m.env.Cfg.EtaG, results, w)
	MomentumFrom(m.momentum, m.env.Cfg.EtaL, results, w)
	m.have = true
}

// TestMomentumAlphaOneMatchesPlainSGD: with α=1 the momentum term has zero
// weight, so FedCM must follow the exact FedAvg trajectory (uniform
// weights, equal shards).
func TestMomentumAlphaOneMatchesPlainSGD(t *testing.T) {
	mk := func(m Method) []RoundStat {
		cfg := Config{Rounds: 8, SampleClients: 4, LocalEpochs: 2, BatchSize: 20,
			EtaL: 0.1, EtaG: 1, Seed: 71, EvalEvery: 2}
		env := testEnv(71, cfg, 4, 8, 0.5, 0.5)
		return Run(env, m).Stats
	}
	plain := mk(&sgdMethod{})
	cm := mk(&cmMethod{alpha: 1})
	for i := range plain {
		if math.Abs(plain[i].TestAcc-cm[i].TestAcc) > 1e-12 {
			t.Fatalf("alpha=1 momentum diverged from plain SGD at eval %d: %v vs %v",
				i, plain[i].TestAcc, cm[i].TestAcc)
		}
	}
}

// TestMomentumEMARelation: for a single client taking steps with momentum,
// the refreshed momentum must satisfy Δ_{r+1} = α·ḡ + (1−α)·Δ_r exactly
// (the engine's normalisation makes Δ the average per-step direction).
func TestMomentumEMARelation(t *testing.T) {
	cfg := Config{Rounds: 1, LocalEpochs: 1, BatchSize: 1000, EtaL: 0.1, EtaG: 1, Seed: 73}.Defaults()
	env := testEnv(73, cfg, 3, 1, 100, 1) // single client, full batch
	client := env.Clients[0]
	net := env.Build(cfg.Seed)
	global := net.Vector()
	dim := len(global)
	alpha := 0.3
	mom := make([]float64, dim)
	r := xrand.New(74)
	r.FillNorm(mom, 0, 0.01)

	ctx := &ClientCtx{Client: client, Env: env, Net: net, Global: global, RNG: xrand.New(75)}
	res := RunLocalSGD(ctx, LocalOpts{Alpha: alpha, Momentum: mom})
	if res.Steps != 1 {
		t.Fatalf("expected a single full-batch step, got %d", res.Steps)
	}
	// With one step: Delta = η_l·v = η_l(α·g + (1−α)·Δ), so
	// Delta/η_l − (1−α)Δ should equal α·g; we verify the EMA identity by
	// reconstructing v and checking the momentum refresh matches.
	refreshed := make([]float64, dim)
	MomentumFrom(refreshed, cfg.EtaL, []*ClientResult{res}, []float64{1})
	// refreshed = Delta/(η_l·1) = v = α·g + (1−α)·mom
	// so (refreshed − (1−α)·mom)/α must be a valid gradient: finite, and
	// reproducible from a second identical run.
	ctx2 := &ClientCtx{Client: client, Env: env, Net: env.Build(cfg.Seed), Global: global, RNG: xrand.New(75)}
	res2 := RunLocalSGD(ctx2, LocalOpts{Alpha: alpha, Momentum: mom})
	if tensor.L2Dist(res.Delta, res2.Delta) != 0 {
		t.Fatal("identical seeds must reproduce identical deltas")
	}
	for j := range refreshed {
		g := (refreshed[j] - (1-alpha)*mom[j]) / alpha
		if math.IsNaN(g) || math.IsInf(g, 0) {
			t.Fatal("reconstructed gradient not finite")
		}
	}
	// And the pure-momentum component must be visible: with α→0 the delta
	// equals η_l·Δ exactly.
	ctx3 := &ClientCtx{Client: client, Env: env, Net: env.Build(cfg.Seed), Global: global, RNG: xrand.New(75)}
	res3 := RunLocalSGD(ctx3, LocalOpts{Alpha: 1e-12, Momentum: mom})
	for j := range mom {
		want := cfg.EtaL * mom[j]
		if math.Abs(res3.Delta[j]-want) > 1e-9 {
			t.Fatalf("alpha→0 delta[%d]=%v, want η_l·Δ=%v", j, res3.Delta[j], want)
		}
	}
}

// TestSAMPerturbationChangesTrajectory: SAM with a non-trivial radius must
// produce a different (but finite and still-learning) trajectory.
func TestSAMPerturbationChangesTrajectory(t *testing.T) {
	mk := func(rho float64) *History {
		cfg := Config{Rounds: 10, SampleClients: 4, LocalEpochs: 2, BatchSize: 20,
			EtaL: 0.2, EtaG: 1, Seed: 77, EvalEvery: 5}
		env := testEnv(77, cfg, 4, 8, 1, 1)
		return Run(env, &sgdSAM{rho: rho})
	}
	plain := mk(0)
	sam := mk(0.5)
	if plain.FinalAcc() == sam.FinalAcc() {
		t.Fatal("SAM radius should alter the trajectory")
	}
	if sam.FinalAcc() < 0.6 {
		t.Fatalf("SAM should still learn, got %v", sam.FinalAcc())
	}
}

type sgdSAM struct {
	rho float64
	env *Env
}

func (m *sgdSAM) Name() string         { return "test-sam" }
func (m *sgdSAM) Init(env *Env, _ int) { m.env = env }
func (m *sgdSAM) LocalTrain(ctx *ClientCtx) *ClientResult {
	return RunLocalSGD(ctx, LocalOpts{SAMRho: m.rho})
}
func (m *sgdSAM) Aggregate(_ int, global []float64, results []*ClientResult) {
	WeightedDeltaInto(global, m.env.Cfg.EtaG, results, SizeWeightsInto(nil, results))
}

// TestLogitScaleScalesGradientExactly: with a single full-batch step on a
// linear model, the bias-gradient entry of class c scales exactly by
// LogitScale[c] (the FedGraB balancer mechanic).
func TestLogitScaleScalesGradientExactly(t *testing.T) {
	cfg := Config{Rounds: 1, LocalEpochs: 1, BatchSize: 100000, EtaL: 0.1, Seed: 79}.Defaults()
	env := testEnv(79, cfg, 3, 1, 100, 0.2)
	client := env.Clients[0]
	run := func(scale []float64) []float64 {
		net := env.Build(cfg.Seed)
		ctx := &ClientCtx{Client: client, Env: env, Net: net, Global: net.Vector(), RNG: xrand.New(80)}
		return RunLocalSGD(ctx, LocalOpts{LogitScale: scale}).Delta
	}
	base := run([]float64{1, 1, 1})
	boosted := run([]float64{1, 1, 8})
	// flat layout of the softmax model: W (12·3) then B (3); the class-2
	// bias delta is the last entry.
	last := len(base) - 1
	if math.Abs(boosted[last]-8*base[last]) > 1e-9*math.Max(1, math.Abs(base[last])) {
		t.Fatalf("class-2 bias delta should scale 8x: %v vs %v", boosted[last], 8*base[last])
	}
	// unscaled class-0 bias delta unchanged
	if math.Abs(boosted[last-2]-base[last-2]) > 1e-12 {
		t.Fatalf("class-0 bias delta should be unchanged: %v vs %v", boosted[last-2], base[last-2])
	}
}

// TestLRScaleShrinksDelta: halving the local learning rate via LRScale must
// shrink the first-step movement proportionally (single step, so exact).
func TestLRScaleShrinksDelta(t *testing.T) {
	cfg := Config{Rounds: 1, LocalEpochs: 1, BatchSize: 1000, EtaL: 0.1, Seed: 83}.Defaults()
	env := testEnv(83, cfg, 3, 1, 100, 1)
	run := func(scale float64) []float64 {
		net := env.Build(cfg.Seed)
		ctx := &ClientCtx{Client: env.Clients[0], Env: env, Net: net, Global: net.Vector(), RNG: xrand.New(84)}
		return RunLocalSGD(ctx, LocalOpts{LRScale: scale}).Delta
	}
	full := run(1)
	half := run(0.5)
	for j := range full {
		if math.Abs(half[j]*2-full[j]) > 1e-9 {
			t.Fatalf("LRScale not proportional at %d: %v vs %v", j, half[j]*2, full[j])
		}
	}
}
