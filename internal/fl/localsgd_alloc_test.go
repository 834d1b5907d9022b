package fl_test

import (
	"testing"

	"fedwcm/internal/data"
	"fedwcm/internal/fl"
	"fedwcm/internal/fl/methods"
	"fedwcm/internal/loss"
	"fedwcm/internal/nn"
	"fedwcm/internal/partition"
	"fedwcm/internal/xrand"
)

// TestWarmLocalRoundAllocatesNothing: once a worker's scratch and network
// have served one client round, the next round of that client — a table
// cell's shape: BatchNorm MLP, 210 samples, batch 50 with a short last
// batch, 5 epochs — allocates nothing, with either sampler, with each loss
// and with each option that transforms the gradient before the step, at
// any core count: no kernel spawns a goroutine.
func TestWarmLocalRoundAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("tensor's GEMM panel sync.Pool drops Puts under -race: a warm round measured 79 allocations there")
	}
	ctx := warmRoundCtx()
	net, global, scratch, rng := ctx.Net, ctx.Global, ctx.Scratch, ctx.RNG
	dir := make([]float64, len(global))
	xrand.New(3).FillNorm(dir, 0, 0.01)
	for _, tc := range []struct {
		name string
		opts fl.LocalOpts
	}{
		{"shuffle", fl.LocalOpts{}},
		{"balanced", fl.LocalOpts{Balanced: true}},
		{"focal", fl.LocalOpts{Loss: loss.Focal{Gamma: 2}}},
		{"priorce", fl.LocalOpts{Loss: loss.NewPriorCE(1, []float64{30, 20, 20, 20, 20, 20, 20, 20, 20, 10})}},
		{"momentum", fl.LocalOpts{Alpha: 0.1, Momentum: dir}},
		{"prox", fl.LocalOpts{ProxMu: 0.01}},
		{"sam", fl.LocalOpts{SAMRho: 0.05}},
		{"sam-global-dir", fl.LocalOpts{SAMRho: 0.05, SAMGlobalDir: dir}},
		{"correction", fl.LocalOpts{Correction: dir}},
	} {
		round := 0
		localRound := func() {
			round++
			scratch.Reset()
			net.SetVector(global)
			rng.Seed(xrand.DeriveSeed(1, uint64(round), 0, 0xc11e))
			if res := fl.RunLocalSGD(ctx, tc.opts); res.Steps != 25 {
				t.Fatalf("%s: %d steps, want 25", tc.name, res.Steps)
			}
		}
		localRound()
		if allocs := testing.AllocsPerRun(5, localRound); allocs != 0 {
			t.Errorf("%s: a warm client round allocates %v objects, want 0", tc.name, allocs)
		}
	}
}

// warmRoundCtx is TestWarmLocalRoundAllocatesNothing's client: one client
// of a table cell's shape on a worker's network, scratch and RNG.
func warmRoundCtx() *fl.ClientCtx {
	spec := data.GaussianSpec{Classes: 10, Dim: 48, Sep: 3.6, Noise: 1, SubModes: 2}
	train := spec.Generate(1, 1, data.UniformCounts(21, 10))
	test := spec.Generate(1, 2, data.UniformCounts(5, 10))
	part := partition.EqualQuantity(xrand.New(2), train, 1, 0.3)
	cfg := fl.Config{Rounds: 1, LocalEpochs: 5, BatchSize: 50, EtaL: 0.1, EtaG: 1, Seed: 1}
	env := fl.NewEnv(cfg, train, test, part, nn.MLPBuilder(48, []int{64, 32}, 10, true), loss.CrossEntropy{})
	net := env.Build(1)
	global := net.Vector()
	return &fl.ClientCtx{Client: env.Clients[0], Env: env, Net: net, Global: global,
		RNG: xrand.New(0), Scratch: fl.NewClientScratch(len(global))}
}

// TestWarmLocalRoundOfSCAFFOLDAllocatesNothing: SCAFFOLD refreshes a
// client's control variate in place and writes the control update into a
// buffer it keeps from Init, so its warm client round, aggregation
// included, allocates nothing either.
func TestWarmLocalRoundOfSCAFFOLDAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("tensor's GEMM panel sync.Pool drops Puts under -race")
	}
	ctx := warmRoundCtx()
	m, err := methods.New("scaffold")
	if err != nil {
		t.Fatal(err)
	}
	m.Init(ctx.Env, len(ctx.Global))
	results := make([]*fl.ClientResult, 1)
	round := 0
	localRound := func() {
		round++
		ctx.Scratch.Reset()
		ctx.Net.SetVector(ctx.Global)
		ctx.RNG.Seed(xrand.DeriveSeed(1, uint64(round), 0, 0xc11e))
		results[0] = m.LocalTrain(ctx)
		if results[0].Payload == nil {
			t.Fatal("SCAFFOLD sent no control update")
		}
		m.Aggregate(round, ctx.Global, results)
	}
	localRound()
	if allocs := testing.AllocsPerRun(5, localRound); allocs != 0 {
		t.Errorf("a warm SCAFFOLD round allocates %v objects, want 0", allocs)
	}
}
