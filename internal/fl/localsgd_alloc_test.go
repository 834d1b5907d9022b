package fl_test

import (
	"testing"

	"fedwcm/internal/data"
	"fedwcm/internal/fl"
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
	spec := data.GaussianSpec{Classes: 10, Dim: 48, Sep: 3.6, Noise: 1, SubModes: 2}
	train := spec.Generate(1, 1, data.UniformCounts(21, 10))
	test := spec.Generate(1, 2, data.UniformCounts(5, 10))
	part := partition.EqualQuantity(xrand.New(2), train, 1, 0.3)
	cfg := fl.Config{Rounds: 1, LocalEpochs: 5, BatchSize: 50, EtaL: 0.1, Seed: 1}
	env := fl.NewEnv(cfg, train, test, part, nn.MLPBuilder(48, []int{64, 32}, 10, true), loss.CrossEntropy{})
	client := env.Clients[0]

	net := env.Build(1)
	global := net.Vector()
	scratch := fl.NewClientScratch(len(global))
	rng := xrand.New(0)
	ctx := fl.ClientCtx{Client: client, Env: env, Net: net, Global: global, RNG: rng, Scratch: scratch}
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
			if res := fl.RunLocalSGD(&ctx, tc.opts); res.Steps != 25 {
				t.Fatalf("%s: %d steps, want 25", tc.name, res.Steps)
			}
		}
		localRound()
		if allocs := testing.AllocsPerRun(5, localRound); allocs != 0 {
			t.Errorf("%s: a warm client round allocates %v objects, want 0", tc.name, allocs)
		}
	}
}
