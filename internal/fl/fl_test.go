package fl

import (
	"context"
	"math"
	"testing"

	"fedwcm/internal/data"
	"fedwcm/internal/loss"
	"fedwcm/internal/nn"
	"fedwcm/internal/partition"
	"fedwcm/internal/tensor"
	"fedwcm/internal/xrand"
)

// testEnv builds a small, easy federated environment: separable Gaussian
// classes, linear model.
func testEnv(seed uint64, cfg Config, classes, clients int, beta, imbalance float64) *Env {
	spec := data.GaussianSpec{Classes: classes, Dim: 12, Sep: 3.5, Noise: 0.8}
	trainCounts := data.LongTailCounts(120, classes, imbalance)
	train := spec.Generate(seed, 1, trainCounts)
	test := spec.Generate(seed, 2, data.UniformCounts(40, classes))
	part := partition.EqualQuantity(xrand.New(seed+7), train, clients, beta)
	build := nn.SoftmaxBuilder(12, classes)
	return NewEnv(cfg, train, test, part, build, loss.CrossEntropy{})
}

// sgdMethod is a minimal FedAvg-like method used to exercise the engine.
type sgdMethod struct {
	env  *Env
	opts LocalOpts
}

func (m *sgdMethod) Name() string           { return "test-sgd" }
func (m *sgdMethod) Init(env *Env, dim int) { m.env = env }
func (m *sgdMethod) LocalTrain(ctx *ClientCtx) *ClientResult {
	return RunLocalSGD(ctx, m.opts)
}
func (m *sgdMethod) Aggregate(round int, global []float64, results []*ClientResult) {
	WeightedDeltaInto(global, m.env.Cfg.EtaG, results, SizeWeightsInto(nil, results))
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.Rounds == 0 || c.BatchSize == 0 || c.EtaL == 0 || c.EtaG == 0 || c.Workers == 0 {
		t.Fatalf("defaults not filled: %+v", c)
	}
	c2 := Config{Rounds: 7}.Defaults()
	if c2.Rounds != 7 {
		t.Fatal("explicit values must be preserved")
	}
}

func TestEnvClientViews(t *testing.T) {
	env := testEnv(1, Config{Rounds: 1}, 4, 6, 0.5, 1)
	total := 0
	for _, c := range env.Clients {
		total += c.N
		if c.N != len(c.Indices) {
			t.Fatal("client N mismatch")
		}
		sum := 0
		for _, n := range c.ClassCounts {
			sum += n
		}
		if sum != c.N {
			t.Fatal("class counts don't sum to N")
		}
	}
	if total != env.Train.Len() {
		t.Fatalf("clients own %d of %d samples", total, env.Train.Len())
	}
	gp := env.GlobalProportions()
	if math.Abs(tensor.Sum(gp)-1) > 1e-9 {
		t.Fatalf("global proportions sum %v", tensor.Sum(gp))
	}
	if env.TotalSamples() != env.Train.Len() {
		t.Fatal("TotalSamples mismatch")
	}
}

func TestRunLocalSGDDeltaConsistency(t *testing.T) {
	env := testEnv(2, Config{Rounds: 1, LocalEpochs: 2, BatchSize: 16}, 3, 4, 1, 1)
	net := env.Build(env.Cfg.Seed)
	global := net.Vector()
	ctx := &ClientCtx{
		Client: env.Clients[0], Env: env, Net: net,
		Global: global, RNG: xrand.New(3),
	}
	res := RunLocalSGD(ctx, LocalOpts{})
	if res.Steps == 0 {
		t.Fatal("no local steps taken")
	}
	// Delta must equal global - x_end
	xEnd := net.Vector()
	for j := range global {
		want := global[j] - xEnd[j]
		if math.Abs(res.Delta[j]-want) > 1e-12 {
			t.Fatalf("delta[%d]=%v want %v", j, res.Delta[j], want)
		}
	}
	if res.MeanLoss <= 0 {
		t.Fatal("mean loss should be positive on random init")
	}
	if res.N != env.Clients[0].N {
		t.Fatal("sample count mismatch")
	}
}

func TestRunLocalSGDStepsCount(t *testing.T) {
	cfg := Config{Rounds: 1, LocalEpochs: 3, BatchSize: 10}
	env := testEnv(4, cfg, 3, 4, 1, 1)
	client := env.Clients[0]
	net := env.Build(env.Cfg.Seed)
	ctx := &ClientCtx{Client: client, Env: env, Net: net, Global: net.Vector(), RNG: xrand.New(5)}
	res := RunLocalSGD(ctx, LocalOpts{})
	wantBatches := (client.N + 9) / 10
	if res.Steps != 3*wantBatches {
		t.Fatalf("steps=%d, want %d", res.Steps, 3*wantBatches)
	}
}

func TestRunLocalSGDMomentumPullsTowardDirection(t *testing.T) {
	// With alpha ~ 0, local updates should follow the provided momentum
	// direction almost exactly.
	env := testEnv(6, Config{Rounds: 1, LocalEpochs: 1, BatchSize: 50, EtaL: 0.1}, 3, 4, 1, 1)
	net := env.Build(env.Cfg.Seed)
	global := net.Vector()
	dim := len(global)
	dir := make([]float64, dim)
	r := xrand.New(7)
	r.FillNorm(dir, 0, 1)
	ctx := &ClientCtx{Client: env.Clients[0], Env: env, Net: net, Global: global, RNG: xrand.New(8)}
	res := RunLocalSGD(ctx, LocalOpts{Alpha: 0.01, Momentum: dir})
	// Delta ≈ etaL·steps·dir (for stat-free linear model)
	cos := tensor.Dot(res.Delta, dir) / (tensor.Norm2(res.Delta) * tensor.Norm2(dir))
	if cos < 0.99 {
		t.Fatalf("delta should align with momentum at alpha≈0, cos=%v", cos)
	}
}

func TestRunLocalSGDProxShrinksDrift(t *testing.T) {
	cfg := Config{Rounds: 1, LocalEpochs: 5, BatchSize: 20, EtaL: 0.2}
	env := testEnv(9, cfg, 3, 4, 0.3, 1)
	run := func(mu float64) float64 {
		net := env.Build(env.Cfg.Seed)
		ctx := &ClientCtx{Client: env.Clients[1], Env: env, Net: net, Global: net.Vector(), RNG: xrand.New(10)}
		res := RunLocalSGD(ctx, LocalOpts{ProxMu: mu})
		return tensor.Norm2(res.Delta)
	}
	free := run(0)
	proxed := run(1.0)
	if proxed >= free {
		t.Fatalf("prox term should shrink local drift: %v vs %v", proxed, free)
	}
}

func TestRunLocalSGDCorrectionApplied(t *testing.T) {
	// A huge constant correction should dominate the update direction.
	env := testEnv(11, Config{Rounds: 1, LocalEpochs: 1, BatchSize: 50, EtaL: 0.01}, 3, 4, 1, 1)
	net := env.Build(env.Cfg.Seed)
	global := net.Vector()
	corr := make([]float64, len(global))
	for j := range corr {
		corr[j] = 100
	}
	ctx := &ClientCtx{Client: env.Clients[0], Env: env, Net: net, Global: global, RNG: xrand.New(12)}
	res := RunLocalSGD(ctx, LocalOpts{Correction: corr})
	for j := range res.Delta {
		if res.Delta[j] <= 0 {
			t.Fatalf("correction should force positive delta everywhere, got %v at %d", res.Delta[j], j)
		}
	}
}

func TestRunLocalSGDEmptyClient(t *testing.T) {
	env := testEnv(13, Config{Rounds: 1}, 3, 4, 1, 1)
	empty := &Client{ID: 99, ClassCounts: make([]int, 3)}
	net := env.Build(env.Cfg.Seed)
	ctx := &ClientCtx{Client: empty, Env: env, Net: net, Global: net.Vector(), RNG: xrand.New(14)}
	res := RunLocalSGD(ctx, LocalOpts{})
	if res.Steps != 0 || tensor.Norm2(res.Delta) != 0 {
		t.Fatal("empty client must contribute nothing")
	}
}

func TestRunLocalSGDTrackPreds(t *testing.T) {
	env := testEnv(15, Config{Rounds: 1, LocalEpochs: 1, BatchSize: 10}, 3, 4, 1, 1)
	net := env.Build(env.Cfg.Seed)
	ctx := &ClientCtx{Client: env.Clients[0], Env: env, Net: net, Global: net.Vector(), RNG: xrand.New(16)}
	res := RunLocalSGD(ctx, LocalOpts{TrackPreds: true})
	if res.PredHist == nil {
		t.Fatal("PredHist missing")
	}
	total := tensor.Sum(res.PredHist)
	if int(total) != res.Steps*10 && int(total) != env.Clients[0].N {
		// one epoch over N samples in batches of 10 → N predictions
		if int(total) != env.Clients[0].N {
			t.Fatalf("pred histogram total %v, want %d", total, env.Clients[0].N)
		}
	}
}

func TestWeightHelpers(t *testing.T) {
	results := []*ClientResult{{N: 10}, {N: 30}}
	w := SizeWeightsInto(nil, results)
	if math.Abs(w[0]-0.25) > 1e-12 || math.Abs(w[1]-0.75) > 1e-12 {
		t.Fatalf("SizeWeightsInto %v", w)
	}
	u := UniformWeightsInto(nil, 4)
	for _, v := range u {
		if v != 0.25 {
			t.Fatalf("UniformWeightsInto %v", u)
		}
	}
}

func TestWeightedDeltaIntoMath(t *testing.T) {
	global := []float64{10, 10}
	results := []*ClientResult{
		{Delta: []float64{1, 0}},
		{Delta: []float64{0, 2}},
	}
	WeightedDeltaInto(global, 2, results, []float64{0.5, 0.5})
	if global[0] != 9 || global[1] != 8 {
		t.Fatalf("WeightedDeltaInto got %v", global)
	}
}

func TestMomentumFromMath(t *testing.T) {
	dst := make([]float64, 2)
	results := []*ClientResult{
		{Delta: []float64{1, 2}, Steps: 10},
		{Delta: []float64{3, 4}, Steps: 10},
	}
	MomentumFrom(dst, 0.1, results, []float64{0.5, 0.5})
	// Δ = 0.5·(1,2)/(0.1·10) + 0.5·(3,4)/1 = (2, 3)
	if math.Abs(dst[0]-2) > 1e-12 || math.Abs(dst[1]-3) > 1e-12 {
		t.Fatalf("MomentumFrom got %v", dst)
	}
}

func TestEvaluatePerfectAndPerClass(t *testing.T) {
	// Build a "network" whose weights are set so class = argmax of input
	// prototype dot products; on separable data this is near-perfect.
	spec := data.GaussianSpec{Classes: 3, Dim: 6, Sep: 5, Noise: 0.2}
	test := spec.Generate(21, 2, data.UniformCounts(30, 3))
	net := nn.NewSoftmaxRegression(22, 6, 3)
	// train quickly on a big batch
	train := spec.Generate(21, 1, data.UniformCounts(100, 3))
	ce := loss.CrossEntropy{}
	for i := 0; i < 200; i++ {
		net.ZeroGrad()
		logits := net.Forward(train.X, true)
		_, dl := ce.LossAndGrad(logits, train.Y)
		net.Backward(dl)
		net.Step(0.5)
	}
	acc, perClass := Evaluate(net, test, 16)
	if acc < 0.95 {
		t.Fatalf("evaluate accuracy %v on separable data", acc)
	}
	if len(perClass) != 3 {
		t.Fatalf("per-class length %d", len(perClass))
	}
	mean := tensor.Mean(perClass)
	if math.Abs(mean-acc) > 1e-9 {
		t.Fatalf("balanced test: mean per-class %v should equal acc %v", mean, acc)
	}
}

func TestHistoryHelpers(t *testing.T) {
	h := &History{Method: "m", Stats: []RoundStat{
		{Round: 5, TestAcc: 0.3},
		{Round: 10, TestAcc: 0.6},
		{Round: 15, TestAcc: 0.5},
	}}
	if h.FinalAcc() != 0.5 || h.BestAcc() != 0.6 {
		t.Fatalf("final=%v best=%v", h.FinalAcc(), h.BestAcc())
	}
	if math.Abs(h.TailMeanAcc(2)-0.55) > 1e-12 {
		t.Fatalf("TailMeanAcc got %v", h.TailMeanAcc(2))
	}
	if h.String() == "" {
		t.Fatal("String empty")
	}
	empty := &History{}
	if empty.FinalAcc() != 0 || empty.TailMeanAcc(3) != 0 {
		t.Fatal("empty history helpers should return 0")
	}
}

func TestRunConvergesIID(t *testing.T) {
	cfg := Config{Rounds: 20, SampleClients: 4, LocalEpochs: 2, BatchSize: 20, EtaL: 0.2, EtaG: 1, Seed: 31, EvalEvery: 5}
	env := testEnv(31, cfg, 4, 8, 100, 1) // near-IID
	hist := Run(env, &sgdMethod{})
	if hist.FinalAcc() < 0.85 {
		t.Fatalf("FedAvg-style run should learn separable IID data, got %v", hist.FinalAcc())
	}
	if len(hist.Stats) != 4 {
		t.Fatalf("expected 4 evals, got %d", len(hist.Stats))
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	mk := func(workers int) *History {
		cfg := Config{Rounds: 6, SampleClients: 5, LocalEpochs: 1, BatchSize: 20, EtaL: 0.1, EtaG: 1, Seed: 33, EvalEvery: 2, Workers: workers}
		env := testEnv(33, cfg, 3, 10, 0.5, 0.5)
		return Run(env, &sgdMethod{})
	}
	serial := mk(1)
	parallel := mk(8)
	if len(serial.Stats) != len(parallel.Stats) {
		t.Fatal("different eval counts")
	}
	for i := range serial.Stats {
		if math.Abs(serial.Stats[i].TestAcc-parallel.Stats[i].TestAcc) > 1e-12 {
			t.Fatalf("worker count changed results at eval %d: %v vs %v",
				i, serial.Stats[i].TestAcc, parallel.Stats[i].TestAcc)
		}
	}
}

func TestRunSameSeedSameHistory(t *testing.T) {
	mk := func() *History {
		cfg := Config{Rounds: 5, SampleClients: 3, LocalEpochs: 1, BatchSize: 20, Seed: 35, EvalEvery: 5}
		env := testEnv(35, cfg, 3, 6, 0.5, 0.5)
		return Run(env, &sgdMethod{})
	}
	a, b := mk(), mk()
	for i := range a.Stats {
		if a.Stats[i].TestAcc != b.Stats[i].TestAcc {
			t.Fatal("same seed produced different histories")
		}
	}
}

// reportingSGD counts RoundMetrics calls, so a test can tell how often the
// engine snapshots a MetricsReporter.
type reportingSGD struct {
	sgdMethod
	reports int
}

func (m *reportingSGD) RoundMetrics() map[string]float64 {
	m.reports++
	return map[string]float64{"reports": float64(m.reports)}
}

// TestRunInvokesProbes: under either scheduler every recorded RoundStat
// fires each probe, one RoundMetrics snapshot and one onRound call — exactly
// once — and the probe's reading lands in that stat's Metrics beside the
// method's own.
func TestRunInvokesProbes(t *testing.T) {
	for name, async := range map[string]*AsyncConfig{"barrier": nil, "events": {K: 1}} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Rounds: 5, SampleClients: 2, LocalEpochs: 1, BatchSize: 20, Seed: 37, EvalEvery: 2, Async: async}
			env := testEnv(37, cfg, 3, 4, 1, 1)
			probed := 0
			var progressed []int
			env.Probes = append(env.Probes, func(net *nn.Network, metrics map[string]float64) {
				probed++
				metrics["probed"] = float64(probed)
			})
			m := &reportingSGD{}
			hist, _ := RunWithProgressCtx(context.Background(), env, m, func(st RoundStat) { progressed = append(progressed, st.Round) })
			want := []int{2, 4, 5} // every EvalEvery-th version, and the last
			if len(hist.Stats) != len(want) || m.reports != len(want) {
				t.Fatalf("%d stats and %d RoundMetrics calls, want %d of each", len(hist.Stats), m.reports, len(want))
			}
			if probed != len(want) || len(progressed) != len(want) {
				t.Fatalf("%d probe calls and onRound %v, want %v", probed, progressed, want)
			}
			for i, st := range hist.Stats {
				if st.Round != want[i] || progressed[i] != want[i] || st.Metrics["reports"] != float64(i+1) || st.Metrics["probed"] != float64(i+1) {
					t.Fatalf("stat %d: round %d, onRound %v, metrics %v; want round %d", i, st.Round, progressed, st.Metrics, want[i])
				}
			}
		})
	}
}

// TestProbeOnlyMetrics: a probe on a method that reports nothing still gets
// a map to write into, and a run with neither allocates none.
func TestProbeOnlyMetrics(t *testing.T) {
	cfg := Config{Rounds: 2, SampleClients: 2, LocalEpochs: 1, BatchSize: 20, Seed: 38, EvalEvery: 1}
	env := testEnv(38, cfg, 3, 4, 1, 1)
	if hist := Run(env, &sgdMethod{}); hist.Stats[0].Metrics != nil {
		t.Fatalf("probe-less run of a silent method carries metrics %v", hist.Stats[0].Metrics)
	}
	env.Probes = []Probe{func(net *nn.Network, metrics map[string]float64) { metrics["one"] = 1 }}
	if hist := Run(env, &sgdMethod{}); hist.Stats[1].Metrics["one"] != 1 {
		t.Fatalf("probe reading missing: %v", hist.Stats[1].Metrics)
	}
}

func TestBalancedOptTrainsOnAllClasses(t *testing.T) {
	// A client with 95:5 imbalance using the balanced sampler should see
	// both classes roughly equally during training.
	spec := data.GaussianSpec{Classes: 2, Dim: 4, Sep: 3, Noise: 0.5}
	train := spec.Generate(41, 1, []int{95, 5})
	test := spec.Generate(41, 2, data.UniformCounts(20, 2))
	part := partition.EqualQuantity(xrand.New(42), train, 1, 100)
	cfg := Config{Rounds: 1, LocalEpochs: 2, BatchSize: 10, Seed: 43}
	env := NewEnv(cfg, train, test, part, nn.SoftmaxBuilder(4, 2), nil)
	net := env.Build(cfg.Seed)
	ctx := &ClientCtx{Client: env.Clients[0], Env: env, Net: net, Global: net.Vector(), RNG: xrand.New(44)}
	res := RunLocalSGD(ctx, LocalOpts{Balanced: true, TrackPreds: true})
	if res.Steps == 0 {
		t.Fatal("no steps")
	}
}
