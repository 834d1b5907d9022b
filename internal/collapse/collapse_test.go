package collapse

import (
	"math"
	"testing"

	"fedwcm/internal/data"
	"fedwcm/internal/fl"
	"fedwcm/internal/nn"
	"fedwcm/internal/partition"
	"fedwcm/internal/tensor"
	"fedwcm/internal/xrand"
)

func TestUnitConcentrationBounds(t *testing.T) {
	// uniform activation mass → 1
	uniform := tensor.NewDense(4, 8)
	tensor.Fill(uniform.Data, 0.5)
	if got := unitConcentration(uniform); math.Abs(got-1) > 1e-9 {
		t.Fatalf("uniform concentration %v, want 1", got)
	}
	// single dominant unit → D
	spike := tensor.NewDense(4, 8)
	for s := 0; s < 4; s++ {
		spike.Row(s)[3] = 5
	}
	if got := unitConcentration(spike); math.Abs(got-8) > 1e-9 {
		t.Fatalf("spike concentration %v, want 8", got)
	}
	// dead layer treated as fully collapsed
	dead := tensor.NewDense(2, 8)
	if got := unitConcentration(dead); got != 8 {
		t.Fatalf("dead layer concentration %v, want 8", got)
	}
}

func TestUnitConcentrationOrdering(t *testing.T) {
	r := xrand.New(1)
	flat := tensor.NewDense(16, 32)
	r.FillNorm(flat.Data, 0, 1)
	skewed := tensor.FromSlice(flat.R, flat.C, tensor.CopyVec(flat.Data))
	// amplify a few columns
	for s := 0; s < skewed.R; s++ {
		row := skewed.Row(s)
		for j := 0; j < 3; j++ {
			row[j] *= 40
		}
	}
	if unitConcentration(skewed) <= unitConcentration(flat) {
		t.Fatal("amplifying a few units must raise concentration")
	}
}

func TestConcentrationMeasuresActivationLayers(t *testing.T) {
	net := nn.NewMLP(3, 6, []int{10, 8}, 4, false)
	x := tensor.NewDense(5, 6)
	xrand.New(4).FillNorm(x.Data, 0, 1)
	rep := Concentration(net, x)
	if len(rep.PerLayer) != 2 { // two ReLU layers
		t.Fatalf("expected 2 measured layers, got %d", len(rep.PerLayer))
	}
	if rep.Mean <= 0 {
		t.Fatal("mean concentration should be positive")
	}
	for _, v := range rep.PerLayer {
		if v < 1-1e-9 {
			t.Fatalf("concentration below lower bound: %v", v)
		}
	}
}

func TestConcentrationLinearModelFallback(t *testing.T) {
	net := nn.NewSoftmaxRegression(5, 6, 3)
	x := tensor.NewDense(4, 6)
	xrand.New(5).FillNorm(x.Data, 0, 1)
	rep := Concentration(net, x)
	if len(rep.PerLayer) != 1 {
		t.Fatalf("linear model should measure its single layer, got %d", len(rep.PerLayer))
	}
}

func TestProbeRecordsSeries(t *testing.T) {
	spec := data.GaussianSpec{Classes: 3, Dim: 8, Sep: 3, Noise: 0.8}
	train := spec.Generate(9, 1, data.UniformCounts(40, 3))
	test := spec.Generate(9, 2, data.UniformCounts(20, 3))
	part := partition.EqualQuantity(xrand.New(10), train, 4, 1)
	cfg := fl.Config{Rounds: 6, SampleClients: 2, LocalEpochs: 1, BatchSize: 20, Seed: 11, EvalEvery: 2}
	env := fl.NewEnv(cfg, train, test, part, nn.MLPBuilder(8, []int{12}, 3, false), nil)
	env.Probes = append(env.Probes, Probe(ProbeBatch(test, 30)))
	hist := fl.Run(env, &simpleFedAvg{})
	if len(hist.Stats) != 3 || hist.Stats[0].Round != 2 || hist.Stats[2].Round != 6 {
		t.Fatalf("expected probe points at rounds 2,4,6, got %+v", hist.Stats)
	}
	for i, st := range hist.Stats {
		m, ok := st.Metrics["concentration"]
		if !ok || m < 1-1e-9 {
			t.Fatalf("probe %d concentration %v (recorded %v) below bound", i, m, ok)
		}
		// one hidden activation: the mean is that layer's reading
		if layer, ok := st.Metrics["concentration/act1"]; !ok || layer != m {
			t.Fatalf("probe %d: single-layer mean %v != act1 %v", i, m, layer)
		}
		if _, ok := st.Metrics["concentration/act2"]; ok {
			t.Fatalf("network has one activation layer, got act2 at round %d", st.Round)
		}
	}
}

// simpleFedAvg is a minimal method for probe tests.
type simpleFedAvg struct {
	env *fl.Env
}

func (m *simpleFedAvg) Name() string            { return "probe-fedavg" }
func (m *simpleFedAvg) Init(env *fl.Env, _ int) { m.env = env }
func (m *simpleFedAvg) LocalTrain(ctx *fl.ClientCtx) *fl.ClientResult {
	return fl.RunLocalSGD(ctx, fl.LocalOpts{})
}
func (m *simpleFedAvg) Aggregate(_ int, global []float64, results []*fl.ClientResult) {
	fl.WeightedDeltaInto(global, m.env.Cfg.EtaG, results, fl.SizeWeightsInto(nil, results))
}

func TestProbeBatchBounds(t *testing.T) {
	spec := data.GaussianSpec{Classes: 2, Dim: 4, Sep: 2, Noise: 1}
	ds := spec.Generate(12, 1, []int{5, 5})
	if ProbeBatch(ds, 100).R != 10 {
		t.Fatal("probe batch should clamp to dataset size")
	}
	if ProbeBatch(ds, 3).R != 3 {
		t.Fatal("probe batch should respect n")
	}
}
