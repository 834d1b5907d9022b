// Package fedwcm's top-level benchmarks regenerate every table and figure
// of the paper at reduced effort (same shape, fraction of the cost) and
// time the system's hot paths. The full-scale regeneration lives in
// cmd/fedbench (one experiment id per table/figure; see DESIGN.md).
//
//	go test -bench=. -benchmem
package fedwcm

import (
	"io"
	"strings"
	"testing"

	"fedwcm/internal/data"
	"fedwcm/internal/experiments"
	"fedwcm/internal/fl"
	"fedwcm/internal/fl/methods"
	"fedwcm/internal/he"
	"fedwcm/internal/loss"
	"fedwcm/internal/nn"
	"fedwcm/internal/partition"
	"fedwcm/internal/store"
	"fedwcm/internal/sweep"
	"fedwcm/internal/tensor"
	"fedwcm/internal/wire"
	"fedwcm/internal/xrand"
)

// benchExperiment runs one registered paper experiment per iteration at the
// given effort scale.
func benchExperiment(b *testing.B, id string, effort float64) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := e.Execute(experiments.Options{
			Seed:        uint64(i + 1),
			Effort:      effort,
			CellWorkers: 4,
			Out:         io.Discard,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// One bench per paper table/figure.

func BenchmarkFig3(b *testing.B)          { benchExperiment(b, "fig3", 0.12) }
func BenchmarkFig4(b *testing.B)          { benchExperiment(b, "fig4", 0.12) }
func BenchmarkTable1(b *testing.B)        { benchExperiment(b, "table1-cifar10", 0.08) }
func BenchmarkTable2(b *testing.B)        { benchExperiment(b, "table2", 0.1) }
func BenchmarkFig7(b *testing.B)          { benchExperiment(b, "fig7", 0.12) }
func BenchmarkFig8(b *testing.B)          { benchExperiment(b, "fig8", 0.12) }
func BenchmarkTable3(b *testing.B)        { benchExperiment(b, "table3", 0.1) }
func BenchmarkFig9(b *testing.B)          { benchExperiment(b, "fig9", 0.1) }
func BenchmarkFig10(b *testing.B)         { benchExperiment(b, "fig10", 0.1) }
func BenchmarkTable4(b *testing.B)        { benchExperiment(b, "table4", 0.1) }
func BenchmarkTable5(b *testing.B)        { benchExperiment(b, "table5", 0.1) }
func BenchmarkFig11(b *testing.B)         { benchExperiment(b, "fig11", 0.5) }
func BenchmarkFig12(b *testing.B)         { benchExperiment(b, "fig12", 0.1) }
func BenchmarkFigB(b *testing.B)          { benchExperiment(b, "fig13", 0.12) }
func BenchmarkTable6(b *testing.B)        { benchExperiment(b, "table6", 1) }
func BenchmarkFig18(b *testing.B)         { benchExperiment(b, "fig18", 0.1) }
func BenchmarkAblationScore(b *testing.B) { benchExperiment(b, "abl_score", 0.1) }
func BenchmarkAblationParts(b *testing.B) { benchExperiment(b, "abl_parts", 0.1) }

// Micro-benchmarks of the system's hot paths.

func benchLocalEnv(b *testing.B) (*fl.Env, *fl.ClientCtx) {
	b.Helper()
	spec := data.GaussianSpec{Classes: 10, Dim: 48, Sep: 3.6, Noise: 1, SubModes: 2}
	train := spec.Generate(1, 1, data.LongTailCounts(200, 10, 0.1))
	test := spec.Generate(1, 2, data.UniformCounts(20, 10))
	part := partition.EqualQuantity(xrand.New(2), train, 4, 0.1)
	cfg := fl.Config{Rounds: 1, SampleClients: 4, LocalEpochs: 5, BatchSize: 50,
		EtaL: 0.1, EtaG: 1, Seed: 1, EvalEvery: 1, Workers: 1}
	env := fl.NewEnv(cfg, train, test, part, nn.MLPBuilder(48, []int{64, 32}, 10, true), loss.CrossEntropy{})
	net := env.Build(1)
	ctx := &fl.ClientCtx{
		Round: 0, Client: env.Clients[0], Env: env, Net: net,
		Global: net.Vector(), RNG: xrand.New(3),
	}
	return env, ctx
}

// BenchmarkClientLocalRound measures one client's full local training round
// (5 epochs, BatchNorm MLP) — the unit of work the engine parallelises.
func BenchmarkClientLocalRound(b *testing.B) {
	_, ctx := benchLocalEnv(b)
	mom := make([]float64, len(ctx.Global))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Net.SetVector(ctx.Global)
		fl.RunLocalSGD(ctx, fl.LocalOpts{Alpha: 0.1, Momentum: mom})
	}
}

// BenchmarkRoundHotPath isolates the aggregation-round hot path: a full
// multi-round momentum run (client sampling, local SGD, delta aggregation,
// one final evaluation) over a prebuilt environment, so the number tracks
// exactly what the execution runtime owns — no dataset or partition
// construction. allocs/op is the headline: the runtime refactor's job is to
// drive per-round dim-sized and activation allocations to (amortised) zero.
func BenchmarkRoundHotPath(b *testing.B) {
	spec := data.GaussianSpec{Classes: 10, Dim: 48, Sep: 3.6, Noise: 1, SubModes: 2}
	train := spec.Generate(1, 1, data.LongTailCounts(200, 10, 0.1))
	test := spec.Generate(1, 2, data.UniformCounts(20, 10))
	part := partition.EqualQuantity(xrand.New(2), train, 8, 0.1)
	cfg := fl.Config{Rounds: 4, SampleClients: 6, LocalEpochs: 2, BatchSize: 32,
		EtaL: 0.1, EtaG: 1, Seed: 1, EvalEvery: 100, Workers: 2, DropProb: 0.1}
	env := fl.NewEnv(cfg, train, test, part, nn.MLPBuilder(48, []int{64, 32}, 10, true), loss.CrossEntropy{})
	fl.Run(env, methods.NewFedCM(0.1)) // warm up one-time state (default metric registration)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.Run(env, methods.NewFedCM(0.1))
	}
}

// BenchmarkFedWCMAggregate measures the server-side weighting + momentum
// refresh for a 10-client cohort.
func BenchmarkFedWCMAggregate(b *testing.B) {
	env, ctx := benchLocalEnv(b)
	m := methods.NewFedWCM(methods.DefaultWCMOptions())
	dim := len(ctx.Global)
	m.Init(env, dim)
	results := make([]*fl.ClientResult, 10)
	r := xrand.New(7)
	for i := range results {
		delta := make([]float64, dim)
		r.FillNorm(delta, 0, 0.01)
		results[i] = &fl.ClientResult{ClientID: i % len(env.Clients), N: 100, Steps: 20, Delta: delta}
	}
	global := tensor.CopyVec(ctx.Global)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Aggregate(i, global, results)
	}
}

// BenchmarkEvaluate measures balanced test-set evaluation.
func BenchmarkEvaluate(b *testing.B) {
	env, ctx := benchLocalEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.Evaluate(ctx.Net, env.Test, 256)
	}
}

// BenchmarkResNetLiteForward measures the CNN path on a 32-image batch.
func BenchmarkResNetLiteForward(b *testing.B) {
	net := nn.NewResNetLite(1, 3, 12, 12, 10, 8)
	x := tensor.NewDense(32, 3*12*12)
	xrand.New(2).FillNorm(x.Data, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x, true)
	}
}

// BenchmarkResNetLiteTrainStep measures a CNN training step as
// fl.RunLocalSGD takes it: forward, loss gradient, BackwardParams (no input
// gradient for the stem) and the SGD step, on a full 50-row local batch.
func BenchmarkResNetLiteTrainStep(b *testing.B) {
	const rows = 50
	net := nn.NewResNetLite(1, 3, 12, 12, 10, 8)
	x := tensor.NewDense(rows, 3*12*12)
	r := xrand.New(2)
	r.FillNorm(x.Data, 0, 1)
	labels := make([]int, rows)
	for i := range labels {
		labels[i] = r.Intn(10)
	}
	dl := tensor.NewDense(rows, 10)
	ce := loss.CrossEntropy{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrad()
		ce.LossAndGradInto(dl, net.Forward(x, true), labels)
		net.BackwardParams(dl)
		net.Step(0.1)
	}
}

// BenchmarkPaillierEncrypt measures one packed-vector encryption (the
// per-client cost of the Appendix C protocol).
func BenchmarkPaillierEncrypt(b *testing.B) {
	sk, err := he.GenerateKeys(1024)
	if err != nil {
		b.Fatal(err)
	}
	packer := he.NewPacker(1024, 32)
	counts := make([]int, 10)
	for i := range counts {
		counts[i] = 100 + i
	}
	packed, err := packer.Pack(counts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range packed {
			if _, err := sk.PublicKey.Encrypt(m); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDirichletPartition measures the paper's equal-quantity partition
// over a 10k-sample dataset and 100 clients.
func BenchmarkDirichletPartition(b *testing.B) {
	spec := data.GaussianSpec{Classes: 10, Dim: 8, Sep: 2, Noise: 1}
	train := spec.Generate(1, 1, data.UniformCounts(1000, 10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition.EqualQuantity(xrand.New(uint64(i)), train, 100, 0.1)
	}
}

// BenchmarkStoreGetDisk measures a store read that misses the LRU: one file
// read plus the decode of a 20-evaluation artifact (the LRU is disabled, so
// every Get is that read).
func BenchmarkStoreGetDisk(b *testing.B) {
	dir := b.TempDir()
	fp := strings.Repeat("ab", 32)
	warm, err := store.Open(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := warm.Put(fp, wire.SampleHistory(20, 10)); err != nil {
		b.Fatal(err)
	}
	cold, err := store.Open(dir, -1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := cold.Get(fp); err != nil || !ok {
			b.Fatalf("Get: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkAggTable measures the text rendering the sweep-result endpoint
// embeds, on Table 4's axes at the size of an average overlapping sub-grid:
// 3 methods × 2 β × 3 IF, one seed, with shot columns — 18 groups, three
// axis columns.
func BenchmarkAggTable(b *testing.B) {
	var cells []sweep.CellResult
	for _, m := range []string{"fedavg", "fedcm", "fedwcm"} {
		for _, beta := range []float64{0.1, 0.6} {
			for _, f := range []float64{1, 0.06, 0.01} {
				h := wire.SampleHistory(20, 10)
				h.Method = m
				cells = append(cells, sweep.CellResult{
					Cell: sweep.Cell{Axes: sweep.Axes{Dataset: "cifar10-syn", Method: m, Beta: beta, IF: f,
						Clients: 100, SampleClients: 10, LocalEpochs: 5, Seed: 1}},
					Status: sweep.CellCached, Hist: h,
				})
			}
		}
	}
	res := sweep.NewResult(sweep.Spec{}, cells)
	if len(res.Groups) != 18 {
		b.Fatalf("%d groups, want 18", len(res.Groups))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = res.AggTable("Table 4").String()
	}
}

// benchSink keeps a benchmarked call's result alive.
var benchSink string

// BenchmarkMatMulShapes sweeps the three matmul variants over the layer
// shapes the models actually run — MLP forward/backward products and the
// ResNetLite im2col products — so kernel regressions show up per shape
// rather than averaged into a whole round.
func BenchmarkMatMulShapes(b *testing.B) {
	type shape struct {
		name    string
		n, k, m int
		conv    bool
	}
	// The MLP rows come at three batch sizes: 32 rows (whole 4-row strips
	// only), the presets' 50 (twelve strips and two leftover rows) and a
	// tail client's 3 (leftover rows only). The conv rows are the per-sample
	// products of ResNetLite at the width sweep.ModelFor builds (8) on 12×12
	// inputs: OutC × InC·9 × OutH·OutW. The 36-column ones leave a 4-column
	// remainder after the 8-wide tiles.
	shapes := []shape{
		{"mlp_48x64", 32, 48, 64, false}, // hidden layer 1
		{"mlp_64x32", 32, 64, 32, false}, // hidden layer 2
		{"mlp_32x10", 32, 32, 10, false}, // classifier (edge tiles: 10 cols)
		{"mlp_48x64_rows50", 50, 48, 64, false},
		{"mlp_64x32_rows50", 50, 64, 32, false},
		{"mlp_32x10_rows50", 50, 32, 10, false},
		{"mlp_48x64_rows3", 3, 48, 64, false},
		{"mlp_64x32_rows3", 3, 64, 32, false},
		{"mlp_32x10_rows3", 3, 32, 10, false},
		{"conv_8x27x144", 8, 27, 144, true},   // stem
		{"conv_8x72x144", 8, 72, 144, true},   // stage-1 body conv
		{"conv_16x72x36", 16, 72, 36, true},   // stride-2 downsampling conv
		{"conv_16x144x36", 16, 144, 36, true}, // stage-2 body conv
	}
	r := xrand.New(7)
	for _, s := range shapes {
		a := tensor.NewDense(s.n, s.k)
		bm := tensor.NewDense(s.k, s.m)
		bt := tensor.NewDense(s.m, s.k)
		at := tensor.NewDense(s.n, s.m)
		for _, d := range []*tensor.Dense{a, bm, bt, at} {
			for i := range d.Data {
				d.Data[i] = r.NormFloat64()
			}
		}
		dst := tensor.NewDense(s.n, s.m)
		dstAT := tensor.NewDense(s.k, s.m)
		b.Run("MatMul/"+s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.MatMulInto(dst, a, bm)
			}
		})
		// A Linear layer's BT product is dX = dY·Wᵀ. A conv layer's is
		// dWᵀ = cols·dOutᵀ: the forward product's B and C operands.
		btDst, btA, btB := dst, a, bt
		if s.conv {
			btDst, btA, btB = tensor.NewDense(s.k, s.n), bm, at
		}
		b.Run("MatMulBT/"+s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.MatMulBTInto(btDst, btA, btB)
			}
		})
		b.Run("MatMulAT/"+s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.MatMulATInto(dstAT, a, at)
			}
		})
	}
}
