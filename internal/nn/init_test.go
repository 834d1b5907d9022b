package nn_test

import (
	"math"
	"testing"

	"fedwcm/internal/data"
	"fedwcm/internal/nn"
	"fedwcm/internal/sweep"
	"fedwcm/internal/tensor"
	"fedwcm/internal/xrand"
)

// initModels are the builders Init must replay: the worker-kit test models
// of internal/fl (softmax, MLP, BatchNorm MLP, a tiny ResNetLite) and every
// (dataset, model) pair sweep.ModelFor builds.
func initModels(t *testing.T) map[string]nn.Builder {
	t.Helper()
	out := map[string]nn.Builder{
		"kit/softmax":    nn.SoftmaxBuilder(36, 4),
		"kit/mlp":        nn.MLPBuilder(36, []int{12}, 4, false),
		"kit/mlpbn":      nn.MLPBuilder(36, []int{12, 8}, 4, true),
		"kit/resnetlite": nn.ResNetLiteBuilder(1, 6, 6, 4, 2),
	}
	for _, ds := range data.Names() {
		spec, err := data.Lookup(ds)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []string{"auto", "linear", "mlp", "mlpbn", "resnet"} {
			if build, err := sweep.ModelFor(spec, model); err == nil {
				out[ds+"/"+model] = build
			}
		}
	}
	return out
}

// train moves every parameter of net: a few SGD steps in train mode against
// random output gradients, so BatchNorm's running statistics move too.
func train(net *nn.Network, seed uint64) {
	r := xrand.New(seed)
	x := tensor.NewDense(4, net.InDim)
	dout := tensor.NewDense(4, net.Classes)
	for step := 0; step < 3; step++ {
		r.FillNorm(x.Data, 0, 1)
		r.FillNorm(dout.Data, 0, 1)
		net.ZeroGrad()
		net.Forward(x, true)
		net.BackwardParams(dout)
		net.Step(0.1)
	}
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestInitMatchesBuild: a network built from one seed and then trained,
// given Init(b), holds exactly Build(b)'s parameters, bit for bit — the
// contract that lets a federated run take its initial weights from a pooled
// worker kit instead of building a network.
func TestInitMatchesBuild(t *testing.T) {
	for name, build := range initModels(t) {
		net := build(1)
		for _, b := range []uint64{1, 2, 7, 1 << 40} {
			train(net, b)
			want := build(b).Vector()
			if bitEqual(net.Vector(), want) {
				t.Fatalf("%s: training left Build(%d)'s weights in place; the check would be vacuous", name, b)
			}
			net.Init(b)
			if !bitEqual(net.Vector(), want) {
				t.Errorf("%s: Init(%d) after training differs from Build(%d)", name, b, b)
			}
		}
	}
}
