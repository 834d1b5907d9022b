package nn

import (
	"math"
	"testing"

	"fedwcm/internal/loss"
	"fedwcm/internal/tensor"
	"fedwcm/internal/xrand"
)

// ceLossOf adapts cross-entropy over fixed labels into the GradCheck shape.
func ceLossOf(labels []int) func(out *tensor.Dense) (float64, *tensor.Dense) {
	return func(out *tensor.Dense) (float64, *tensor.Dense) {
		return loss.CrossEntropy{}.LossAndGrad(out, labels)
	}
}

func randInput(seed uint64, n, d int) *tensor.Dense {
	r := xrand.New(seed)
	x := tensor.NewDense(n, d)
	r.FillNorm(x.Data, 0, 1)
	return x
}

func randLabels(seed uint64, n, classes int) []int {
	r := xrand.New(seed)
	l := make([]int, n)
	for i := range l {
		l[i] = r.Intn(classes)
	}
	return l
}

func checkGrads(t *testing.T, net *Network, x *tensor.Dense, labels []int, tol float64) {
	t.Helper()
	res := GradCheck(net, x, ceLossOf(labels), 1e-5)
	if res.MaxRelErr > tol {
		t.Fatalf("gradient check failed: max rel err %v at %s[%d]", res.MaxRelErr, res.Param, res.Index)
	}
}

func TestLinearGradients(t *testing.T) {
	r := xrand.New(1)
	net := WrapNetwork(4, 3, NewLinear(r, 4, 3))
	checkGrads(t, net, randInput(2, 5, 4), randLabels(3, 5, 3), 1e-5)
}

func TestLinearForwardKnownValues(t *testing.T) {
	r := xrand.New(1)
	l := NewLinear(r, 2, 2)
	copy(l.W.Data, []float64{1, 2, 3, 4}) // W = [[1,2],[3,4]] (in×out)
	copy(l.B.Data, []float64{10, 20})
	out := l.Forward(tensor.FromSlice(1, 2, []float64{1, 1}), true)
	if out.Data[0] != 14 || out.Data[1] != 26 {
		t.Fatalf("Linear forward got %v", out.Data)
	}
}

func TestMLPGradients(t *testing.T) {
	net := NewMLP(7, 6, []int{8, 5}, 4, false)
	checkGrads(t, net, randInput(8, 6, 6), randLabels(9, 6, 4), 1e-4)
}

func TestMLPWithBatchNormGradients(t *testing.T) {
	net := NewMLP(11, 5, []int{6}, 3, true)
	checkGrads(t, net, randInput(12, 7, 5), randLabels(13, 7, 3), 1e-4)
}

func TestActivationGradients(t *testing.T) {
	r := xrand.New(21)
	net := WrapNetwork(5, 3, NewLinear(r, 5, 6), NewReLU(), NewLinearXavier(r, 6, 3))
	res := GradCheck(net, randInput(22, 6, 5), ceLossOf(randLabels(23, 6, 3)), 1e-5)
	if res.MaxRelErr > 2e-4 {
		t.Errorf("relu: max rel err %v at %s[%d]", res.MaxRelErr, res.Param, res.Index)
	}
}

func TestReLUForward(t *testing.T) {
	relu := NewReLU()
	out := relu.Forward(tensor.FromSlice(1, 3, []float64{-1, 0, 2}), true)
	if out.Data[0] != 0 || out.Data[1] != 0 || out.Data[2] != 2 {
		t.Fatalf("ReLU forward got %v", out.Data)
	}
	dx := relu.Backward(tensor.FromSlice(1, 3, []float64{1, 1, 1}))
	if dx.Data[0] != 0 || dx.Data[2] != 1 {
		t.Fatalf("ReLU backward got %v", dx.Data)
	}
}

// naiveConv is a direct convolution reference for the im2col implementation.
func naiveConv(l *Conv2D, x *tensor.Dense) *tensor.Dense {
	out := tensor.NewDense(x.R, l.OutDim())
	for s := 0; s < x.R; s++ {
		img := x.Row(s)
		for oc := 0; oc < l.OutC; oc++ {
			for oy := 0; oy < l.OutH; oy++ {
				for ox := 0; ox < l.OutW; ox++ {
					sum := l.B.Data[oc]
					for c := 0; c < l.InC; c++ {
						for ky := 0; ky < l.KH; ky++ {
							iy := oy*l.Stride + ky - l.Pad
							if iy < 0 || iy >= l.H {
								continue
							}
							for kx := 0; kx < l.KW; kx++ {
								ix := ox*l.Stride + kx - l.Pad
								if ix < 0 || ix >= l.W {
									continue
								}
								wIdx := ((oc*l.InC+c)*l.KH+ky)*l.KW + kx
								sum += l.Wt.Data[wIdx] * img[c*l.H*l.W+iy*l.W+ix]
							}
						}
					}
					out.Row(s)[(oc*l.OutH+oy)*l.OutW+ox] = sum
				}
			}
		}
	}
	return out
}

func TestConvMatchesNaive(t *testing.T) {
	cases := []struct{ inC, h, w, outC, k, stride, pad int }{
		{1, 5, 5, 2, 3, 1, 1},
		{2, 6, 6, 3, 3, 2, 1},
		{3, 4, 4, 2, 2, 1, 0},
		{1, 7, 5, 4, 3, 2, 0},
	}
	for _, c := range cases {
		r := xrand.New(31)
		l := NewConv2D(r, c.inC, c.h, c.w, c.outC, c.k, c.stride, c.pad)
		x := randInput(32, 3, c.inC*c.h*c.w)
		got := l.Forward(x, true)
		want := naiveConv(l, x)
		if !tensor.Equal(got, want, 1e-10) {
			t.Fatalf("conv %+v mismatch", c)
		}
	}
}

func TestConvGradients(t *testing.T) {
	r := xrand.New(41)
	conv := NewConv2D(r, 2, 4, 4, 3, 3, 1, 1)
	net := WrapNetwork(2*4*4, 2,
		conv,
		NewReLU(),
		NewGlobalAvgPool(3, 4, 4),
		NewLinearXavier(r, 3, 2),
	)
	checkGrads(t, net, randInput(42, 4, 2*4*4), randLabels(43, 4, 2), 2e-4)
}

func TestConvStridedGradients(t *testing.T) {
	r := xrand.New(44)
	conv := NewConv2D(r, 1, 5, 5, 2, 3, 2, 1)
	net := WrapNetwork(25, 2,
		conv,
		NewGlobalAvgPool(2, conv.OutH, conv.OutW),
		NewLinearXavier(r, 2, 2),
	)
	checkGrads(t, net, randInput(45, 3, 25), randLabels(46, 3, 2), 2e-4)
}

func TestGlobalAvgPool(t *testing.T) {
	gap := NewGlobalAvgPool(2, 2, 2)
	x := tensor.FromSlice(1, 8, []float64{1, 2, 3, 4, 10, 20, 30, 40})
	out := gap.Forward(x, true)
	if out.Data[0] != 2.5 || out.Data[1] != 25 {
		t.Fatalf("GAP forward got %v", out.Data)
	}
	dx := gap.Backward(tensor.FromSlice(1, 2, []float64{4, 8}))
	for i := 0; i < 4; i++ {
		if dx.Data[i] != 1 || dx.Data[4+i] != 2 {
			t.Fatalf("GAP backward got %v", dx.Data)
		}
	}
}

func TestBatchNormTrainStats(t *testing.T) {
	bn := NewBatchNorm(1, 1)
	x := tensor.FromSlice(4, 1, []float64{1, 2, 3, 4})
	out := bn.Forward(x, true)
	// normalised output should have mean ~0, var ~1
	if m := tensor.Mean(out.Data); math.Abs(m) > 1e-9 {
		t.Errorf("BN output mean %v, want 0", m)
	}
	variance := 0.0
	for _, v := range out.Data {
		variance += v * v
	}
	variance /= 4
	if math.Abs(variance-1) > 1e-3 {
		t.Errorf("BN output variance %v, want ~1", variance)
	}
	// running stats moved toward batch stats
	if bn.RunMean.Data[0] <= 0 {
		t.Errorf("running mean should move toward 2.5, got %v", bn.RunMean.Data[0])
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm(1, 1)
	bn.RunMean.Data[0] = 10
	bn.RunVar.Data[0] = 4
	x := tensor.FromSlice(1, 1, []float64{12})
	out := bn.Forward(x, false)
	want := (12.0 - 10) / math.Sqrt(4+bn.Eps)
	if math.Abs(out.Data[0]-want) > 1e-9 {
		t.Fatalf("BN eval got %v want %v", out.Data[0], want)
	}
}

func TestBatchNorm2DGradients(t *testing.T) {
	r := xrand.New(61)
	net := WrapNetwork(2*3*3, 2,
		NewConv2D(r, 2, 3, 3, 2, 3, 1, 1),
		NewBatchNorm(2, 9),
		NewReLU(),
		NewGlobalAvgPool(2, 3, 3),
		NewLinearXavier(r, 2, 2),
	)
	checkGrads(t, net, randInput(62, 5, 18), randLabels(63, 5, 2), 5e-4)
}

func TestResidualIdentityGradients(t *testing.T) {
	r := xrand.New(71)
	body := NewSequential(NewLinear(r, 6, 6), NewReLU(), NewLinear(r, 6, 6))
	net := WrapNetwork(6, 3,
		NewResidual(body),
		NewLinearXavier(r, 6, 3),
	)
	checkGrads(t, net, randInput(72, 4, 6), randLabels(73, 4, 3), 1e-4)
}

func TestResidualShapeMismatchPanics(t *testing.T) {
	r := xrand.New(77)
	res := NewResidual(NewLinear(r, 4, 5))
	defer func() {
		if recover() == nil {
			t.Fatal("identity residual with shape change must panic")
		}
	}()
	res.Forward(tensor.NewDense(1, 4), true)
}

func TestResNetLiteShapesAndGradients(t *testing.T) {
	net := NewResNetLite(91, 1, 6, 6, 3, 4)
	x := randInput(92, 2, 36)
	out := net.Forward(x, true)
	if out.R != 2 || out.C != 3 {
		t.Fatalf("ResNetLite output shape %dx%d, want 2x3", out.R, out.C)
	}
	res := GradCheck(net, x, ceLossOf(randLabels(93, 2, 3)), 1e-5)
	if res.MaxRelErr > 1e-3 {
		t.Fatalf("ResNetLite gradient check: %v at %s[%d]", res.MaxRelErr, res.Param, res.Index)
	}
}
