package nn

import (
	"math"
	"testing"
	"testing/quick"

	"fedwcm/internal/loss"
	"fedwcm/internal/tensor"
	"fedwcm/internal/xrand"
)

func TestVectorRoundTrip(t *testing.T) {
	net := NewMLP(1, 4, []int{5}, 3, true)
	v := net.Vector()
	// mutate, then restore
	net2 := NewMLP(2, 4, []int{5}, 3, true)
	net2.SetVector(v)
	if d := tensor.L2Dist(v, net2.Vector()); d != 0 {
		t.Fatalf("SetVector/Vector roundtrip drifted by %v", d)
	}
}

func TestVectorRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		net := NewMLP(seed, 3, []int{4}, 2, false)
		r := xrand.New(seed + 1)
		v := make([]float64, net.NumParams())
		r.FillNorm(v, 0, 1)
		net.SetVector(v)
		got := net.Vector()
		return tensor.L2Dist(v, got) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSameSeedSameInit(t *testing.T) {
	a := NewMLP(7, 4, []int{6}, 3, false)
	b := NewMLP(7, 4, []int{6}, 3, false)
	if tensor.L2Dist(a.Vector(), b.Vector()) != 0 {
		t.Fatal("identical seeds must produce identical init")
	}
	c := NewMLP(8, 4, []int{6}, 3, false)
	if tensor.L2Dist(a.Vector(), c.Vector()) == 0 {
		t.Fatal("different seeds should differ")
	}
}

func TestStepSkipsStatParams(t *testing.T) {
	net := NewMLP(1, 2, []int{3}, 2, true)
	// find the BN running-stat params and give everything fake gradients
	for _, p := range net.Params() {
		for i := range p.Grad {
			p.Grad[i] = 1
		}
	}
	var runMeanBefore []float64
	for _, p := range net.Params() {
		if p.Name == "bn.runmean" {
			runMeanBefore = tensor.CopyVec(p.Data)
		}
	}
	net.Step(0.5)
	for _, p := range net.Params() {
		if p.Name == "bn.runmean" {
			if tensor.L2Dist(p.Data, runMeanBefore) != 0 {
				t.Fatal("Step must not update Stat params")
			}
		}
		if p.Name == "linear.B" {
			if p.Data[0] != -0.5 {
				t.Fatalf("bias should move by -lr*grad, got %v", p.Data[0])
			}
			break
		}
	}
}

func TestStepVecMatchesStep(t *testing.T) {
	a := NewMLP(3, 4, []int{5}, 2, true)
	b := NewMLP(3, 4, []int{5}, 2, true)
	r := xrand.New(4)
	g := make([]float64, a.NumParams())
	r.FillNorm(g, 0, 1)
	// place g into a's param grads and step; StepVec on b with same vector
	off := 0
	for _, p := range a.Params() {
		copy(p.Grad, g[off:off+len(p.Data)])
		off += len(p.Data)
	}
	a.Step(0.3)
	b.StepVec(0.3, g)
	if d := tensor.L2Dist(a.Vector(), b.Vector()); d > 1e-12 {
		t.Fatalf("StepVec differs from Step by %v", d)
	}
}

// gradVector copies all gradients into a fresh flat vector.
func gradVector(n *Network) []float64 {
	g := make([]float64, n.NumParams())
	n.GradVectorInto(g)
	return g
}

func TestZeroGrad(t *testing.T) {
	net := NewMLP(6, 3, []int{4}, 2, false)
	for _, p := range net.Params() {
		for i := range p.Grad {
			p.Grad[i] = 3
		}
	}
	net.ZeroGrad()
	for _, v := range gradVector(net) {
		if v != 0 {
			t.Fatal("ZeroGrad left residue")
		}
	}
}

// TestBackwardParamsMatchesBackward: the training step's backward pass
// leaves every Param.Grad bit-identical to the full one — for first layers
// that skip their input gradient (Linear, Conv2D) and for one that cannot
// (BatchNorm, the fallback), at batch sizes that are all leftover rows, and
// on a second pass that accumulates into the first one's non-zero Grad.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	builds := map[string]func() *Network{
		"mlp":        func() *Network { return NewMLP(1, 48, []int{64, 32}, 10, false) },
		"mlp-bn":     func() *Network { return NewMLP(1, 48, []int{64, 32}, 10, true) },
		"softmax":    func() *Network { return NewSoftmaxRegression(1, 48, 10) },
		"resnetlite": func() *Network { return NewResNetLite(1, 3, 4, 4, 10, 4) },
		"bn-first": func() *Network {
			return WrapNetwork(48, 10, NewBatchNorm(48, 1), NewLinearXavier(xrand.New(1), 48, 10))
		},
	}
	for name, build := range builds {
		for _, n := range []int{1, 3, 50} {
			full, params := build(), build()
			for pass := 0; pass < 2; pass++ {
				x := randSigned(uint64(10*n+pass), n, full.InDim)
				labels := randLabels(uint64(n+pass), n, full.Classes)
				_, dl := loss.CrossEntropy{}.LossAndGrad(full.Forward(x, true), labels)
				full.Backward(dl)
				_, dl = loss.CrossEntropy{}.LossAndGrad(params.Forward(x, true), labels)
				params.BackwardParams(dl)
				for i, p := range full.Params() {
					sameBits(t, name+" "+p.Name, params.Params()[i].Grad, p.Grad)
				}
			}
		}
	}
}

// TestMLPOverfitsTinyDataset is the classic smoke test: a small MLP trained
// by plain SGD must drive training accuracy to 100% on a separable toy set.
func TestMLPOverfitsTinyDataset(t *testing.T) {
	r := xrand.New(99)
	const n, d, classes = 60, 8, 3
	x := tensor.NewDense(n, d)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % classes
		labels[i] = c
		row := x.Row(i)
		r.FillNorm(row, 0, 0.3)
		row[c] += 2.5 // well-separated prototypes
	}
	net := NewMLP(100, d, []int{16}, classes, false)
	ce := loss.CrossEntropy{}
	for epoch := 0; epoch < 200; epoch++ {
		net.ZeroGrad()
		logits := net.Forward(x, true)
		_, dl := ce.LossAndGrad(logits, labels)
		net.Backward(dl)
		net.Step(0.5)
	}
	pred := net.PredictInto(nil, x)
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	if correct != n {
		t.Fatalf("MLP only fit %d/%d after 200 epochs", correct, n)
	}
}

// TestResNetLiteLearns verifies the CNN path end to end: training loss must
// drop substantially on a small pattern-classification set.
func TestResNetLiteLearns(t *testing.T) {
	r := xrand.New(123)
	const n, c, h, w, classes = 24, 1, 6, 6, 2
	x := tensor.NewDense(n, c*h*w)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % classes
		labels[i] = cls
		img := x.Row(i)
		r.FillNorm(img, 0, 0.2)
		// class 0: bright top rows; class 1: bright bottom rows
		for col := 0; col < w; col++ {
			if cls == 0 {
				img[col] += 1.5
			} else {
				img[(h-1)*w+col] += 1.5
			}
		}
	}
	net := NewResNetLite(124, c, h, w, classes, 4)
	ce := loss.CrossEntropy{}
	var first, last float64
	for epoch := 0; epoch < 40; epoch++ {
		net.ZeroGrad()
		logits := net.Forward(x, true)
		l, dl := ce.LossAndGrad(logits, labels)
		if epoch == 0 {
			first = l
		}
		last = l
		net.Backward(dl)
		net.Step(0.1)
	}
	if last > first*0.5 {
		t.Fatalf("ResNetLite loss barely moved: %v -> %v", first, last)
	}
	pred := net.PredictInto(nil, x)
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	if correct < n*3/4 {
		t.Fatalf("ResNetLite train accuracy %d/%d too low", correct, n)
	}
}

func TestPredictShapes(t *testing.T) {
	net := NewSoftmaxRegression(5, 4, 3)
	pred := net.PredictInto(nil, tensor.NewDense(7, 4))
	if len(pred) != 7 {
		t.Fatalf("PredictInto returned %d predictions for 7 rows", len(pred))
	}
	for _, p := range pred {
		if p < 0 || p >= 3 {
			t.Fatalf("prediction %d out of range", p)
		}
	}
}

func TestHeInitScale(t *testing.T) {
	r := xrand.New(7)
	w := make([]float64, 20000)
	heInit(r, w, 50)
	variance := 0.0
	for _, v := range w {
		variance += v * v
	}
	variance /= float64(len(w))
	want := 2.0 / 50
	if math.Abs(variance-want)/want > 0.1 {
		t.Fatalf("He init variance %v, want ~%v", variance, want)
	}
}

func TestFlattenMismatchPanics(t *testing.T) {
	net := NewMLP(1, 3, []int{2}, 2, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.SetVector(make([]float64, net.NumParams()+1))
}
