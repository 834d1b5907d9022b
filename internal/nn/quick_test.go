package nn

import (
	"math"
	"testing"
	"testing/quick"

	"fedwcm/internal/tensor"
	"fedwcm/internal/xrand"
)

// clone returns a deep copy of m.
func clone(m *tensor.Dense) *tensor.Dense {
	return tensor.FromSlice(m.R, m.C, tensor.CopyVec(m.Data))
}

// TestForwardDeterministicProperty: identical weights + identical inputs
// must produce identical outputs regardless of instance.
func TestForwardDeterministicProperty(t *testing.T) {
	f := func(seed uint64) bool {
		a := NewMLP(seed, 5, []int{7}, 3, true)
		b := NewMLP(seed+1, 5, []int{7}, 3, true)
		b.SetVector(a.Vector())
		r := xrand.New(seed + 2)
		x := tensor.NewDense(4, 5)
		r.FillNorm(x.Data, 0, 1)
		oa := a.Forward(x, false)
		ob := b.Forward(x, false)
		return tensor.Equal(oa, ob, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestLinearHomogeneityProperty: a bias-free linear layer must be
// homogeneous: f(c·x) = c·f(x).
func TestLinearHomogeneityProperty(t *testing.T) {
	f := func(seed uint64, cRaw uint8) bool {
		c := 0.1 + float64(cRaw)/32
		r := xrand.New(seed)
		l := NewLinear(r, 6, 4)
		tensor.Zero(l.B.Data)
		x := tensor.NewDense(3, 6)
		r.FillNorm(x.Data, 0, 1)
		fx := clone(l.Forward(x, true))
		scaled := clone(x)
		tensor.Scale(scaled.Data, c)
		fcx := l.Forward(scaled, true)
		want := fx
		tensor.Scale(want.Data, c)
		return tensor.Equal(fcx, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestReLUIdempotentProperty: relu(relu(x)) == relu(x).
func TestReLUIdempotentProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		x := tensor.NewDense(2, 9)
		r.FillNorm(x.Data, 0, 2)
		relu := NewReLU()
		once := clone(relu.Forward(x, true))
		twice := relu.Forward(once, true)
		return tensor.Equal(once, twice, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchNormEvalIsAffineProperty: in inference mode BatchNorm is an
// affine map, so bn(a+b) − bn(a) − bn(b) + bn(0) == 0 elementwise.
func TestBatchNormEvalIsAffineProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		bn := NewBatchNorm(5, 1)
		r.FillNorm(bn.RunMean.Data, 0, 1)
		for i := range bn.RunVar.Data {
			bn.RunVar.Data[i] = r.Float64Range(0.5, 2)
		}
		r.FillNorm(bn.Gamma.Data, 1, 0.2)
		r.FillNorm(bn.Beta.Data, 0, 0.5)
		mk := func() *tensor.Dense {
			x := tensor.NewDense(1, 5)
			r.FillNorm(x.Data, 0, 1)
			return x
		}
		a, b := mk(), mk()
		sum := clone(a)
		tensor.AddVec(sum.Data, b.Data)
		zero := tensor.NewDense(1, 5)
		fa := bn.Forward(a, false)
		fb := bn.Forward(b, false)
		fsum := bn.Forward(sum, false)
		f0 := bn.Forward(zero, false)
		for i := range fsum.Data {
			if math.Abs(fsum.Data[i]-fa.Data[i]-fb.Data[i]+f0.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestGradientAdditivityProperty: accumulating gradients over two backward
// passes equals the gradient of the summed losses (grad buffers accumulate).
func TestGradientAdditivityProperty(t *testing.T) {
	r := xrand.New(11)
	net := WrapNetwork(4, 2, NewLinear(r, 4, 2))
	x1 := tensor.NewDense(3, 4)
	x2 := tensor.NewDense(3, 4)
	r.FillNorm(x1.Data, 0, 1)
	r.FillNorm(x2.Data, 0, 1)
	dout := tensor.NewDense(3, 2)
	r.FillNorm(dout.Data, 0, 1)

	net.ZeroGrad()
	net.Forward(x1, true)
	net.Backward(dout)
	g1 := gradVector(net)

	net.ZeroGrad()
	net.Forward(x2, true)
	net.Backward(dout)
	g2 := gradVector(net)

	net.ZeroGrad()
	net.Forward(x1, true)
	net.Backward(dout)
	net.Forward(x2, true)
	net.Backward(dout)
	gBoth := gradVector(net)

	want := make([]float64, len(g1))
	copy(want, g1)
	tensor.AddVec(want, g2)
	if tensor.L2Dist(gBoth, want) > 1e-9 {
		t.Fatalf("gradient accumulation not additive: dist %v", tensor.L2Dist(gBoth, want))
	}
}

// TestStepVecInverseProperty: stepping by +v then −v restores the weights.
func TestStepVecInverseProperty(t *testing.T) {
	f := func(seed uint64) bool {
		net := NewMLP(seed, 4, []int{5}, 3, true)
		before := net.Vector()
		r := xrand.New(seed + 9)
		v := make([]float64, net.NumParams())
		r.FillNorm(v, 0, 1)
		net.StepVec(0.37, v)
		net.StepVec(-0.37, v)
		return tensor.L2Dist(before, net.Vector()) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
