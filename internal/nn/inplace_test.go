package nn

import (
	"fmt"
	"math"
	"testing"

	"fedwcm/internal/tensor"
	"fedwcm/internal/xrand"
)

// copying clears every in-place mark under l, so that each layer writes a
// buffer of its own, as a layer outside a Network does.
func copying(l Layer) {
	switch l := l.(type) {
	case *Sequential:
		for _, c := range l.Layers {
			copying(c)
		}
	case *Residual:
		l.inPlace = false
		copying(l.Body)
	case *ReLU:
		l.ip = inPlace{}
	case *BatchNorm:
		l.ip = inPlace{}
	}
}

// refForward is the copying reference for l.Forward: every layer runs on a
// private copy of its input, and a Residual's sum goes into a fresh matrix,
// so no value any layer reads later can have been overwritten.
func refForward(l Layer, x *tensor.Dense, train bool) *tensor.Dense {
	switch l := l.(type) {
	case *Sequential:
		for _, c := range l.Layers {
			x = refForward(c, x, train)
		}
		return x
	case *Residual:
		res := clone(refForward(l.Body, x, train))
		tensor.AddVec(res.Data, x.Data)
		return res
	}
	return l.Forward(clone(x), train)
}

// refBackward is refForward's counterpart for l.Backward, on private
// copies of every incoming gradient.
func refBackward(l Layer, dout *tensor.Dense) *tensor.Dense {
	switch l := l.(type) {
	case *Sequential:
		for i := len(l.Layers) - 1; i >= 0; i-- {
			dout = refBackward(l.Layers[i], dout)
		}
		return dout
	case *Residual:
		sum := clone(refBackward(l.Body, dout))
		tensor.AddVec(sum.Data, dout.Data)
		return sum
	}
	return l.Backward(clone(dout))
}

// inPlaceShapes reaches every clause of planInPlace's rule on dense
// layers: a network input fed to a ReLU, a Residual body that starts with
// ReLU and ends with BatchNorm, BatchNorm in place over a residual sum,
// BatchNorm after ReLU, a body that ends with ReLU (so the sum copies), a
// nested Sequential, and a ReLU as the last layer, whose gradient is the
// caller's.
func inPlaceShapes(seed uint64) *Network {
	r := xrand.New(seed)
	const d, h, k = 6, 8, 3
	return WrapNetwork(d, k,
		NewReLU(),
		NewLinear(r, d, h),
		NewResidual(NewSequential(NewReLU(), NewLinear(r, h, h), NewBatchNorm(h, 1))),
		NewBatchNorm(h, 1),
		NewReLU(),
		NewBatchNorm(h, 1),
		NewResidual(NewSequential(NewLinear(r, h, h), NewBatchNorm(h, 1), NewReLU())),
		NewSequential(NewLinear(r, h, h), NewSequential(NewBatchNorm(h, 1), NewReLU())),
		NewLinear(r, h, k),
		NewReLU(),
	)
}

// inPlaceEdges covers the rest: a Residual as the first layer whose body
// is one BatchNorm (the body's first and last layer at once), a Residual
// nested in a Residual around a body that ends with ReLU, and BatchNorm as
// the last layer.
func inPlaceEdges(seed uint64) *Network {
	r := xrand.New(seed)
	const d = 5
	return WrapNetwork(d, d,
		NewResidual(NewSequential(NewBatchNorm(d, 1))),
		NewResidual(NewResidual(NewSequential(NewLinear(r, d, d), NewReLU()))),
		NewBatchNorm(d, 1),
	)
}

// TestInPlaceMatchesCopyingReference: a Network whose ReLUs, BatchNorms
// and residual sums write over the buffers they read computes, bit for
// bit, what the copying reference computes — forward outputs, every
// Param.Grad, the input gradient and the weights after each of three
// steps, in train and in eval mode — and leaves the caller's batch and
// gradient as they were. Inputs hold ±0; the nan cases add a NaN.
func TestInPlaceMatchesCopyingReference(t *testing.T) {
	builds := map[string]func(uint64) *Network{
		"resnetlite": func(s uint64) *Network { return NewResNetLite(s, 2, 6, 6, 4, 4) },
		"mlp-bn":     func(s uint64) *Network { return NewMLP(s, 12, []int{10, 8}, 4, true) },
		"shapes":     inPlaceShapes,
		"edges":      inPlaceEdges,
	}
	for name, build := range builds {
		for _, nan := range []bool{false, true} {
			for _, train := range []bool{true, false} {
				for _, n := range []int{1, 5, 12} {
					tc := fmt.Sprintf("%s n=%d train=%v nan=%v", name, n, train, nan)
					net, ref := build(3), build(3)
					copying(ref.Sequential)
					x := randSigned(uint64(n), n, net.InDim)
					if nan {
						x.Data[len(x.Data)/2] = math.NaN()
					}
					dout := randSigned(uint64(100+n), n, net.Classes)
					x0, dout0 := tensor.CopyVec(x.Data), tensor.CopyVec(dout.Data)
					for step := 0; step < 3; step++ {
						at := fmt.Sprintf("%s step %d", tc, step)
						net.ZeroGrad()
						ref.ZeroGrad()
						out, want := net.Forward(x, train), refForward(ref.Sequential, x, train)
						sameBits(t, at+" output", out.Data, want.Data)
						dx, wantDx := net.Backward(dout), refBackward(ref.Sequential, dout)
						sameBits(t, at+" dx", dx.Data, wantDx.Data)
						for i, p := range ref.Params() {
							sameBits(t, at+" "+p.Name+" grad", net.Params()[i].Grad, p.Grad)
						}
						net.Step(0.05)
						ref.Step(0.05)
						sameBits(t, at+" weights", net.Vector(), ref.Vector())
						sameBits(t, at+" caller's batch", x.Data, x0)
						sameBits(t, at+" caller's gradient", dout.Data, dout0)
					}
				}
			}
		}
	}

	// ReLU's backward mask, read from the output instead of the input.
	v := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	for _, size := range []int{len(v), 3 * len(v)} { // the scalar loop alone, and the vector kernel
		x, dout := make([]float64, size), make([]float64, size)
		for i := range x {
			x[i], dout[i] = v[i%len(v)], float64(i+1)
		}
		y, fromX, fromY := make([]float64, size), make([]float64, size), make([]float64, size)
		tensor.ReLUFwdInto(y, x)
		tensor.ReLUBwdInto(fromX, dout, x)
		tensor.ReLUBwdInto(fromY, dout, y)
		sameBits(t, fmt.Sprintf("ReLU mask from its output, %d values", size), fromY, fromX)
	}
}
