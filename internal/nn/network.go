package nn

import (
	"fedwcm/internal/tensor"
)

// Network is a Sequential with the bookkeeping the federated engine needs:
// flat parameter-vector access and classifier metadata.
type Network struct {
	*Sequential
	InDim   int
	Classes int

	params []*Param // cached Params() result (layer param sets are stable)
}

// WrapNetwork builds a Network from layers plus metadata.
func WrapNetwork(inDim, classes int, layers ...Layer) *Network {
	n := &Network{Sequential: NewSequential(layers...), InDim: inDim, Classes: classes}
	n.params = n.Sequential.Params()
	return n
}

// Params returns the cached flat parameter list.
func (n *Network) Params() []*Param { return n.params }

// NumParams returns the total scalar parameter count.
func (n *Network) NumParams() int { return ParamSize(n.params) }

// Vector copies all parameters into a fresh flat vector.
func (n *Network) Vector() []float64 {
	return FlattenParams(n.params, make([]float64, n.NumParams()))
}

// VectorInto copies all parameters into dst.
func (n *Network) VectorInto(dst []float64) { FlattenParams(n.params, dst) }

// SetVector loads all parameters from a flat vector.
func (n *Network) SetVector(v []float64) { UnflattenParams(n.params, v) }

// DeltaInto computes dst = ref - params directly from the parameter
// segments, fusing VectorInto and the subtraction into one pass with no
// intermediate flat copy. dst and ref are flat vectors over all parameters.
func (n *Network) DeltaInto(dst, ref []float64) {
	if len(dst) != n.NumParams() || len(ref) != n.NumParams() {
		panic("nn: DeltaInto length mismatch")
	}
	off := 0
	for _, p := range n.params {
		for i, v := range p.Data {
			dst[off+i] = ref[off+i] - v
		}
		off += len(p.Data)
	}
}

// BackwardParams is Backward for callers that want only the parameter
// gradients — a training step, which has no use for d(loss)/d(input data).
// Every layer but the first runs Backward as always; the first runs its
// backwardParams when it has one (Linear, Conv2D), skipping the product
// that would have formed the input gradient, and plain Backward otherwise.
// Every Param.Grad ends bit-identical to Backward's.
func (n *Network) BackwardParams(dout *tensor.Dense) {
	if len(n.Layers) == 0 {
		return
	}
	for i := len(n.Layers) - 1; i > 0; i-- {
		dout = n.Layers[i].Backward(dout)
	}
	if l, ok := n.Layers[0].(interface{ backwardParams(*tensor.Dense) }); ok {
		l.backwardParams(dout)
	} else {
		n.Layers[0].Backward(dout)
	}
}

// GradVectorInto copies all gradients into dst.
func (n *Network) GradVectorInto(dst []float64) { FlattenGrads(n.params, dst) }

// ZeroGrad clears every gradient accumulator.
func (n *Network) ZeroGrad() {
	for _, p := range n.params {
		p.ZeroGrad()
	}
}

// Step applies params -= lr·grad to learnable parameters (Stat params are
// skipped; their values evolve inside Forward).
func (n *Network) Step(lr float64) {
	for _, p := range n.params {
		if p.Stat {
			continue
		}
		tensor.Axpy(p.Data, -lr, p.Grad)
	}
}

// StepVec applies params -= lr·dir where dir is a flat vector over all
// parameters (Stat segments included; pass zeros there to leave them alone).
func (n *Network) StepVec(lr float64, dir []float64) {
	if len(dir) != n.NumParams() {
		panic("nn: StepVec length mismatch")
	}
	off := 0
	for _, p := range n.params {
		if !p.Stat {
			tensor.Axpy(p.Data, -lr, dir[off:off+len(p.Data)])
		}
		off += len(p.Data)
	}
}

// PredictInto writes the argmax class of each row of x (inference mode)
// into dst (grown as needed), so repeated evaluation loops stop allocating
// a fresh prediction slice per chunk.
func (n *Network) PredictInto(dst []int, x *tensor.Dense) []int {
	logits := n.Forward(x, false)
	if cap(dst) < logits.R {
		dst = make([]int, logits.R)
	}
	dst = dst[:logits.R]
	for i := 0; i < logits.R; i++ {
		dst[i] = tensor.ArgMax(logits.Row(i))
	}
	return dst
}
