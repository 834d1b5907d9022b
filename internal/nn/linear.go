package nn

import (
	"fedwcm/internal/tensor"
	"fedwcm/internal/xrand"
)

// Linear is a fully connected layer: Y = X·W + b, with W stored as
// (in × out) so the forward pass is a single row-major matmul.
type Linear struct {
	In, Out int
	W, B    *Param

	xavier bool // NewLinearXavier: Xavier draw after the He draw

	x *tensor.Dense // cached input for backward

	wview        *tensor.Dense // W.Data viewed as In×Out; WrapNetwork re-points it
	fwd, bwd, dw workspace     // reusable out / dX / dW buffers
	db           vecWorkspace  // reusable bias-gradient buffer
}

// NewLinear creates a Linear layer with He-initialised weights.
func NewLinear(r *xrand.RNG, in, out int) *Linear { return newLinear(r, in, out, false) }

// NewLinearXavier creates a Linear layer with Xavier initialisation,
// appropriate for the final classification head. Its weights take two
// draws from r, He and then Xavier over the same slice (the second
// overwrites the first), and Init replays both: the He draw advances the
// stream every later layer of the network reads.
func NewLinearXavier(r *xrand.RNG, in, out int) *Linear { return newLinear(r, in, out, true) }

func newLinear(r *xrand.RNG, in, out int, xavier bool) *Linear {
	l := &Linear{
		In:     in,
		Out:    out,
		W:      NewParam("linear.W", in*out),
		B:      NewParam("linear.B", out),
		xavier: xavier,
	}
	l.wview = tensor.FromSlice(in, out, l.W.Data)
	l.init(r)
	return l
}

// init draws the weights from r (He, then Xavier for a head) and zeroes
// the bias: the layer's share of Build, and of Network.Init.
func (l *Linear) init(r *xrand.RNG) {
	heInit(r, l.W.Data, l.In)
	if l.xavier {
		xavierInit(r, l.W.Data, l.In, l.Out)
	}
	clear(l.B.Data)
}

// Forward computes X·W + b.
func (l *Linear) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	if x.C != l.In {
		panic("nn: Linear input width mismatch")
	}
	l.x = x
	out := l.fwd.get(x.R, l.Out)
	tensor.MatMulInto(out, x, l.wview)
	out.AddRowVec(l.B.Data)
	return out
}

// backwardParams accumulates dW = Xᵀ·dY and db = Σ rows(dY). Gradient
// contributions are computed into scratch buffers and then added,
// preserving the summation order (and hence the bits) of the allocating
// implementation.
func (l *Linear) backwardParams(dout *tensor.Dense) {
	if l.x == nil {
		panic("nn: Linear Backward before Forward")
	}
	dw := l.dw.get(l.In, l.Out)
	tensor.MatMulATInto(dw, l.x, dout)
	tensor.AddVec(l.W.Grad, dw.Data)
	db := l.db.get(l.Out)
	dout.ColSumsInto(db)
	tensor.AddVec(l.B.Grad, db)
}

// Backward accumulates the parameter gradients and returns dX = dY·Wᵀ.
func (l *Linear) Backward(dout *tensor.Dense) *tensor.Dense {
	l.backwardParams(dout)
	dx := l.bwd.get(dout.R, l.In)
	tensor.MatMulBTInto(dx, dout, l.wview)
	return dx
}

// Params returns [W, B].
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }
