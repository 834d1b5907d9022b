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

	x *tensor.Dense // cached input for backward

	wview        *tensor.Dense // W.Data viewed as In×Out (W.Data is stable)
	fwd, bwd, dw workspace     // reusable out / dX / dW buffers
	db           vecWorkspace  // reusable bias-gradient buffer
}

// NewLinear creates a Linear layer with He-initialised weights.
func NewLinear(r *xrand.RNG, in, out int) *Linear {
	l := &Linear{
		In:  in,
		Out: out,
		W:   NewParam("linear.W", in*out),
		B:   NewParam("linear.B", out),
	}
	heInit(r, l.W.Data, in)
	l.wview = tensor.FromSlice(in, out, l.W.Data)
	return l
}

// NewLinearXavier creates a Linear layer with Xavier initialisation,
// appropriate for the final classification head.
func NewLinearXavier(r *xrand.RNG, in, out int) *Linear {
	l := NewLinear(r, in, out)
	xavierInit(r, l.W.Data, in, out)
	return l
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
