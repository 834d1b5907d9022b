package nn

import "fedwcm/internal/tensor"

// Residual computes Body(x) + x: an identity skip around a body that keeps
// the input's shape.
type Residual struct {
	Body Layer

	fwd, bwd workspace
}

// NewResidual wraps body with an identity skip connection.
func NewResidual(body Layer) *Residual { return &Residual{Body: body} }

// Forward computes the residual sum into the block's own workspace: the
// body's last layer may have cached a reference to its output buffer, which
// must not be mutated in place.
func (l *Residual) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	out := l.Body.Forward(x, train)
	if out.C != x.C {
		panic("nn: Residual identity skip requires matching shapes")
	}
	res := l.fwd.get(out.R, out.C)
	copy(res.Data, out.Data)
	tensor.AddVec(res.Data, x.Data)
	return res
}

// Backward splits the gradient between the body and the skip path.
func (l *Residual) Backward(dout *tensor.Dense) *tensor.Dense {
	dx := l.Body.Backward(dout)
	sum := l.bwd.get(dx.R, dx.C)
	copy(sum.Data, dx.Data)
	tensor.AddVec(sum.Data, dout.Data)
	return sum
}

// Params returns the body's parameters.
func (l *Residual) Params() []*Param { return l.Body.Params() }
