package nn

import "fedwcm/internal/tensor"

// Residual computes Body(x) + x: an identity skip around a body that keeps
// the input's shape.
type Residual struct {
	Body Layer

	inPlace  bool      // sum into the body's output and input gradient
	fwd, bwd workspace // used when the sums do not write in place
}

// NewResidual wraps body with an identity skip connection.
func NewResidual(body Layer) *Residual { return &Residual{Body: body} }

// Forward adds the skip to the body's output. The sum goes into the body's
// output buffer when the body's last layer does not read its output again
// (planInPlace); a body ending in ReLU reads its mask from there, so its
// sum goes into the block's own workspace. The body's first layer keeps
// x, which the skip reads after the body ran.
func (l *Residual) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	out := l.Body.Forward(x, train)
	if out.C != x.C {
		panic("nn: Residual identity skip requires matching shapes")
	}
	res := out
	if !l.inPlace {
		res = l.fwd.get(out.R, out.C)
		copy(res.Data, out.Data)
	}
	tensor.AddVec(res.Data, x.Data)
	return res
}

// Backward splits the gradient between the body and the skip path: the
// skip's dout is added into the body's input gradient (or a copy of it),
// after the body's last layer, which keeps dout, has run.
func (l *Residual) Backward(dout *tensor.Dense) *tensor.Dense {
	dx := l.Body.Backward(dout)
	sum := dx
	if !l.inPlace {
		sum = l.bwd.get(dx.R, dx.C)
		copy(sum.Data, dx.Data)
	}
	tensor.AddVec(sum.Data, dout.Data)
	return sum
}

// Params returns the body's parameters.
func (l *Residual) Params() []*Param { return l.Body.Params() }
