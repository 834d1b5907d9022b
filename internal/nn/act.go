package nn

import "fedwcm/internal/tensor"

// ReLU applies max(0, x) elementwise. Instead of materialising a []bool
// mask it keeps a reference to its forward output and recomputes the sign
// test in the backward kernel: x ≤ 0 and relu(x) ≤ 0 agree on every input,
// −0 and NaN included. The output stays untouched until this layer's
// Backward, because a layer fed by a ReLU keeps its input (planInPlace).
type ReLU struct {
	y        *tensor.Dense
	ip       inPlace
	fwd, bwd workspace // used by a pass that does not write in place
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward computes max(0, x).
func (l *ReLU) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	out := l.fwd.over(x, l.ip.fwd)
	tensor.ReLUFwdInto(out.Data, x.Data)
	l.y = out
	return out
}

// Backward zeroes gradients where the activation was clamped.
func (l *ReLU) Backward(dout *tensor.Dense) *tensor.Dense {
	dx := l.bwd.over(dout, l.ip.bwd)
	tensor.ReLUBwdInto(dx.Data, dout.Data, l.y.Data)
	return dx
}

// Params returns nil: ReLU has no parameters.
func (l *ReLU) Params() []*Param { return nil }
