package nn

import "fedwcm/internal/tensor"

// ReLU applies max(0, x) elementwise. Instead of materialising a []bool
// mask it keeps a reference to the forward input and recomputes the sign
// test in the backward kernel: x is the previous layer's forward workspace,
// which stays untouched until that layer's own Backward runs — strictly
// after this one in the reverse pass (checkpointed segments re-run Forward
// first, refreshing the reference).
type ReLU struct {
	x        *tensor.Dense
	fwd, bwd workspace
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward computes max(0, x).
func (l *ReLU) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	out := l.fwd.get(x.R, x.C)
	l.x = x
	tensor.ReLUFwdInto(out.Data, x.Data)
	return out
}

// Backward zeroes gradients where the activation was clamped.
func (l *ReLU) Backward(dout *tensor.Dense) *tensor.Dense {
	dx := l.bwd.get(dout.R, dout.C)
	tensor.ReLUBwdInto(dx.Data, dout.Data, l.x.Data)
	return dx
}

// Params returns nil: ReLU has no parameters.
func (l *ReLU) Params() []*Param { return nil }
