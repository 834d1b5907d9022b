package nn

import "fedwcm/internal/tensor"

// Layer is a differentiable module. Forward caches whatever Backward needs;
// Backward must be called at most once per Forward, with dout holding
// d(loss)/d(output).
type Layer interface {
	// Forward computes the layer output for input x. When train is false
	// the layer runs in inference mode (BatchNorm uses running statistics).
	Forward(x *tensor.Dense, train bool) *tensor.Dense
	// Backward consumes d(loss)/d(output) and returns d(loss)/d(input),
	// accumulating parameter gradients along the way.
	Backward(dout *tensor.Dense) *tensor.Dense
	// Params returns the layer's parameters (possibly empty). The returned
	// slice and order must be stable across calls.
	Params() []*Param
}

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Forward runs all layers in order.
func (s *Sequential) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs all layers in reverse order.
func (s *Sequential) Backward(dout *tensor.Dense) *tensor.Dense {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dout = s.Layers[i].Backward(dout)
	}
	return dout
}

// ForwardCollect runs the forward pass and returns every layer's output in
// order (outputs[i] is the output of Layers[i]). It powers the layer-wise
// neuron-concentration analysis.
func (s *Sequential) ForwardCollect(x *tensor.Dense, train bool) []*tensor.Dense {
	outs := make([]*tensor.Dense, len(s.Layers))
	for i, l := range s.Layers {
		x = l.Forward(x, train)
		outs[i] = x
	}
	return outs
}

// Params concatenates the parameters of all layers in order.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}
