// Package nn is a small neural-network substrate with hand-derived
// backpropagation: Linear, Conv2D, BatchNorm, activations, pooling and
// residual blocks, plus MLP / ResNetLite builders. It exists because the
// paper's experiments need deep models trained by SGD and no deep-learning
// framework is available in this environment; every layer is verified by
// finite-difference gradient checks in the test suite.
//
// Conventions:
//   - Activations travel as tensor.Dense matrices of shape (batch × features).
//     Image tensors use channel-outer flattening: index c*H*W + y*W + x.
//   - Layers cache what they need during Forward and are therefore NOT safe
//     for concurrent use; the federated engine gives each worker its own
//     network instance and swaps weights via SetVector.
//   - BatchNorm running statistics are exposed as zero-gradient parameters so
//     that federated averaging transports them exactly like weights.
package nn

import (
	"math"

	"fedwcm/internal/xrand"
)

// Param is a learnable (or state) tensor with its gradient accumulator.
// Once a layer is wrapped in a Network, Data and Grad are windows of the
// network's weight and gradient vectors.
type Param struct {
	Name string
	Data []float64
	Grad []float64
	// Stat marks non-learnable state (e.g. BatchNorm running statistics)
	// that is carried in the parameter vector for aggregation but never
	// receives gradients.
	Stat bool
}

// NewParam allocates a named parameter of length n.
func NewParam(name string, n int) *Param {
	return &Param{Name: name, Data: make([]float64, n), Grad: make([]float64, n)}
}

// heInit fills w with He-normal values for fan-in fanIn.
func heInit(r *xrand.RNG, w []float64, fanIn int) {
	std := math.Sqrt(2 / float64(fanIn))
	r.FillNorm(w, 0, std)
}

// xavierInit fills w with Glorot-normal values.
func xavierInit(r *xrand.RNG, w []float64, fanIn, fanOut int) {
	std := math.Sqrt(2 / float64(fanIn+fanOut))
	r.FillNorm(w, 0, std)
}
