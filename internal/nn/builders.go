package nn

import "fedwcm/internal/xrand"

// Builder constructs a fresh network with weights initialised from seed.
// The federated engine uses builders so every worker can instantiate an
// identical architecture and then load the global weight vector. Every
// builder here draws its layers from one xrand.New(seed) stream in layer
// order, so (*Network).Init(seed) on any network of the same Arch reproduces
// Build(seed)'s weights bit for bit.
type Builder func(seed uint64) *Network

// NewMLP builds inDim → hidden... → classes with ReLU activations and
// optional BatchNorm after each hidden layer. This is the architecture the
// paper uses for Fashion-MNIST (a 3-layer MLP).
func NewMLP(seed uint64, inDim int, hidden []int, classes int, batchNorm bool) *Network {
	r := xrand.New(seed)
	var layers []Layer
	prev := inDim
	for _, h := range hidden {
		layers = append(layers, NewLinear(r, prev, h))
		if batchNorm {
			layers = append(layers, NewBatchNorm(h, 1))
		}
		layers = append(layers, NewReLU())
		prev = h
	}
	layers = append(layers, NewLinearXavier(r, prev, classes))
	return WrapNetwork(inDim, classes, layers...)
}

// MLPBuilder returns a Builder for NewMLP with fixed hyperparameters.
func MLPBuilder(inDim int, hidden []int, classes int, batchNorm bool) Builder {
	return func(seed uint64) *Network {
		return NewMLP(seed, inDim, hidden, classes, batchNorm)
	}
}

// NewSoftmaxRegression builds the linear classifier inDim → classes.
func NewSoftmaxRegression(seed uint64, inDim, classes int) *Network {
	r := xrand.New(seed)
	return WrapNetwork(inDim, classes, NewLinearXavier(r, inDim, classes))
}

// SoftmaxBuilder returns a Builder for NewSoftmaxRegression.
func SoftmaxBuilder(inDim, classes int) Builder {
	return func(seed uint64) *Network { return NewSoftmaxRegression(seed, inDim, classes) }
}

// basicBlock builds the two-conv residual body used by ResNetLite:
// conv3x3 → BN → ReLU → conv3x3 → BN, all at the same geometry.
func basicBlock(r *xrand.RNG, c, h, w int) Layer {
	return NewSequential(
		NewConv2D(r, c, h, w, c, 3, 1, 1),
		NewBatchNorm(c, h*w),
		NewReLU(),
		NewConv2D(r, c, h, w, c, 3, 1, 1),
		NewBatchNorm(c, h*w),
	)
}

// NewResNetLite builds a compact residual CNN standing in for the paper's
// ResNet-18/34 (see DESIGN.md): a conv stem, one residual stage at full
// resolution, a strided downsampling conv, a second residual stage, global
// average pooling and a linear head.
func NewResNetLite(seed uint64, inC, h, w, classes, width int) *Network {
	r := xrand.New(seed)
	h2 := (h+2*1-3)/2 + 1
	w2 := (w+2*1-3)/2 + 1
	layers := []Layer{
		NewConv2D(r, inC, h, w, width, 3, 1, 1),
		NewBatchNorm(width, h*w),
		NewReLU(),
		NewResidual(basicBlock(r, width, h, w)),
		NewReLU(),
		NewConv2D(r, width, h, w, 2*width, 3, 2, 1),
		NewBatchNorm(2*width, h2*w2),
		NewReLU(),
		NewResidual(basicBlock(r, 2*width, h2, w2)),
		NewReLU(),
		NewGlobalAvgPool(2*width, h2, w2),
		NewLinearXavier(r, 2*width, classes),
	}
	return WrapNetwork(inC*h*w, classes, layers...)
}

// ResNetLiteBuilder returns a Builder for NewResNetLite.
func ResNetLiteBuilder(inC, h, w, classes, width int) Builder {
	return func(seed uint64) *Network {
		return NewResNetLite(seed, inC, h, w, classes, width)
	}
}
