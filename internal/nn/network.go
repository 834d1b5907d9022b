package nn

import (
	"fmt"
	"strings"

	"fedwcm/internal/tensor"
	"fedwcm/internal/xrand"
)

// Network is a Sequential with the bookkeeping the federated engine needs:
// flat parameter-vector access and classifier metadata. Its parameters live
// in two flat vectors, one of weights and one of gradients, in Params()
// order: every Param.Data and Param.Grad is a window of them, so the whole
// model is one vector to copy, zero, step or difference.
type Network struct {
	*Sequential
	InDim   int
	Classes int

	params []*Param // cached Params() result (layer param sets are stable)
	w, g   []float64
	learn  []span // the non-Stat runs of w and g, adjacent params merged
}

// span is the index range [lo, hi) of the weight and gradient vectors.
type span struct{ lo, hi int }

// WrapNetwork builds a Network from layers plus metadata. It moves every
// parameter's values into the network's weight vector, re-points Data and
// Grad at their windows (gradients start at zero), re-points the weight
// matrices Linear and Conv2D view, and marks which layers write in place
// (planInPlace): the network's input is the caller's batch and its last
// layer's gradient the caller's buffer, so both are kept.
func WrapNetwork(inDim, classes int, layers ...Layer) *Network {
	n := &Network{Sequential: NewSequential(layers...), InDim: inDim, Classes: classes}
	n.params = n.Sequential.Params()
	size := 0
	for _, p := range n.params {
		size += len(p.Data)
	}
	n.w, n.g = make([]float64, size), make([]float64, size)
	off := 0
	for _, p := range n.params {
		end := off + len(p.Data)
		copy(n.w[off:end], p.Data)
		p.Data, p.Grad = n.w[off:end:end], n.g[off:end:end]
		if !p.Stat {
			if k := len(n.learn) - 1; k >= 0 && n.learn[k].hi == off {
				n.learn[k].hi = end
			} else {
				n.learn = append(n.learn, span{off, end})
			}
		}
		off = end
	}
	bindViews(n.Sequential)
	planInPlace(n.Sequential, true, true)
	return n
}

// bindViews re-points the weight matrices Linear and Conv2D build over
// their Param's Data at construction.
func bindViews(l Layer) {
	switch l := l.(type) {
	case *Linear:
		l.wview.Data = l.W.Data
	case *Conv2D:
		l.wview.Data = l.Wt.Data
	case *Residual:
		bindViews(l.Body)
	case *Sequential:
		for _, c := range l.Layers {
			bindViews(c)
		}
	}
}

// Params returns the cached flat parameter list.
func (n *Network) Params() []*Param { return n.params }

// NumParams returns the total scalar parameter count.
func (n *Network) NumParams() int { return len(n.w) }

// Grads returns the network's gradient vector itself, not a copy. Backward
// accumulates into it, ZeroGrad clears it and Step reads it.
func (n *Network) Grads() []float64 { return n.g }

// Vector copies all parameters into a fresh flat vector.
func (n *Network) Vector() []float64 { return tensor.CopyVec(n.w) }

// VectorInto copies all parameters into dst.
func (n *Network) VectorInto(dst []float64) {
	if len(dst) != len(n.w) {
		panic(fmt.Sprintf("nn: VectorInto dst len %d, want %d", len(dst), len(n.w)))
	}
	copy(dst, n.w)
}

// SetVector loads all parameters from a flat vector.
func (n *Network) SetVector(v []float64) {
	if len(v) != len(n.w) {
		panic(fmt.Sprintf("nn: SetVector src len %d, want %d", len(v), len(n.w)))
	}
	copy(n.w, v)
}

// DeltaInto computes dst = ref - params. dst and ref are flat vectors over
// all parameters.
func (n *Network) DeltaInto(dst, ref []float64) { tensor.SubInto(dst, ref, n.w) }

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

// ZeroGrad clears every gradient accumulator.
func (n *Network) ZeroGrad() { tensor.Zero(n.g) }

// Step applies params -= lr·grad to learnable parameters (Stat params are
// skipped; their values evolve inside Forward).
func (n *Network) Step(lr float64) { n.StepWith(lr, tensor.StepTerms{}) }

// StepWith is Step with the gradient's optional terms folded in:
// tensor.SGDStep over each learnable span, every vector of t windowed to
// the span, so the gradient and its terms are read once and the weights
// written once. t's vectors are flat over all parameters; their Stat
// segments are ignored, and so is the gradient, which is not written.
func (n *Network) StepWith(lr float64, t tensor.StepTerms) {
	for _, s := range n.learn {
		tensor.SGDStep(n.w[s.lo:s.hi], n.g[s.lo:s.hi], lr, tensor.StepTerms{
			ProxMu:     t.ProxMu,
			ProxRef:    s.of(t.ProxRef),
			Correction: s.of(t.Correction),
			Alpha:      t.Alpha,
			Momentum:   s.of(t.Momentum),
		})
	}
}

// of returns the span's window of v, or nil for a nil v.
func (s span) of(v []float64) []float64 {
	if v == nil {
		return nil
	}
	return v[s.lo:s.hi]
}

// StepVec applies params -= lr·dir to learnable parameters, where dir is a
// flat vector over all parameters whose Stat segments are ignored.
func (n *Network) StepVec(lr float64, dir []float64) {
	if len(dir) != len(n.w) {
		panic("nn: StepVec length mismatch")
	}
	for _, s := range n.learn {
		tensor.Axpy(n.w[s.lo:s.hi], -lr, dir[s.lo:s.hi])
	}
}

// Init re-draws every parameter from seed exactly as Build(seed) draws it
// for any of this package's builders: one xrand.New(seed) stream, read by
// the layers in order, nested blocks depth first — He weights for Linear
// and Conv2D, a second (Xavier) draw for a NewLinearXavier head, zero
// biases, and BatchNorm's γ = 1, β = 0, running mean 0 and variance 1. The
// constructors run the same per-layer init, so there is no second recipe
// to drift from. A network that trained is then indistinguishable from a
// fresh Build(seed), which lets the federated engine take a run's initial
// weights from a pooled network instead of building one.
func (n *Network) Init(seed uint64) { initLayer(n.Sequential, xrand.New(seed)) }

func initLayer(l Layer, r *xrand.RNG) {
	switch l := l.(type) {
	case *Linear:
		l.init(r)
	case *Conv2D:
		l.init(r)
	case *BatchNorm:
		l.init()
	case *Residual:
		initLayer(l.Body, r)
	case *Sequential:
		for _, c := range l.Layers {
			initLayer(c, r)
		}
	case *ReLU, *GlobalAvgPool:
	default:
		panic(fmt.Sprintf("nn: Init: unknown layer type %T", l))
	}
}

// Arch names the network's architecture: InDim, Classes and every layer's
// type with its construction arguments (Linear dims and whether it is a
// Xavier head, Conv2D geometry, BatchNorm width and constants, pooling
// geometry), nested blocks in order. Two networks with equal Arch have the
// same parameter layout and the same activation shapes, so either can load
// the other's weights and compute bit-identically, and Init draws the same
// weights on both; the federated engine keys its reusable worker kits by it.
func (n *Network) Arch() string {
	var b strings.Builder
	fmt.Fprintf(&b, "in=%d classes=%d", n.InDim, n.Classes)
	for _, l := range n.Layers {
		writeArch(&b, l)
	}
	return b.String()
}

func writeArch(b *strings.Builder, l Layer) {
	switch l := l.(type) {
	case *Linear:
		if l.xavier {
			fmt.Fprintf(b, " linearx(%d,%d)", l.In, l.Out)
		} else {
			fmt.Fprintf(b, " linear(%d,%d)", l.In, l.Out)
		}
	case *BatchNorm:
		fmt.Fprintf(b, " bn(%d,%d,%g,%g)", l.Channels, l.Spatial, l.Momentum, l.Eps)
	case *Conv2D:
		fmt.Fprintf(b, " conv(%d,%d,%d,%d,%d,%d,%d,%d)", l.InC, l.H, l.W, l.OutC, l.KH, l.KW, l.Stride, l.Pad)
	case *GlobalAvgPool:
		fmt.Fprintf(b, " gap(%d,%d,%d)", l.C, l.H, l.W)
	case *ReLU:
		b.WriteString(" relu")
	case *Residual:
		b.WriteString(" res[")
		writeArch(b, l.Body)
		b.WriteString(" ]")
	case *Sequential:
		b.WriteString(" seq[")
		for _, c := range l.Layers {
			writeArch(b, c)
		}
		b.WriteString(" ]")
	default:
		// A layer Arch cannot describe would let two different geometries
		// share a key; refuse instead of guessing.
		panic(fmt.Sprintf("nn: Arch: unknown layer type %T", l))
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
