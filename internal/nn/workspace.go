package nn

import "fedwcm/internal/tensor"

// workspace is a reusable activation buffer. Every layer allocates its
// outputs (and input gradients) through one of these instead of a fresh
// Dense per Forward/Backward, so training loops that feed equally shaped
// batches — the overwhelmingly common case in the federated inner loop —
// run the forward/backward chain allocation-free after the first batch.
//
// Within one pass a buffer may hold several layers' values in turn: a
// layer that never reads its output again (ReLU, BatchNorm, Residual's
// skip sum) writes that output over its input, and in Backward writes its
// input gradient over the incoming gradient (see inPlace). Correctness
// rests on three invariants:
//
//   - A buffer is overwritten only by a layer whose argument it is, and
//     only when no one reads the old value afterwards. planInPlace decides
//     that once, from the network's structure; a layer outside a Network
//     copies.
//   - Forward buffers (activations and the caller's batch) and backward
//     buffers (gradients and the caller's dout) never alias each other, so
//     what Backward reads of the forward pass — a cached input, ReLU's
//     output, BatchNorm's xmu — survives the backward pass.
//   - A layer's output is consumed before its next Forward call (networks
//     are not safe for concurrent use, and callers never hold activations
//     across steps), so overwriting the buffer on reuse is safe.
//
// Reuse is capacity-based: a shrinking batch (the short last batch of an
// epoch) re-slices the same backing array; only growth reallocates. The
// values written are bit-identical to the allocating path — buffers are
// fully overwritten (or explicitly zeroed) before use, and every in-place
// kernel is elementwise, reading each element before it writes it.
type workspace struct {
	d *tensor.Dense
}

// get returns an r×c matrix backed by the workspace, reallocating only when
// the backing array is too small (shape changes re-use the header in
// place). Contents are unspecified; callers must fully overwrite (use
// getZeroed for accumulation targets).
func (w *workspace) get(r, c int) *tensor.Dense {
	w.d = tensor.ReuseDense(w.d, r, c)
	return w.d
}

// getZeroed is get with the returned matrix cleared.
func (w *workspace) getZeroed(r, c int) *tensor.Dense {
	d := w.get(r, c)
	d.ZeroAll()
	return d
}

// over returns x itself when the pass writes in place, else an x-shaped
// matrix of the workspace, which an in-place layer therefore never grows.
func (w *workspace) over(x *tensor.Dense, inPlace bool) *tensor.Dense {
	if inPlace {
		return x
	}
	return w.get(x.R, x.C)
}

// vecWorkspace is the vector counterpart of workspace.
type vecWorkspace struct {
	v []float64
}

// get returns a length-n slice backed by the workspace; contents are
// unspecified.
func (w *vecWorkspace) get(n int) []float64 {
	if cap(w.v) < n {
		w.v = make([]float64, n)
	}
	return w.v[:n]
}

// inPlace says which of a ReLU's or BatchNorm's passes write over their
// argument: fwd, the output over the input; bwd, the input gradient over
// the incoming gradient. The zero value copies both.
type inPlace struct{ fwd, bwd bool }

// planInPlace marks, from structure alone, which layers of l may write in
// place, and reports whether l's output must be kept because l reads it in
// Backward (ReLU takes its mask from its output). keepIn says l's input is
// read after l's Forward, keepDout that l's incoming gradient is read after
// l's Backward. A layer keeps its input when that input is
//
//   - the network's input, which is the caller's batch;
//   - also a Residual's input, which the skip reads: the first layer of a
//     body;
//   - a ReLU's output, from which that ReLU reads its mask;
//
// and keeps its incoming gradient when its caller reads it afterwards: the
// last layer of a Residual body, whose sum reads it, and the network's
// last layer, whose gradient buffer belongs to the caller. A Residual sums
// in place only when its body's last layer does not read its own output.
// Conv2D, Linear and GlobalAvgPool change the shape, so they never write
// in place; Conv2D and Linear cache their input.
func planInPlace(l Layer, keepIn, keepDout bool) (keepOut bool) {
	switch l := l.(type) {
	case *Sequential:
		for i, c := range l.Layers {
			keepIn = planInPlace(c, keepIn, keepDout && i == len(l.Layers)-1)
		}
		return keepIn // an empty Sequential passes its input through
	case *Residual:
		l.inPlace = !planInPlace(l.Body, true, true)
	case *ReLU:
		l.ip = inPlace{fwd: !keepIn, bwd: !keepDout}
		return true
	case *BatchNorm:
		l.ip = inPlace{fwd: !keepIn, bwd: !keepDout}
	}
	return false
}
