package nn

import (
	"fedwcm/internal/tensor"
	"fedwcm/internal/xrand"
)

// Conv2D is a 2-D convolution over channel-outer flattened images.
// Weights are stored as (outC × inC·kh·kw) so each sample's forward pass is
// one matmul against its im2col matrix.
type Conv2D struct {
	InC, H, W    int // input geometry
	OutC, KH, KW int
	Stride, Pad  int
	OutH, OutW   int
	Wt, B        *Param

	x *tensor.Dense // cached input

	// The layer does not cache one im2col matrix per sample for Backward
	// (≈ k·p floats each, a working set that dwarfs L2 for real
	// geometries); Backward recomputes it from the cached input, which is
	// cheap next to the matmuls it feeds and identical by construction.
	sc convScratch

	taps     []shiftedTap  // non-nil selects the shifted-copy im2col/col2im
	wview    *tensor.Dense // Wt.Data viewed as OutC×(InC·KH·KW)
	fwd, bwd workspace
}

// convScratch is what the layer needs to push samples through its GEMMs,
// allocated on first use and kept for the layer's lifetime like the
// workspaces: the k×p im2col matrix and an OutC×p header that is re-pointed
// at each sample's row of the batch output (or of dOut), so no per-sample
// Dense is allocated; then, from the first Backward on, the backward
// products and one half's dW/dB partial sums.
type convScratch struct {
	cols   *tensor.Dense
	seg    tensor.Dense
	dcols  *tensor.Dense // k×p: Wᵀ·dOut before col2im
	dwT    *tensor.Dense // k×OutC: one sample's dWᵀ
	dwPart []float64     // OutC×k
	dbPart []float64
}

// NewConv2D creates a convolution layer with He initialisation.
func NewConv2D(r *xrand.RNG, inC, h, w, outC, k, stride, pad int) *Conv2D {
	outH := (h+2*pad-k)/stride + 1
	outW := (w+2*pad-k)/stride + 1
	if outH <= 0 || outW <= 0 {
		panic("nn: Conv2D output would be empty")
	}
	l := &Conv2D{
		InC: inC, H: h, W: w,
		OutC: outC, KH: k, KW: k,
		Stride: stride, Pad: pad,
		OutH: outH, OutW: outW,
		Wt: NewParam("conv.W", outC*inC*k*k),
		B:  NewParam("conv.B", outC),
	}
	l.wview = tensor.FromSlice(outC, inC*k*k, l.Wt.Data)
	l.taps = l.shiftedTaps()
	l.init(r)
	return l
}

// init draws the He weights from r and zeroes the bias: the layer's share
// of Build, and of Network.Init.
func (l *Conv2D) init(r *xrand.RNG) {
	heInit(r, l.Wt.Data, l.InC*l.KH*l.KW)
	clear(l.B.Data)
}

// OutDim returns the flattened output width (outC·outH·outW).
func (l *Conv2D) OutDim() int { return l.OutC * l.OutH * l.OutW }

// im2col fills cols (K × P) from one sample's flattened image.
func (l *Conv2D) im2col(img []float64, cols *tensor.Dense) {
	if l.taps != nil {
		l.im2colShifted(img, cols)
	} else {
		l.im2colGeneral(img, cols)
	}
}

// col2im scatter-adds a (K × P) gradient matrix back into one sample's
// flattened image gradient. The shifted path zeroes entries of cols.
func (l *Conv2D) col2im(cols *tensor.Dense, dimg []float64) {
	if l.taps != nil {
		l.col2imShifted(cols, dimg)
	} else {
		l.col2imGeneral(cols, dimg)
	}
}

// shiftedTap describes kernel tap (dy, dx) = (ky-Pad, kx-Pad) of a same-size
// convolution, where output pixel pi reads input pixel pi+shift of the same
// channel. [lo, hi) is the part of the flat pixel range whose input row
// exists and for which pi+shift is an index at all. Within output rows
// [oyLo, oyHi), columns [oxLo, oxHi) are the ones where pi+shift is a valid
// index but belongs to the neighbouring image row: the shift wrapped around
// the edge.
type shiftedTap struct {
	shift, lo, hi          int
	oyLo, oyHi, oxLo, oxHi int
}

// shiftedTaps returns the layer's KH·KW taps in (ky, kx) order when every
// output pixel sits on the input pixel of the same index (stride 1, output
// as large as the input — five of ResNetLite's six convolutions), and nil
// otherwise. With taps, row (c, ky, kx) of the im2col matrix is channel c
// moved by a constant offset, so im2col/col2im move whole rows instead of
// testing bounds per element. The strided downsampling convolution keeps
// the general loops, which are also the reference the shifted path is
// tested against bit for bit.
func (l *Conv2D) shiftedTaps() []shiftedTap {
	if l.Stride != 1 || l.OutH != l.H || l.OutW != l.W {
		return nil
	}
	taps := make([]shiftedTap, 0, l.KH*l.KW)
	for ky := 0; ky < l.KH; ky++ {
		for kx := 0; kx < l.KW; kx++ {
			dy, dx := ky-l.Pad, kx-l.Pad
			t := shiftedTap{shift: dy*l.W + dx}
			t.oyLo, t.oyHi = max(0, -dy), min(l.H, l.H-dy)
			t.lo = max(t.oyLo*l.W, -t.shift)
			t.hi = min(t.oyHi*l.W, l.H*l.W-t.shift)
			if t.lo >= t.hi {
				// The tap lies wholly outside a small image: an empty
				// range that slices validly at any shift.
				t.shift, t.lo, t.hi = 0, 0, 0
			}
			if dx < 0 {
				t.oxLo, t.oxHi = 0, min(l.W, -dx)
			} else {
				t.oxLo, t.oxHi = max(0, l.W-dx), l.W
			}
			taps = append(taps, t)
		}
	}
	return taps
}

// zeroWrapped clears the entries of one cols row that the shift carried in
// from the neighbouring image row.
func (t *shiftedTap) zeroWrapped(row []float64, w int) {
	for ox := t.oxLo; ox < t.oxHi; ox++ {
		for i := t.oyLo*w + ox; i < t.oyHi*w; i += w {
			row[i] = 0
		}
	}
}

// im2colShifted is im2col for same-size geometry: per row one copy, one
// clear of the output rows above or below the image, and a few stores for
// the wrapped column. Pure data movement, so trivially bit-identical to
// im2colGeneral.
func (l *Conv2D) im2colShifted(img []float64, cols *tensor.Dense) {
	p := l.H * l.W
	for c := 0; c < l.InC; c++ {
		ch := img[c*p : (c+1)*p]
		for ti := range l.taps {
			t := &l.taps[ti]
			row := cols.Data[(c*len(l.taps)+ti)*p:][:p]
			clear(row[:t.lo])
			copy(row[t.lo:t.hi], ch[t.lo+t.shift:t.hi+t.shift])
			clear(row[t.hi:])
			t.zeroWrapped(row, l.W)
		}
	}
}

// col2imShifted is col2im for same-size geometry: zero the wrapped entries
// of each cols row, then add the row to the channel at its shift in one
// AddVec. Each pixel still receives its taps in ascending (ky, kx) order;
// where col2imGeneral skips a tap this path adds +0, and a sum that starts
// at +0 (dimg is zeroed) can never be -0, so the extra term changes no bit
// — the argument tensor/gemm.go makes for its zero products.
func (l *Conv2D) col2imShifted(cols *tensor.Dense, dimg []float64) {
	p := l.H * l.W
	for c := 0; c < l.InC; c++ {
		ch := dimg[c*p : (c+1)*p]
		for ti := range l.taps {
			t := &l.taps[ti]
			row := cols.Data[(c*len(l.taps)+ti)*p:][:p]
			t.zeroWrapped(row, l.W)
			tensor.AddVec(ch[t.lo+t.shift:t.hi+t.shift], row[t.lo:t.hi])
		}
	}
}

// im2colGeneral is im2col for any geometry: one bounds test per element.
func (l *Conv2D) im2colGeneral(img []float64, cols *tensor.Dense) {
	p := l.OutW * l.OutH
	for c := 0; c < l.InC; c++ {
		chanBase := c * l.H * l.W
		for ky := 0; ky < l.KH; ky++ {
			for kx := 0; kx < l.KW; kx++ {
				rowIdx := (c*l.KH+ky)*l.KW + kx
				row := cols.Data[rowIdx*p : (rowIdx+1)*p]
				pi := 0
				for oy := 0; oy < l.OutH; oy++ {
					iy := oy*l.Stride + ky - l.Pad
					if iy < 0 || iy >= l.H {
						for ox := 0; ox < l.OutW; ox++ {
							row[pi] = 0
							pi++
						}
						continue
					}
					rowBase := chanBase + iy*l.W
					for ox := 0; ox < l.OutW; ox++ {
						ix := ox*l.Stride + kx - l.Pad
						if ix < 0 || ix >= l.W {
							row[pi] = 0
						} else {
							row[pi] = img[rowBase+ix]
						}
						pi++
					}
				}
			}
		}
	}
}

// col2imGeneral is col2im for any geometry.
func (l *Conv2D) col2imGeneral(cols *tensor.Dense, dimg []float64) {
	p := l.OutW * l.OutH
	for c := 0; c < l.InC; c++ {
		chanBase := c * l.H * l.W
		for ky := 0; ky < l.KH; ky++ {
			for kx := 0; kx < l.KW; kx++ {
				rowIdx := (c*l.KH+ky)*l.KW + kx
				row := cols.Data[rowIdx*p : (rowIdx+1)*p]
				pi := 0
				for oy := 0; oy < l.OutH; oy++ {
					iy := oy*l.Stride + ky - l.Pad
					if iy < 0 || iy >= l.H {
						pi += l.OutW
						continue
					}
					rowBase := chanBase + iy*l.W
					for ox := 0; ox < l.OutW; ox++ {
						ix := ox*l.Stride + kx - l.Pad
						if ix >= 0 && ix < l.W {
							dimg[rowBase+ix] += row[pi]
						}
						pi++
					}
				}
			}
		}
	}
}

// Forward convolves each sample in turn.
func (l *Conv2D) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	if x.C != l.InC*l.H*l.W {
		panic("nn: Conv2D input width mismatch")
	}
	l.x = x
	n := x.R
	out := l.fwd.get(n, l.OutDim())
	sc := &l.sc
	if sc.cols == nil {
		sc.cols = tensor.NewDense(l.InC*l.KH*l.KW, l.OutH*l.OutW)
		sc.seg = tensor.Dense{R: l.OutC, C: l.OutH * l.OutW}
	}
	for s := 0; s < n; s++ {
		l.im2col(x.Row(s), sc.cols)
		sc.seg.Data = out.Row(s)
		tensor.MatMulInto(&sc.seg, l.wview, sc.cols)
		for oc := 0; oc < l.OutC; oc++ {
			b := l.B.Data[oc]
			row := sc.seg.Row(oc)
			for i := range row {
				row[i] += b
			}
		}
	}
	return out
}

// Backward accumulates weight/bias gradients and returns the input gradient.
func (l *Conv2D) Backward(dout *tensor.Dense) *tensor.Dense { return l.backward(dout, true) }

// backwardParams accumulates weight/bias gradients only: the same pass
// with the Wᵀ·dOut product, col2im and the zeroed dx workspace skipped.
func (l *Conv2D) backwardParams(dout *tensor.Dense) { l.backward(dout, false) }

// backward is the one pass behind Backward and backwardParams; without
// wantDx it returns nil.
//
// A floating-point sum depends on its tree, and every recorded golden
// encodes this one, so it must not change with the host or the core count:
// the batch is reduced as two halves split at ⌈n/2⌉, each half sums its
// samples' dW and dB in ascending order into a zeroed partial, and each
// half's partial is added to Grad before the next half starts.
func (l *Conv2D) backward(dout *tensor.Dense, wantDx bool) *tensor.Dense {
	if l.x == nil {
		panic("nn: Conv2D Backward before Forward")
	}
	n := l.x.R
	var dx *tensor.Dense
	if wantDx {
		dx = l.bwd.getZeroed(n, l.x.C) // col2im scatter-adds: must start clean
	}
	sc := &l.sc
	if sc.dcols == nil {
		k := l.InC * l.KH * l.KW
		sc.dcols = tensor.NewDense(k, l.OutH*l.OutW)
		sc.dwT = tensor.NewDense(k, l.OutC)
		sc.dwPart = make([]float64, len(l.Wt.Data))
		sc.dbPart = make([]float64, len(l.B.Data))
	}
	mid := (n + 1) / 2
	for h := 0; h < min(2, n); h++ { // a one-sample batch has no second half
		l.backwardHalf(dout, dx, h*mid, min(n, (h+1)*mid))
		tensor.AddVec(l.Wt.Grad, sc.dwPart)
		tensor.AddVec(l.B.Grad, sc.dbPart)
	}
	return dx
}

// backwardHalf runs samples [lo, hi) of the batch through the backward
// products, leaving their dW/dB sums in the scratch partials and, unless dx
// is nil, their input gradients in dx.
func (l *Conv2D) backwardHalf(dout, dx *tensor.Dense, lo, hi int) {
	sc := &l.sc
	k := l.InC * l.KH * l.KW
	tensor.Zero(sc.dwPart)
	tensor.Zero(sc.dbPart)
	for s := lo; s < hi; s++ {
		sc.seg.Data = dout.Row(s)
		l.im2col(l.x.Row(s), sc.cols)
		// dW += dOut·colsᵀ, computed as (cols·dOutᵀ)ᵀ: MatMulBTInto packs
		// its second operand, and dOut is k/OutC times smaller than cols.
		// Each element is the same ascending-p sum of the same products.
		tensor.MatMulBTInto(sc.dwT, sc.cols, &sc.seg)
		for oc := 0; oc < l.OutC; oc++ {
			dw := sc.dwPart[oc*k : (oc+1)*k]
			for i := range dw {
				dw[i] += sc.dwT.Data[i*l.OutC+oc]
			}
			sc.dbPart[oc] += tensor.Sum(sc.seg.Row(oc))
		}
		if dx == nil {
			continue
		}
		// dcols = Wᵀ·dOut, scattered back to image space
		tensor.MatMulATInto(sc.dcols, l.wview, &sc.seg)
		l.col2im(sc.dcols, dx.Row(s))
	}
}

// Params returns [W, B].
func (l *Conv2D) Params() []*Param { return []*Param{l.Wt, l.B} }
