package nn

import (
	"fedwcm/internal/tensor"
	"fedwcm/internal/xrand"
)

// Conv2D is a 2-D convolution over channel-outer flattened images.
// Weights are stored as (outC × inC·kh·kw) so each sample's forward pass is
// one matmul against its im2col matrix, or, for same-size geometry,
// against the rows of that matrix read where they lie (shiftedTaps).
type Conv2D struct {
	InC, H, W    int // input geometry
	OutC, KH, KW int
	Stride, Pad  int
	OutH, OutW   int
	Wt, B        *Param

	x *tensor.Dense // cached input

	// The layer does not cache one im2col matrix per sample for Backward
	// (≈ k·p floats each, a working set that dwarfs L2 for real
	// geometries). With shifted taps neither pass builds one: each reads
	// the sample's padded copies (padSample). The strided geometry
	// rebuilds the matrix from the cached input, which is cheap next to
	// the matmuls it feeds and identical by construction.
	sc convScratch

	taps     []shiftedTap  // non-nil selects the padded copies and backwardTaps
	rows     []int         // with taps: where row (c, ky, kx) of the im2col matrix starts in sc.pad
	wview    *tensor.Dense // Wt.Data viewed as OutC×(InC·KH·KW); WrapNetwork re-points it
	fwd, bwd workspace
}

// convScratch is what the layer needs to push samples through its GEMMs,
// allocated on first use and kept for the layer's lifetime like the
// workspaces: the sample's padded copies (shifted taps) or its k×p im2col
// matrix (strided), and an OutC×p header that is re-pointed at each
// sample's row of the batch output (or of dOut), so no per-sample Dense
// is allocated; then, from the first Backward on, the backward operands
// and one half's dW/dB partial sums. dW is summed in the k×OutC layout its
// product comes out in, each sample's products added into it on store;
// the half's sum is transposed into Wt.Grad's OutC×k once.
type convScratch struct {
	seg    tensor.Dense
	dw     []float64 // OutC×k: the half's dW
	dwPart []float64 // k×OutC: the half's dWᵀ
	dbPart []float64
	doutT  []float64 // p×OutC: one sample's dOutᵀ

	// shifted taps only
	pad    []float64 // KW padded copies of one sample (padSample)
	masked []float64 // (KW-1)×OutC·p: dOut per kx ≠ Pad, wrapped columns zeroed; from the first dx

	// strided geometry only
	cols  *tensor.Dense // k×p: the sample's im2col matrix
	dcols *tensor.Dense // k×p: Wᵀ·dOut before col2im
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
	if l.taps != nil {
		l.rows = l.padRows()
	}
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

// shiftedTap describes kernel tap (dy, dx) = (ky-Pad, kx-Pad) of a same-size
// convolution, where output pixel pi reads input pixel pi+shift of the same
// channel. [lo, hi) is the part of the flat pixel range whose input row
// exists and for which pi+shift is an index at all; within it, the columns
// where the shift wrapped around a row edge read the neighbouring image
// row (see maskWrapped).
type shiftedTap struct {
	shift, lo, hi int
}

// shiftedTaps returns the layer's KH·KW taps in (ky, kx) order when every
// output pixel sits on the input pixel of the same index (stride 1, output
// as large as the input — five of ResNetLite's six convolutions), and nil
// otherwise. With taps, row (c, ky, kx) of the im2col matrix is channel c
// moved by a constant offset, zero where the offset leaves the image: a
// window of the sample's padded copies (padSample), which Forward's GEMM
// reads through a row table and Backward reads in place (backwardTaps).
// The strided downsampling convolution keeps the general loops, which are
// also the reference the shifted path is tested against bit for bit.
func (l *Conv2D) shiftedTaps() []shiftedTap {
	if l.Stride != 1 || l.OutH != l.H || l.OutW != l.W {
		return nil
	}
	taps := make([]shiftedTap, 0, l.KH*l.KW)
	for ky := 0; ky < l.KH; ky++ {
		for kx := 0; kx < l.KW; kx++ {
			dy, dx := ky-l.Pad, kx-l.Pad
			t := shiftedTap{shift: dy*l.W + dx}
			t.lo = max(max(0, -dy)*l.W, -t.shift)
			t.hi = min(min(l.H, l.H-dy)*l.W, l.H*l.W-t.shift)
			if t.lo >= t.hi {
				// The tap lies wholly outside a small image: an empty
				// range that slices validly at any shift.
				t.shift, t.lo, t.hi = 0, 0, 0
			}
			taps = append(taps, t)
		}
	}
	return taps
}

// The padded copies. For each kernel column kx, sc.pad holds the sample
// with every channel set apart by padMargin zeros, Pad·(W+1): a tap moves
// a pixel by (ky-Pad)·W + (kx-Pad), at most that far, so a read that
// leaves the image through its top or bottom row, or the first or last
// pixel, lands on a zero. A read that leaves through the left or right
// edge lands inside the channel, on the neighbouring image row; in the
// copy for kx those columns are zeroed (maskWrapped with dx = kx-Pad), and
// no read of a tap in column kx that stays in its row meets them. So the
// window of p elements at a tap's offset in channel c's copy holds exactly
// row (c, ky, kx) of the im2col matrix: the pixel where it exists, +0
// where it does not. The margins are zeroed once, when the copies are
// allocated, and never written again.

// padMargin is the number of zeros before, between and after the channels
// of a padded copy.
func (l *Conv2D) padMargin() int { return l.Pad * (l.W + 1) }

// padOffset is where channel c of the padded copy for kernel column kx
// starts in sc.pad; the channels of a copy are padMargin+H·W apart.
func (l *Conv2D) padOffset(kx, c int) int {
	m, p := l.padMargin(), l.H*l.W
	return kx*(l.InC*(p+m)+m) + m + c*(p+m)
}

// padRows is the row table of the forward GEMM: im2col row (c, ky, kx) is
// the window at channel c's offset in the copy for kx, moved by the tap.
func (l *Conv2D) padRows() []int {
	rows := make([]int, 0, l.InC*l.KH*l.KW)
	for c := 0; c < l.InC; c++ {
		for ky := 0; ky < l.KH; ky++ {
			for kx := 0; kx < l.KW; kx++ {
				rows = append(rows, l.padOffset(kx, c)+(ky-l.Pad)*l.W+kx-l.Pad)
			}
		}
	}
	return rows
}

// padSample writes sample xs into the KW padded copies, allocating them
// (margins zeroed) on first use.
func (l *Conv2D) padSample(xs []float64) {
	p := l.H * l.W
	if l.sc.pad == nil {
		l.sc.pad = make([]float64, l.padOffset(l.KW, 0)-l.padMargin())
	}
	for kx := 0; kx < l.KW; kx++ {
		for c := 0; c < l.InC; c++ {
			off := l.padOffset(kx, c)
			l.maskWrapped(l.sc.pad[off:off+p], xs[c*p:(c+1)*p], kx-l.Pad)
		}
	}
}

// maskWrapped fills dst with xs and zeroes, in every image row, the
// columns a tap with column offset dx reads only across a row edge: the
// last -dx columns for dx < 0, the first dx for dx > 0, none for dx = 0.
// Every other read of such a tap stays inside its row, so the copy serves
// all taps with this dx. Backward masks dOut the same way with -dx: the
// output columns whose reads wrapped.
func (l *Conv2D) maskWrapped(dst, xs []float64, dx int) {
	copy(dst, xs)
	c0, c1 := max(0, l.W+dx), l.W
	if dx > 0 {
		c0, c1 = 0, min(l.W, dx)
	}
	for r := 0; r < len(dst); r += l.W {
		for i := r + c0; i < r+c1; i++ {
			dst[i] = 0
		}
	}
}

// maskedDout is the part of sc.masked that holds the sample's dOut for
// the taps in kernel column kx ≠ Pad.
func (l *Conv2D) maskedDout(kx int) []float64 {
	if kx > l.Pad {
		kx--
	}
	n := l.OutC * l.H * l.W
	return l.sc.masked[kx*n : (kx+1)*n]
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

// Forward convolves each sample in turn: with shifted taps one
// GemmTableInto over the sample's padded copies, else MatMulInto against
// its im2col matrix; then the bias, row[i] + B[oc], in one pass.
func (l *Conv2D) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	if x.C != l.InC*l.H*l.W {
		panic("nn: Conv2D input width mismatch")
	}
	l.x = x
	n := x.R
	out := l.fwd.get(n, l.OutDim())
	sc := &l.sc
	k, p := l.InC*l.KH*l.KW, l.OutH*l.OutW
	if sc.seg.R == 0 {
		sc.seg = tensor.Dense{R: l.OutC, C: p}
		if l.taps == nil {
			sc.cols = tensor.NewDense(k, p)
		}
	}
	for s := 0; s < n; s++ {
		sc.seg.Data = out.Row(s)
		if l.taps != nil {
			l.padSample(x.Row(s))
			tensor.GemmTableInto(sc.seg.Data, p, l.Wt.Data, k, 1, sc.pad, l.rows, l.OutC, k, p)
		} else {
			l.im2colGeneral(x.Row(s), sc.cols)
			tensor.MatMulInto(&sc.seg, l.wview, sc.cols)
		}
		sc.seg.AddColVec(l.B.Data)
	}
	return out
}

// Backward accumulates weight/bias gradients and returns the input gradient.
func (l *Conv2D) Backward(dout *tensor.Dense) *tensor.Dense { return l.backward(dout, true) }

// backwardParams accumulates weight/bias gradients only: the same pass
// with the Wᵀ·dOut products, their scatter into dx and the zeroed dx
// workspace skipped.
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
		dx = l.bwd.getZeroed(n, l.x.C) // the taps scatter-add: must start clean
	}
	sc := &l.sc
	k, p := l.InC*l.KH*l.KW, l.OutH*l.OutW
	if sc.dw == nil {
		sc.dw = make([]float64, len(l.Wt.Data))
		sc.dwPart = make([]float64, len(l.Wt.Data))
		sc.dbPart = make([]float64, len(l.B.Data))
		sc.doutT = make([]float64, p*l.OutC)
		if l.taps == nil {
			sc.dcols = tensor.NewDense(k, p)
		}
	}
	mid := (n + 1) / 2
	for h := 0; h < min(2, n); h++ { // a one-sample batch has no second half
		l.backwardHalf(dout, dx, h*mid, min(n, (h+1)*mid))
		tensor.TransposeInto(sc.dw, sc.dwPart, k, l.OutC)
		tensor.AddVec(l.Wt.Grad, sc.dw)
		tensor.AddVec(l.B.Grad, sc.dbPart)
	}
	return dx
}

// backwardHalf runs samples [lo, hi) of the batch through the backward
// products, leaving their dWᵀ/dB sums in the scratch partials and, unless
// dx is nil, their input gradients in dx. Each sample's dWᵀ is summed from
// +0 and added into the zeroed partial as it is stored (GemmAddInto), the
// bits of a per-sample product followed by AddVec.
func (l *Conv2D) backwardHalf(dout, dx *tensor.Dense, lo, hi int) {
	sc := &l.sc
	p := l.OutH * l.OutW
	tensor.Zero(sc.dwPart)
	for s := lo; s < hi; s++ {
		ds := dout.Row(s)
		var dxs []float64
		if dx != nil {
			dxs = dx.Row(s)
		}
		if l.taps != nil {
			l.backwardTaps(l.x.Row(s), ds, dxs)
		} else {
			l.backwardGeneral(l.x.Row(s), ds, dxs)
		}
	}
	// dB: per output channel, each sample's Σ_p added in ascending s to a
	// zeroed partial.
	half := tensor.Dense{R: hi - lo, C: dout.C, Data: dout.Data[lo*dout.C : hi*dout.C]}
	channelSums(sc.dbPart, &half, p)
}

// backwardGeneral adds sample xs's dWᵀ into sc.dwPart and, unless dxs is
// nil, its input gradient into dxs, through the im2col matrix.
func (l *Conv2D) backwardGeneral(xs, ds, dxs []float64) {
	sc := &l.sc
	k, p := l.InC*l.KH*l.KW, l.OutH*l.OutW
	sc.seg.Data = ds
	l.im2colGeneral(xs, sc.cols)
	// dWᵀ = cols·dOutᵀ, MatMulBTInto's product with dOut, k/OutC times
	// smaller than cols, as the packed operand. Each element is the
	// ascending-p sum of the products dW = dOut·colsᵀ would form.
	tensor.TransposeInto(sc.doutT, ds, l.OutC, p)
	tensor.GemmAddInto(sc.dwPart, l.OutC, sc.cols.Data, p, 1, sc.doutT, l.OutC, k, p, l.OutC)
	if dxs == nil {
		return
	}
	// dcols = Wᵀ·dOut, scattered back to image space
	tensor.MatMulATInto(sc.dcols, l.wview, &sc.seg)
	l.col2imGeneral(sc.dcols, dxs)
}

// backwardTaps is backwardGeneral for shifted taps, without the im2col
// matrix; see DESIGN.md "Convolution data movement" for why every bit is
// the same.
//
// dWᵀ: row (c, tap) of cols is channel c at offset lo+shift over [lo, hi)
// and zero elsewhere, so the tap's InC rows are one strided product of
// the sample's padded copy for the tap's column (lda = the copies' channel
// stride) with dOutᵀ's rows [lo, hi). Products outside [lo, hi) are ±0
// and skipped: a sum that starts at +0 never becomes −0, so adding them
// would change no bit. For the same reason an empty tap (lo = hi) is
// skipped, not added as +0. A read that wraps into the neighbouring image
// row meets the zero the copy holds there, as cols held it.
//
// dx: per tap, Wᵀ_tap·dOut (the tap's column of the weights, read in
// place) over output pixels [lo, hi) is added into each channel at its
// shift as it is stored, as col2im added the tap's rows of dcols. Where
// the tap's read wrapped, col2im added a zero; here that column of dOut is
// zeroed (maskWrapped with -dx) and, the weights being finite, its sum
// from +0 is +0, the same add. Taps run in ascending order, so every pixel
// receives them in that order.
func (l *Conv2D) backwardTaps(xs, ds, dxs []float64) {
	sc := &l.sc
	p, kk, k := l.H*l.W, len(l.taps), l.InC*l.KH*l.KW
	stride := p + l.padMargin()
	l.padSample(xs)
	tensor.TransposeInto(sc.doutT, ds, l.OutC, p)
	for ti := range l.taps {
		t := &l.taps[ti]
		if t.lo == t.hi {
			continue
		}
		src := sc.pad[l.padOffset(ti%l.KW, 0)+t.lo+t.shift:]
		tensor.GemmAddInto(sc.dwPart[ti*l.OutC:], kk*l.OutC, src, stride, 1,
			sc.doutT[t.lo*l.OutC:], l.OutC, l.InC, t.hi-t.lo, l.OutC)
	}
	if dxs == nil {
		return
	}
	if sc.masked == nil {
		sc.masked = make([]float64, (l.KW-1)*l.OutC*p)
	}
	for kx := 0; kx < l.KW; kx++ {
		if kx != l.Pad {
			l.maskWrapped(l.maskedDout(kx), ds, l.Pad-kx)
		}
	}
	for ti := range l.taps {
		t := &l.taps[ti]
		if t.lo == t.hi {
			continue
		}
		b := ds
		if kx := ti % l.KW; kx != l.Pad {
			b = l.maskedDout(kx)
		}
		tensor.GemmAddInto(dxs[t.lo+t.shift:], p, l.Wt.Data[ti:], kk, k, b[t.lo:], p, l.InC, l.OutC, t.hi-t.lo)
	}
}

// Params returns [W, B].
func (l *Conv2D) Params() []*Param { return []*Param{l.Wt, l.B} }
