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
	// geometries). With shifted taps Backward needs none: each tap's dW
	// rows multiply the sample's channels where they lie. The strided
	// geometry rebuilds the matrix from the cached input, which is cheap
	// next to the matmuls it feeds and identical by construction.
	sc convScratch

	taps     []shiftedTap  // non-nil selects the shifted-copy im2col and backwardTaps
	wview    *tensor.Dense // Wt.Data viewed as OutC×(InC·KH·KW); WrapNetwork re-points it
	fwd, bwd workspace
}

// convScratch is what the layer needs to push samples through its GEMMs,
// allocated on first use and kept for the layer's lifetime like the
// workspaces: the k×p im2col matrix and an OutC×p header that is re-pointed
// at each sample's row of the batch output (or of dOut), so no per-sample
// Dense is allocated; then, from the first Backward on, the backward
// products and one half's dW/dB partial sums. dW is summed in the k×OutC
// layout its product comes out in, so each sample's add is one AddVec; the
// half's sum is transposed into Wt.Grad's OutC×k once.
type convScratch struct {
	cols   *tensor.Dense
	seg    tensor.Dense
	dwT    *tensor.Dense // k×OutC: one sample's dWᵀ, then the half's dW
	dwPart []float64     // k×OutC: the half's dWᵀ
	dbPart []float64

	// shifted taps only
	doutT  []float64 // p×OutC: one sample's dOutᵀ
	masked []float64 // (KW-1)×InC·p: the sample per kx ≠ Pad, wrapped columns zeroed
	dtap   []float64 // InC×p: one tap's Wᵀ·dOut before it is added into dx

	// strided geometry only
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
// moved by a constant offset, so im2col moves whole rows instead of testing
// bounds per element and Backward reads the rows in place (backwardTaps).
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

// zeroWrapped clears the entries of one cols (or dtap) row that the shift
// carried in from the neighbouring image row.
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

// maskWrapped fills dst with the sample xs and zeroes, in every image row,
// the columns a tap with column offset dx ≠ 0 reads only across a row edge:
// the last -dx columns for dx < 0, the first dx for dx > 0. Every other
// read of such a tap stays inside its row, so the copy serves all taps
// with this dx.
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

// maskedCopy is the part of sc.masked that holds the sample for the taps in
// kernel column kx ≠ Pad.
func (l *Conv2D) maskedCopy(kx int) []float64 {
	if kx > l.Pad {
		kx--
	}
	n := l.InC * l.H * l.W
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
	if sc.dwT == nil {
		sc.dwT = tensor.NewDense(k, l.OutC)
		sc.dwPart = make([]float64, len(l.Wt.Data))
		sc.dbPart = make([]float64, len(l.B.Data))
		if l.taps != nil {
			sc.doutT = make([]float64, p*l.OutC)
			sc.masked = make([]float64, (l.KW-1)*l.InC*p)
			sc.dtap = make([]float64, l.InC*p)
		} else {
			sc.dcols = tensor.NewDense(k, p)
		}
	}
	mid := (n + 1) / 2
	for h := 0; h < min(2, n); h++ { // a one-sample batch has no second half
		l.backwardHalf(dout, dx, h*mid, min(n, (h+1)*mid))
		tensor.TransposeInto(sc.dwT.Data, sc.dwPart, k, l.OutC)
		tensor.AddVec(l.Wt.Grad, sc.dwT.Data)
		tensor.AddVec(l.B.Grad, sc.dbPart)
	}
	return dx
}

// backwardHalf runs samples [lo, hi) of the batch through the backward
// products, leaving their dWᵀ/dB sums in the scratch partials and, unless
// dx is nil, their input gradients in dx.
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
		tensor.AddVec(sc.dwPart, sc.dwT.Data)
	}
	// dB: per output channel, each sample's Σ_p added in ascending s to a
	// zeroed partial.
	half := tensor.Dense{R: hi - lo, C: dout.C, Data: dout.Data[lo*dout.C : hi*dout.C]}
	channelSums(sc.dbPart, &half, p)
}

// backwardGeneral leaves sample xs's dWᵀ in sc.dwT and, unless dxs is nil,
// adds its input gradient into dxs, through the im2col matrix.
func (l *Conv2D) backwardGeneral(xs, ds, dxs []float64) {
	sc := &l.sc
	sc.seg.Data = ds
	l.im2colGeneral(xs, sc.cols)
	// dWᵀ = cols·dOutᵀ: MatMulBTInto packs its second operand, and dOut is
	// k/OutC times smaller than cols. Each element is the ascending-p sum
	// of the products dW = dOut·colsᵀ would form.
	tensor.MatMulBTInto(sc.dwT, sc.cols, &sc.seg)
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
// and zero elsewhere, so the tap's InC rows are one strided product of the
// sample's channels (lda = p) with dOutᵀ's rows [lo, hi). Products outside
// [lo, hi) are ±0 and skipped: a sum that starts at +0 never becomes −0,
// so adding them would change no bit. A read that wraps into the
// neighbouring image row meets the zero a masked copy of the sample holds
// there, as cols held it.
//
// dx: per tap, the InC×p slice Wᵀ_tap·dOut (the tap's column of the
// weights, read in place) has its wrapped entries zeroed and is added into
// each channel at its shift, as col2im added the tap's rows of dcols. Taps
// run in ascending order, so every pixel receives them in that order.
func (l *Conv2D) backwardTaps(xs, ds, dxs []float64) {
	sc := &l.sc
	p, kk, k := l.H*l.W, len(l.taps), l.InC*l.KH*l.KW
	tensor.TransposeInto(sc.doutT, ds, l.OutC, p)
	for kx := 0; kx < l.KW; kx++ {
		if kx != l.Pad {
			l.maskWrapped(l.maskedCopy(kx), xs, kx-l.Pad)
		}
	}
	dwT := sc.dwT.Data
	for ti := range l.taps {
		// Each tap writes its own InC rows of dWᵀ; an empty tap (lo = hi)
		// is a sum of no products and leaves them zeroed.
		t := &l.taps[ti]
		src := xs
		if kx := ti % l.KW; kx != l.Pad {
			src = l.maskedCopy(kx)
		}
		tensor.GemmInto(dwT[ti*l.OutC:], kk*l.OutC, src[t.lo+t.shift:], p, 1,
			sc.doutT[t.lo*l.OutC:], l.OutC, l.InC, t.hi-t.lo, l.OutC)
	}
	if dxs == nil {
		return
	}
	for ti := range l.taps {
		t := &l.taps[ti]
		if t.lo == t.hi {
			continue
		}
		tensor.GemmInto(sc.dtap, p, l.Wt.Data[ti:], kk, k, ds, p, l.InC, l.OutC, p)
		for c := 0; c < l.InC; c++ {
			row := sc.dtap[c*p:][:p]
			t.zeroWrapped(row, l.W)
			tensor.AddVec(dxs[c*p+t.lo+t.shift:c*p+t.hi+t.shift], row[t.lo:t.hi])
		}
	}
}

// Params returns [W, B].
func (l *Conv2D) Params() []*Param { return []*Param{l.Wt, l.B} }
