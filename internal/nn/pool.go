package nn

import "fedwcm/internal/tensor"

// GlobalAvgPool reduces each channel's spatial map to its mean:
// (N, C·H·W) → (N, C).
type GlobalAvgPool struct {
	C, H, W int

	fwd, bwd workspace
}

// NewGlobalAvgPool creates the reduction layer.
func NewGlobalAvgPool(c, h, w int) *GlobalAvgPool {
	return &GlobalAvgPool{C: c, H: h, W: w}
}

// Forward averages each channel's spatial positions.
func (l *GlobalAvgPool) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	if x.C != l.C*l.H*l.W {
		panic("nn: GlobalAvgPool input width mismatch")
	}
	sp := l.H * l.W
	out := l.fwd.get(x.R, l.C)
	inv := 1 / float64(sp)
	for s := 0; s < x.R; s++ {
		img := x.Row(s)
		orow := out.Row(s)
		for c := 0; c < l.C; c++ {
			orow[c] = tensor.Sum(img[c*sp:(c+1)*sp]) * inv
		}
	}
	return out
}

// Backward broadcasts each channel gradient uniformly across its positions.
func (l *GlobalAvgPool) Backward(dout *tensor.Dense) *tensor.Dense {
	sp := l.H * l.W
	inv := 1 / float64(sp)
	dx := l.bwd.get(dout.R, l.C*sp)
	for s := 0; s < dout.R; s++ {
		drow := dout.Row(s)
		dxr := dx.Row(s)
		for c := 0; c < l.C; c++ {
			g := drow[c] * inv
			seg := dxr[c*sp : (c+1)*sp]
			for i := range seg {
				seg[i] = g
			}
		}
	}
	return dx
}

// Params returns nil.
func (l *GlobalAvgPool) Params() []*Param { return nil }
