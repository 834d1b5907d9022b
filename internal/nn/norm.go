package nn

import (
	"math"

	"fedwcm/internal/tensor"
)

// BatchNorm normalises activations per channel. With Spatial == 1 it is the
// 1-D variant over features; with Spatial == H·W it is the 2-D variant over
// channel-outer feature maps. Running statistics are exposed as Stat params
// so the federated engine transports and averages them with the weights
// (gradients on them stay zero, so local SGD never touches them directly).
type BatchNorm struct {
	Channels, Spatial int
	Momentum, Eps     float64
	Gamma, Beta       *Param
	RunMean, RunVar   *Param

	// caches for backward
	xmu    []float64 // x - mean, same layout as input
	invstd []float64 // per channel
	nIn    int       // batch size of the cached forward
	train  bool

	// per-channel scratch for the Spatial==1 row-major fast path
	mean, varv    []float64
	sumD, sumDXmu []float64
	kg            []float64

	fwd, bwd workspace
}

// ensureVec grows s to length n, reusing capacity.
func ensureVec(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	*s = (*s)[:n]
	return *s
}

// NewBatchNorm creates a BatchNorm over the given channel count and spatial
// extent (1 for dense features, H·W for conv maps).
func NewBatchNorm(channels, spatial int) *BatchNorm {
	l := &BatchNorm{
		Channels: channels,
		Spatial:  spatial,
		Momentum: 0.1,
		Eps:      1e-5,
		Gamma:    NewParam("bn.gamma", channels),
		Beta:     NewParam("bn.beta", channels),
		RunMean:  NewParam("bn.runmean", channels),
		RunVar:   NewParam("bn.runvar", channels),
	}
	l.RunMean.Stat = true
	l.RunVar.Stat = true
	l.init()
	return l
}

// init sets the identity transform and fresh running statistics: γ = 1,
// β = 0, running mean 0, running variance 1. BatchNorm draws nothing.
func (l *BatchNorm) init() {
	tensor.Fill(l.Gamma.Data, 1)
	clear(l.Beta.Data)
	clear(l.RunMean.Data)
	tensor.Fill(l.RunVar.Data, 1)
}

// Forward normalises by batch statistics (train) or running statistics.
func (l *BatchNorm) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	if x.C != l.Channels*l.Spatial {
		panic("nn: BatchNorm input width mismatch")
	}
	n := x.R
	sp := l.Spatial
	m := float64(n * sp)
	out := l.fwd.get(n, x.C)
	if cap(l.xmu) < len(x.Data) {
		l.xmu = make([]float64, len(x.Data))
	}
	l.xmu = l.xmu[:len(x.Data)]
	if cap(l.invstd) < l.Channels {
		l.invstd = make([]float64, l.Channels)
	}
	l.invstd = l.invstd[:l.Channels]
	l.nIn = n
	l.train = train

	if sp == 1 {
		// Row-major fast path for the dense (per-feature) variant: each
		// pass streams whole rows through the fused tensor kernels instead
		// of striding per channel. Per-channel arithmetic — accumulation
		// order over the batch, the mean/variance expressions, the running
		// stat update, and the normalisation expression — is identical to
		// the per-channel loop below, so outputs match bit for bit.
		C := l.Channels
		var mean []float64
		if train {
			mean = ensureVec(&l.mean, C)
			tensor.Zero(mean)
			for s := 0; s < n; s++ {
				tensor.AddVec(mean, x.Row(s))
			}
			for c := range mean {
				mean[c] /= m
			}
			sq := ensureVec(&l.varv, C)
			tensor.Zero(sq)
			for s := 0; s < n; s++ {
				tensor.BNVarAccum(sq, x.Row(s), mean)
			}
			for c := 0; c < C; c++ {
				variance := sq[c] / m
				l.RunMean.Data[c] = float64((1-l.Momentum)*l.RunMean.Data[c]) + float64(l.Momentum*mean[c])
				l.RunVar.Data[c] = float64((1-l.Momentum)*l.RunVar.Data[c]) + float64(l.Momentum*variance)
				l.invstd[c] = 1 / math.Sqrt(variance+l.Eps)
			}
		} else {
			mean = l.RunMean.Data
			for c := 0; c < C; c++ {
				l.invstd[c] = 1 / math.Sqrt(l.RunVar.Data[c]+l.Eps)
			}
		}
		for s := 0; s < n; s++ {
			off := s * C
			tensor.BNNormInto(out.Data[off:off+C], l.xmu[off:off+C], x.Row(s),
				mean, l.Gamma.Data, l.Beta.Data, l.invstd)
		}
		return out
	}

	for c := 0; c < l.Channels; c++ {
		var mean, variance float64
		if train {
			sum := 0.0
			for s := 0; s < n; s++ {
				seg := x.Row(s)[c*sp : (c+1)*sp]
				sum += tensor.Sum(seg)
			}
			mean = sum / m
			sq := 0.0
			for s := 0; s < n; s++ {
				seg := x.Row(s)[c*sp : (c+1)*sp]
				for _, v := range seg {
					d := v - mean
					sq += float64(d * d)
				}
			}
			variance = sq / m
			l.RunMean.Data[c] = float64((1-l.Momentum)*l.RunMean.Data[c]) + float64(l.Momentum*mean)
			l.RunVar.Data[c] = float64((1-l.Momentum)*l.RunVar.Data[c]) + float64(l.Momentum*variance)
		} else {
			mean = l.RunMean.Data[c]
			variance = l.RunVar.Data[c]
		}
		inv := 1 / math.Sqrt(variance+l.Eps)
		l.invstd[c] = inv
		g, b := l.Gamma.Data[c], l.Beta.Data[c]
		for s := 0; s < n; s++ {
			off := s*x.C + c*sp
			for j := 0; j < sp; j++ {
				d := x.Data[off+j] - mean
				l.xmu[off+j] = d
				out.Data[off+j] = float64(g*d*inv) + b
			}
		}
	}
	return out
}

// Backward implements the standard batch-norm gradient. In inference mode
// the statistics are constants, so the layer behaves as a per-channel
// affine map.
func (l *BatchNorm) Backward(dout *tensor.Dense) *tensor.Dense {
	n := l.nIn
	sp := l.Spatial
	m := float64(n * sp)
	dx := l.bwd.get(n, dout.C)

	if sp == 1 {
		// Row-major mirror of the per-channel loop below; see Forward.
		C := dout.C
		sumD := ensureVec(&l.sumD, C)
		sumDXmu := ensureVec(&l.sumDXmu, C)
		tensor.Zero(sumD)
		tensor.Zero(sumDXmu)
		for s := 0; s < n; s++ {
			off := s * C
			tensor.BNBwdAccum(sumD, sumDXmu, dout.Row(s), l.xmu[off:off+C])
		}
		for c := 0; c < C; c++ {
			l.Beta.Grad[c] += sumD[c]
			l.Gamma.Grad[c] += float64(sumDXmu[c] * l.invstd[c])
		}
		if !l.train {
			for s := 0; s < n; s++ {
				off := s * C
				for c := 0; c < C; c++ {
					dx.Data[off+c] = dout.Data[off+c] * l.Gamma.Data[c] * l.invstd[c]
				}
			}
			return dx
		}
		// Fold the per-channel constants in place: sumD becomes k2 and
		// sumDXmu becomes k3, with the same expression order as below.
		kg := ensureVec(&l.kg, C)
		for c := 0; c < C; c++ {
			inv := l.invstd[c]
			g := l.Gamma.Data[c]
			kg[c] = g * inv
			sumD[c] = g * inv / m * sumD[c]
			sumDXmu[c] = g * inv * inv * inv / m * sumDXmu[c]
		}
		for s := 0; s < n; s++ {
			off := s * C
			tensor.BNBwdDx(dx.Data[off:off+C], dout.Row(s), l.xmu[off:off+C], kg, sumD, sumDXmu)
		}
		return dx
	}

	for c := 0; c < l.Channels; c++ {
		inv := l.invstd[c]
		g := l.Gamma.Data[c]
		var sumD, sumDXmu float64
		for s := 0; s < n; s++ {
			off := s*dout.C + c*sp
			for j := 0; j < sp; j++ {
				d := dout.Data[off+j]
				sumD += d
				sumDXmu += float64(d * l.xmu[off+j])
			}
		}
		l.Beta.Grad[c] += sumD
		l.Gamma.Grad[c] += float64(sumDXmu * inv)
		if !l.train {
			for s := 0; s < n; s++ {
				off := s*dout.C + c*sp
				for j := 0; j < sp; j++ {
					dx.Data[off+j] = dout.Data[off+j] * g * inv
				}
			}
			continue
		}
		// dxhat = dout*gamma; dx = inv/m * (m*dxhat - Σdxhat - xhat*Σ(dxhat·xhat))
		// expressed with xmu: xhat = xmu*inv.
		k1 := g * inv
		k2 := float64(g * inv / m * sumD)
		k3 := g * inv * inv * inv / m * sumDXmu
		for s := 0; s < n; s++ {
			off := s*dout.C + c*sp
			for j := 0; j < sp; j++ {
				dx.Data[off+j] = float64(k1*dout.Data[off+j]) - k2 - float64(k3*l.xmu[off+j])
			}
		}
	}
	return dx
}

// Params returns [gamma, beta, running mean, running var].
func (l *BatchNorm) Params() []*Param {
	return []*Param{l.Gamma, l.Beta, l.RunMean, l.RunVar}
}
