package nn

import "fedwcm/internal/tensor"

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

	// per-channel scratch: batch mean and squared deviations, the two
	// backward sums, and (Spatial == 1) the dx constant γ·inv
	mean, varv    []float64
	sumD, sumDXmu []float64
	kg            []float64

	ip       inPlace
	fwd, bwd workspace // used by a pass that does not write in place
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
// Backward reads xmu, never x or the output, so in place the output goes
// over x: every statistic is reduced from x first, and the normalisation
// reads each element before it writes it.
func (l *BatchNorm) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	if x.C != l.Channels*l.Spatial {
		panic("nn: BatchNorm input width mismatch")
	}
	n := x.R
	sp := l.Spatial
	m := float64(n * sp)
	out := l.fwd.over(x, l.ip.fwd)
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

	// Two layouts, one arithmetic. Dense features (Spatial == 1) hand the
	// whole batch to one whole-matrix kernel per pass (Dense.ColSumsInto,
	// tensor.BNSqDevRows, tensor.BNNormRows; in Backward
	// tensor.BNBwdSumsRows and tensor.BNBwdDxRows); conv maps (Spatial ==
	// H·W) reduce each channel's runs of sp pixels four channels at a time
	// (channelSums, bnSqDev) and normalise each run on a row kernel with the
	// channel's constants broadcast. Per channel, the accumulation
	// order over the batch, the mean/variance expressions, the running-stat
	// update and the normalisation expression are the same in both, and the
	// same as the per-channel loops the layer was first written with, so
	// outputs match those bit for bit. The per-channel arithmetic between
	// the passes — the mean's division, the running-stat update and
	// 1/√(var+ε) — is one tensor call each (DivScalar, BNRunStats,
	// InvSqrtInto), lane-wise on AVX-512 hosts.
	C := l.Channels
	var mean []float64
	if train {
		mean = ensureVec(&l.mean, C)
		sq := ensureVec(&l.varv, C)
		if sp == 1 {
			x.ColSumsInto(mean)
		} else {
			channelSums(mean, x, sp)
		}
		tensor.DivScalar(mean, m)
		if sp == 1 {
			tensor.BNSqDevRows(sq, x.Data, mean)
		} else {
			bnSqDev(sq, x, mean, sp)
		}
		tensor.BNRunStats(l.RunMean.Data, l.RunVar.Data, l.invstd, mean, sq, m, l.Momentum, l.Eps)
	} else {
		mean = l.RunMean.Data
		tensor.InvSqrtInto(l.invstd, l.RunVar.Data, l.Eps)
	}
	if sp == 1 {
		tensor.BNNormRows(out.Data, l.xmu, x.Data, mean, l.Gamma.Data, l.Beta.Data, l.invstd)
		return out
	}
	for s := 0; s < n; s++ {
		off := s * x.C
		for c := 0; c < C; c++ {
			o := off + c*sp
			tensor.BNNormScalarInto(out.Data[o:o+sp], l.xmu[o:o+sp], x.Data[o:o+sp],
				mean[c], l.Gamma.Data[c], l.Beta.Data[c], l.invstd[c])
		}
	}
	return out
}

// channelSums leaves in sum[c] channel c's Σₛ(Σⱼ x[s][c·sp+j]): each inner
// sum a chain from +0 (tensor.Sum's), added to the channel's total in
// ascending s — BatchNorm's batch mean before the division, and Conv2D's
// dB over half a batch. Channels go four at a time so the independent
// chains overlap; each channel's own order is that of the one-channel
// loop, which takes the remainder.
func channelSums(sum []float64, x *tensor.Dense, sp int) {
	C, n := len(sum), x.R
	c := 0
	for ; c+4 <= C; c += 4 {
		var t0, t1, t2, t3 float64
		for s := 0; s < n; s++ {
			a0, a1, a2, a3 := quad(x.Row(s)[c*sp:], sp)
			var s0, s1, s2, s3 float64
			for j := range a0 {
				s0 += a0[j]
				s1 += a1[j]
				s2 += a2[j]
				s3 += a3[j]
			}
			t0, t1, t2, t3 = t0+s0, t1+s1, t2+s2, t3+s3
		}
		sum[c], sum[c+1], sum[c+2], sum[c+3] = t0, t1, t2, t3
	}
	for ; c < C; c++ {
		t := 0.0
		for s := 0; s < n; s++ {
			t += tensor.Sum(x.Row(s)[c*sp : (c+1)*sp])
		}
		sum[c] = t
	}
}

// quad returns the four consecutive runs of sp elements at the start of v,
// each resliced to the first's length so that indexing all four by one
// range over the first needs no bounds checks.
func quad(v []float64, sp int) (a0, a1, a2, a3 []float64) {
	a0 = v[:sp]
	return a0, v[sp:][:len(a0)], v[2*sp:][:len(a0)], v[3*sp:][:len(a0)]
}

// bnSqDev leaves in sq[c] channel c's one chain Σₛ Σⱼ (x − mean[c])²,
// four channels at a time like channelSums.
func bnSqDev(sq []float64, x *tensor.Dense, mean []float64, sp int) {
	C, n := len(sq), x.R
	c := 0
	for ; c+4 <= C; c += 4 {
		m0, m1, m2, m3 := mean[c], mean[c+1], mean[c+2], mean[c+3]
		var q0, q1, q2, q3 float64
		for s := 0; s < n; s++ {
			a0, a1, a2, a3 := quad(x.Row(s)[c*sp:], sp)
			for j := range a0 {
				d0, d1, d2, d3 := a0[j]-m0, a1[j]-m1, a2[j]-m2, a3[j]-m3
				q0 += float64(d0 * d0)
				q1 += float64(d1 * d1)
				q2 += float64(d2 * d2)
				q3 += float64(d3 * d3)
			}
		}
		sq[c], sq[c+1], sq[c+2], sq[c+3] = q0, q1, q2, q3
	}
	for ; c < C; c++ {
		q := 0.0
		for s := 0; s < n; s++ {
			for _, v := range x.Row(s)[c*sp : (c+1)*sp] {
				d := v - mean[c]
				q += float64(d * d)
			}
		}
		sq[c] = q
	}
}

// Backward implements the standard batch-norm gradient. In inference mode
// the statistics are constants, so the layer behaves as a per-channel
// affine map. The two layouts split as in Forward. In place, dx goes over
// dout: the sums read dout first, and the dx kernels are elementwise.
func (l *BatchNorm) Backward(dout *tensor.Dense) *tensor.Dense {
	n := l.nIn
	sp := l.Spatial
	m := float64(n * sp)
	C := l.Channels
	dx := l.bwd.over(dout, l.ip.bwd)

	sumD := ensureVec(&l.sumD, C)
	sumDXmu := ensureVec(&l.sumDXmu, C)
	if sp == 1 {
		tensor.BNBwdSumsRows(sumD, sumDXmu, dout.Data, l.xmu)
	} else {
		bnBwdSums(sumD, sumDXmu, dout, l.xmu, sp)
	}
	// dxhat = dout*gamma; dx = inv/m * (m*dxhat - Σdxhat - xhat*Σ(dxhat·xhat))
	// expressed with xmu: xhat = xmu*inv. With the parameter gradients
	// added, fold the per-channel constants in place: kg holds k1, sumD
	// becomes k2 and sumDXmu becomes k3 (unused in inference mode).
	kg := ensureVec(&l.kg, C)
	tensor.BNBwdConsts(kg, sumD, sumDXmu, l.Beta.Grad, l.Gamma.Grad, l.Gamma.Data, l.invstd, m)
	if !l.train {
		for s := 0; s < n; s++ {
			for c := 0; c < C; c++ {
				g, inv := l.Gamma.Data[c], l.invstd[c]
				off := s*dout.C + c*sp
				for j := off; j < off+sp; j++ {
					dx.Data[j] = dout.Data[j] * g * inv
				}
			}
		}
		return dx
	}
	if sp == 1 {
		tensor.BNBwdDxRows(dx.Data, dout.Data, l.xmu, kg, sumD, sumDXmu)
		return dx
	}
	for s := 0; s < n; s++ {
		off := s * dout.C
		for c := 0; c < C; c++ {
			o := off + c*sp
			tensor.BNBwdDxScalar(dx.Data[o:o+sp], dout.Data[o:o+sp], l.xmu[o:o+sp], kg[c], sumD[c], sumDXmu[c])
		}
	}
	return dx
}

// bnBwdSums leaves in sumD[c] and sumDXmu[c] channel c's two backward
// chains Σₛ Σⱼ dout and Σₛ Σⱼ dout·xmu, four channels at a time like
// channelSums.
func bnBwdSums(sumD, sumDXmu []float64, dout *tensor.Dense, xmu []float64, sp int) {
	C, n, w := len(sumD), dout.R, dout.C
	c := 0
	for ; c+4 <= C; c += 4 {
		var t0, t1, t2, t3, u0, u1, u2, u3 float64
		for s := 0; s < n; s++ {
			off := s*w + c*sp
			a0, a1, a2, a3 := quad(dout.Data[off:], sp)
			b0, b1, b2, b3 := quad(xmu[off:], sp)
			for j := range a0 {
				d0, d1, d2, d3 := a0[j], a1[j], a2[j], a3[j]
				t0 += d0
				t1 += d1
				t2 += d2
				t3 += d3
				u0 += float64(d0 * b0[j])
				u1 += float64(d1 * b1[j])
				u2 += float64(d2 * b2[j])
				u3 += float64(d3 * b3[j])
			}
		}
		sumD[c], sumD[c+1], sumD[c+2], sumD[c+3] = t0, t1, t2, t3
		sumDXmu[c], sumDXmu[c+1], sumDXmu[c+2], sumDXmu[c+3] = u0, u1, u2, u3
	}
	for ; c < C; c++ {
		var t, u float64
		for s := 0; s < n; s++ {
			off := s*w + c*sp
			xrow := xmu[off : off+sp]
			for j, d := range dout.Data[off : off+sp] {
				t += d
				u += float64(d * xrow[j])
			}
		}
		sumD[c], sumDXmu[c] = t, u
	}
}

// Params returns [gamma, beta, running mean, running var].
func (l *BatchNorm) Params() []*Param {
	return []*Param{l.Gamma, l.Beta, l.RunMean, l.RunVar}
}
