package nn

import (
	"fmt"
	"math"
	"testing"

	"fedwcm/internal/tensor"
	"fedwcm/internal/xrand"
)

// refBatchNorm2D is BatchNorm's 2-D Forward then Backward as the per-channel
// loops first wrote them, and as every CNN golden recorded them: per
// channel, the mean as Σₛ(Σⱼ x), the squared deviations and both backward
// sums as one chain each over (s, j), and the scalar normalise and dx
// expressions. Like the layer it updates l's running statistics (train)
// and adds into l's γ/β grads; out and dx are fresh.
func refBatchNorm2D(l *BatchNorm, x, dout *tensor.Dense, train bool) (out, dx *tensor.Dense) {
	n, sp := x.R, l.Spatial
	m := float64(n * sp)
	out, dx = tensor.NewDense(n, x.C), tensor.NewDense(n, x.C)
	xmu := make([]float64, len(x.Data))
	for c := 0; c < l.Channels; c++ {
		var mean, variance float64
		if train {
			sum := 0.0
			for s := 0; s < n; s++ {
				sum += tensor.Sum(x.Row(s)[c*sp : (c+1)*sp])
			}
			mean = sum / m
			sq := 0.0
			for s := 0; s < n; s++ {
				for _, v := range x.Row(s)[c*sp : (c+1)*sp] {
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
		g, b := l.Gamma.Data[c], l.Beta.Data[c]
		for s := 0; s < n; s++ {
			off := s*x.C + c*sp
			for j := 0; j < sp; j++ {
				d := x.Data[off+j] - mean
				xmu[off+j] = d
				out.Data[off+j] = float64(g*d*inv) + b
			}
		}

		var sumD, sumDXmu float64
		for s := 0; s < n; s++ {
			off := s*x.C + c*sp
			for j := 0; j < sp; j++ {
				d := dout.Data[off+j]
				sumD += d
				sumDXmu += float64(d * xmu[off+j])
			}
		}
		l.Beta.Grad[c] += sumD
		l.Gamma.Grad[c] += float64(sumDXmu * inv)
		if !train {
			for s := 0; s < n; s++ {
				off := s*x.C + c*sp
				for j := 0; j < sp; j++ {
					dx.Data[off+j] = dout.Data[off+j] * g * inv
				}
			}
			continue
		}
		k1 := g * inv
		k2 := float64(g * inv / m * sumD)
		k3 := g * inv * inv * inv / m * sumDXmu
		for s := 0; s < n; s++ {
			off := s*x.C + c*sp
			for j := 0; j < sp; j++ {
				dx.Data[off+j] = float64(k1*dout.Data[off+j]) - k2 - float64(k3*xmu[off+j])
			}
		}
	}
	return out, dx
}

// TestBatchNorm2DMatchesReference holds the 2-D path — four-channel
// reductions and broadcast row kernels — to refBatchNorm2D bit for bit:
// channel counts around the four-channel step, runs of pixels around the
// kernels' 4-wide blocks, batches from one sample to a full local batch,
// in train and in eval mode, with non-trivial γ, β and running statistics.
func TestBatchNorm2DMatchesReference(t *testing.T) {
	for _, channels := range []int{1, 3, 4, 5, 8, 16} {
		for _, sp := range []int{4, 7, 36, 144} {
			for _, n := range []int{1, 2, 3, 50} {
				for _, train := range []bool{true, false} {
					name := fmt.Sprintf("C=%d sp=%d n=%d train=%v", channels, sp, n, train)
					seed := uint64(1000*channels + 10*sp + n)
					newLayer := func() *BatchNorm {
						l := NewBatchNorm(channels, sp)
						r := xrand.New(seed)
						r.FillNorm(l.Gamma.Data, 1, 0.5)
						r.FillNorm(l.Beta.Data, 0, 0.5)
						r.FillNorm(l.RunMean.Data, 0, 0.5)
						for c := range l.RunVar.Data {
							l.RunVar.Data[c] = 0.5 + r.Float64()
						}
						r.FillNorm(l.Gamma.Grad, 0, 1)
						r.FillNorm(l.Beta.Grad, 0, 1)
						return l
					}
					x, dout := randSigned(seed, n, channels*sp), randSigned(seed+1, n, channels*sp)

					ref := newLayer()
					wantOut, wantDx := refBatchNorm2D(ref, x, dout, train)
					l := newLayer()
					out := l.Forward(x, train)
					sameBits(t, name+" out", out.Data, wantOut.Data)
					dx := l.Backward(dout)
					sameBits(t, name+" dx", dx.Data, wantDx.Data)
					sameBits(t, name+" running mean", l.RunMean.Data, ref.RunMean.Data)
					sameBits(t, name+" running var", l.RunVar.Data, ref.RunVar.Data)
					sameBits(t, name+" γ grad", l.Gamma.Grad, ref.Gamma.Grad)
					sameBits(t, name+" β grad", l.Beta.Grad, ref.Beta.Grad)
				}
			}
		}
	}
}
