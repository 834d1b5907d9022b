// Package loss implements the classification losses used in the paper's
// evaluation: softmax cross-entropy, Focal loss and PriorCELoss
// (logit-adjusted / balanced softmax). Each loss writes d(loss)/d(logits),
// already averaged over the batch, into a caller-provided matrix and returns
// the batch-mean loss value, so a training step is:
// logits → LossAndGradInto → network.Backward(dLogits).
package loss

import (
	"math"

	"fedwcm/internal/tensor"
)

// Loss maps logits and integer labels to a scalar loss and its gradient
// with respect to the logits. LossAndGradInto writes the gradient into grad
// (shaped like logits), allocating nothing.
type Loss interface {
	Name() string
	LossAndGradInto(grad, logits *tensor.Dense, labels []int) float64
}

// clampProb keeps probabilities away from 0 so log stays finite.
func clampProb(p float64) float64 {
	const floor = 1e-12
	if p < floor {
		return floor
	}
	return p
}

// CrossEntropy is the standard softmax cross-entropy loss.
type CrossEntropy struct{}

// Name implements Loss.
func (CrossEntropy) Name() string { return "ce" }

// LossAndGrad is LossAndGradInto into a fresh matrix.
func (l CrossEntropy) LossAndGrad(logits *tensor.Dense, labels []int) (float64, *tensor.Dense) {
	grad := tensor.NewDense(logits.R, logits.C)
	return l.LossAndGradInto(grad, logits, labels), grad
}

// LossAndGradInto implements Loss. The probabilities of the whole batch
// come from one tensor.SoftmaxRows call into grad; the loss then reads each
// row's label in order and the 1/N scale is one tensor.Scale pass.
func (CrossEntropy) LossAndGradInto(grad *tensor.Dense, logits *tensor.Dense, labels []int) float64 {
	checkLabels(logits, labels)
	tensor.SoftmaxRows(grad.Data, logits.Data, logits.C)
	return ceFromProbs(grad, labels)
}

// ceFromProbs turns the softmax probabilities in p into the batch-mean
// cross-entropy and its gradient: per row, -log(p_t) is added to the
// total in row order, then p becomes (p - onehot)/N.
func ceFromProbs(p *tensor.Dense, labels []int) float64 {
	n := p.R
	total := 0.0
	invN := 1 / float64(n)
	for s, t := range labels {
		total += -math.Log(clampProb(p.Data[s*p.C+t]))
	}
	// d/dz = (p - onehot)/N
	tensor.Scale(p.Data, invN)
	for s, t := range labels {
		p.Data[s*p.C+t] -= invN
	}
	return total * invN
}

// Focal is the focal loss FL(p_t) = -(1-p_t)^γ · log(p_t) with softmax
// probabilities; γ = 0 recovers cross-entropy.
type Focal struct {
	Gamma float64
}

// Name implements Loss.
func (f Focal) Name() string { return "focal" }

// LossAndGradInto implements Loss. The batch's probabilities are computed
// in grad and overwritten there one element at a time.
func (f Focal) LossAndGradInto(grad *tensor.Dense, logits *tensor.Dense, labels []int) float64 {
	checkLabels(logits, labels)
	tensor.SoftmaxRows(grad.Data, logits.Data, logits.C)
	n := logits.R
	total := 0.0
	invN := 1 / float64(n)
	g := f.Gamma
	for s := 0; s < n; s++ {
		p := grad.Row(s)
		t := labels[s]
		pt := clampProb(p[t])
		logPt := math.Log(pt)
		omp := 1 - pt
		total += float64(-math.Pow(omp, g) * logPt)
		// dL/dz_j = [γ·p_t·(1-p_t)^{γ-1}·log(p_t) − (1-p_t)^γ]·(δ_tj − p_j)
		var coef float64
		if g == 0 {
			coef = -1
		} else {
			coef = float64(g*pt*math.Pow(omp, g-1)*logPt) - math.Pow(omp, g)
		}
		for j := range p {
			delta := 0.0
			if j == t {
				delta = 1
			}
			p[j] = coef * (delta - p[j]) * invN
		}
	}
	return total * invN
}

// PriorCE is the logit-adjusted cross-entropy ("PriorCELoss" / balanced
// softmax): cross-entropy over z_j + τ·log(π_j), where π is the class prior.
// Head classes get their logits boosted at training time, which forces the
// network to earn extra margin on tail classes.
type PriorCE struct {
	Tau      float64
	LogPrior []float64
}

// NewPriorCE builds a PriorCE from class sample counts.
func NewPriorCE(tau float64, counts []float64) *PriorCE {
	return &PriorCE{Tau: tau, LogPrior: LogPriors(counts)}
}

// Name implements Loss.
func (l *PriorCE) Name() string { return "priorce" }

// LossAndGradInto implements Loss. The adjusted logits are built in grad
// and turned into probabilities there.
func (l *PriorCE) LossAndGradInto(grad *tensor.Dense, logits *tensor.Dense, labels []int) float64 {
	checkLabels(logits, labels)
	if len(l.LogPrior) != logits.C {
		panic("loss: PriorCE prior length mismatch")
	}
	for s := 0; s < logits.R; s++ {
		l.adjust(grad.Row(s), logits.Row(s))
	}
	tensor.SoftmaxRows(grad.Data, grad.Data, grad.C)
	return ceFromProbs(grad, labels)
}

// adjust writes the adjusted logits z_j + τ·log(π_j) into dst.
func (l *PriorCE) adjust(dst, z []float64) {
	for j := range dst {
		dst[j] = z[j] + float64(l.Tau*l.LogPrior[j])
	}
}

// LogPriors converts raw class counts into log-probabilities, flooring
// empty classes at one pseudo-count.
func LogPriors(counts []float64) []float64 {
	out := make([]float64, len(counts))
	total := 0.0
	for _, c := range counts {
		if c < 1 {
			c = 1
		}
		total += c
	}
	for i, c := range counts {
		if c < 1 {
			c = 1
		}
		out[i] = math.Log(c / total)
	}
	return out
}

func checkLabels(logits *tensor.Dense, labels []int) {
	if logits.R != len(labels) {
		panic("loss: batch size / label count mismatch")
	}
	for _, t := range labels {
		if t < 0 || t >= logits.C {
			panic("loss: label out of range")
		}
	}
}
