// Package loss implements the classification losses used in the paper's
// evaluation: softmax cross-entropy, Focal loss and PriorCELoss
// (logit-adjusted / balanced softmax). Each loss returns the batch-mean
// loss value together with d(loss)/d(logits), already averaged over the
// batch, so a training step is: logits → LossAndGrad → network.Backward(dLogits).
package loss

import (
	"math"

	"fedwcm/internal/tensor"
)

// Loss maps logits and integer labels to a scalar loss and its gradient
// with respect to the logits.
type Loss interface {
	Name() string
	LossAndGrad(logits *tensor.Dense, labels []int) (float64, *tensor.Dense)
}

// GradInto is the allocation-free variant of Loss: the gradient is written
// into a caller-provided buffer (shaped like logits) instead of a fresh
// matrix. Every loss in this package implements it; hot loops type-assert
// for it and fall back to LossAndGrad otherwise. Implementations must
// compute bit-identical values through both entry points.
type GradInto interface {
	LossAndGradInto(grad *tensor.Dense, logits *tensor.Dense, labels []int) float64
}

// softmaxRow writes softmax(z) into p and returns log-sum-exp for reuse.
func softmaxRow(p, z []float64) {
	m := tensor.Max(z)
	sum := 0.0
	for i, v := range z {
		e := math.Exp(v - m)
		p[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range p {
		p[i] *= inv
	}
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

// LossAndGrad implements Loss.
func (l CrossEntropy) LossAndGrad(logits *tensor.Dense, labels []int) (float64, *tensor.Dense) {
	grad := tensor.NewDense(logits.R, logits.C)
	return l.LossAndGradInto(grad, logits, labels), grad
}

// LossAndGradInto implements GradInto.
func (CrossEntropy) LossAndGradInto(grad *tensor.Dense, logits *tensor.Dense, labels []int) float64 {
	checkLabels(logits, labels)
	n := logits.R
	total := 0.0
	invN := 1 / float64(n)
	for s := 0; s < n; s++ {
		p := grad.Row(s)
		softmaxRow(p, logits.Row(s))
		t := labels[s]
		total += -math.Log(clampProb(p[t]))
		// d/dz = (p - onehot)/N
		for j := range p {
			p[j] *= invN
		}
		p[t] -= invN
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

// LossAndGrad implements Loss.
func (f Focal) LossAndGrad(logits *tensor.Dense, labels []int) (float64, *tensor.Dense) {
	grad := tensor.NewDense(logits.R, logits.C)
	return f.LossAndGradInto(grad, logits, labels), grad
}

// LossAndGradInto implements GradInto.
func (f Focal) LossAndGradInto(grad *tensor.Dense, logits *tensor.Dense, labels []int) float64 {
	checkLabels(logits, labels)
	n := logits.R
	total := 0.0
	invN := 1 / float64(n)
	g := f.Gamma
	p := make([]float64, logits.C)
	for s := 0; s < n; s++ {
		softmaxRow(p, logits.Row(s))
		t := labels[s]
		pt := clampProb(p[t])
		logPt := math.Log(pt)
		omp := 1 - pt
		total += -math.Pow(omp, g) * logPt
		// dL/dz_j = [γ·p_t·(1-p_t)^{γ-1}·log(p_t) − (1-p_t)^γ]·(δ_tj − p_j)
		var coef float64
		if g == 0 {
			coef = -1
		} else {
			coef = g*pt*math.Pow(omp, g-1)*logPt - math.Pow(omp, g)
		}
		row := grad.Row(s)
		for j := range row {
			delta := 0.0
			if j == t {
				delta = 1
			}
			row[j] = coef * (delta - p[j]) * invN
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

// LossAndGrad implements Loss.
func (l *PriorCE) LossAndGrad(logits *tensor.Dense, labels []int) (float64, *tensor.Dense) {
	grad := tensor.NewDense(logits.R, logits.C)
	return l.LossAndGradInto(grad, logits, labels), grad
}

// LossAndGradInto implements GradInto.
func (l *PriorCE) LossAndGradInto(grad *tensor.Dense, logits *tensor.Dense, labels []int) float64 {
	checkLabels(logits, labels)
	if len(l.LogPrior) != logits.C {
		panic("loss: PriorCE prior length mismatch")
	}
	n := logits.R
	total := 0.0
	invN := 1 / float64(n)
	adj := make([]float64, logits.C)
	for s := 0; s < n; s++ {
		row := logits.Row(s)
		for j := range adj {
			adj[j] = row[j] + l.Tau*l.LogPrior[j]
		}
		p := grad.Row(s)
		softmaxRow(p, adj)
		t := labels[s]
		total += -math.Log(clampProb(p[t]))
		for j := range p {
			p[j] *= invN
		}
		p[t] -= invN
	}
	return total * invN
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
