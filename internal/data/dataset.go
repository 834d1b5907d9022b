// Package data provides the dataset substrate for the FedWCM reproduction:
// a dense in-memory dataset type, synthetic class-conditional generators
// standing in for Fashion-MNIST / SVHN / CIFAR-10 / CIFAR-100 / ImageNet
// (see DESIGN.md for the substitution argument), the exponential long-tail
// class profile parameterised by the imbalance factor IF, and minibatch
// samplers including the class-balanced sampler used as a baseline.
package data

import "fedwcm/internal/tensor"

// Dataset is an in-memory labelled dataset. X rows are flat feature vectors;
// image datasets use channel-outer flattening and record their geometry.
type Dataset struct {
	X       *tensor.Dense
	Y       []int
	Classes int
	// Image geometry; zero for pure feature datasets.
	Chans, H, W int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.X.R }

// Dim returns the flat feature width.
func (d *Dataset) Dim() int { return d.X.C }

// ClassCounts tallies samples per class.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.Classes)
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}

// ClassProportions returns the normalised class distribution.
func (d *Dataset) ClassProportions() []float64 {
	counts := d.ClassCounts()
	out := make([]float64, len(counts))
	n := float64(d.Len())
	if n == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / n
	}
	return out
}

// Subset copies the given rows into a new Dataset.
func (d *Dataset) Subset(idx []int) *Dataset {
	x := tensor.NewDense(len(idx), d.Dim())
	y := make([]int, len(idx))
	for i, j := range idx {
		copy(x.Row(i), d.X.Row(j))
		y[i] = d.Y[j]
	}
	return &Dataset{X: x, Y: y, Classes: d.Classes, Chans: d.Chans, H: d.H, W: d.W}
}

// Head copies the first n rows (all of them when n exceeds Len) into a new
// Dataset — the fixed probe sets evaluation-time measurements use.
func (d *Dataset) Head(n int) *Dataset {
	idx := make([]int, min(n, d.Len()))
	for i := range idx {
		idx[i] = i
	}
	return d.Subset(idx)
}

// Gather copies rows idx into a batch matrix and label slice, reusing the
// provided buffers — x's header included — when they are large enough.
func (d *Dataset) Gather(idx []int, x *tensor.Dense, y []int) (*tensor.Dense, []int) {
	n := len(idx)
	x = tensor.ReuseDense(x, n, d.Dim())
	if cap(y) < n {
		y = make([]int, n)
	}
	y = y[:n]
	for i, j := range idx {
		copy(x.Row(i), d.X.Row(j))
		y[i] = d.Y[j]
	}
	return x, y
}

// IndicesByClass groups sample indices by label.
func (d *Dataset) IndicesByClass() [][]int {
	out := make([][]int, d.Classes)
	for i, y := range d.Y {
		out[y] = append(out[y], i)
	}
	return out
}
