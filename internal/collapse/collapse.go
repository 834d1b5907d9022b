// Package collapse implements the layer-wise activation analyses behind the
// paper's motivation (§4) and Appendix B: the "neuron concentration" metric
// whose spikes track FedCM's minority collapse under long-tailed data, and
// per-class feature statistics in the spirit of the Neural Collapse /
// Minority Collapse literature the paper builds on.
package collapse

import (
	"math"
	"strconv"

	"fedwcm/internal/data"
	"fedwcm/internal/fl"
	"fedwcm/internal/nn"
	"fedwcm/internal/tensor"
)

// Report summarises a concentration measurement over one probe batch.
type Report struct {
	// PerLayer holds the normalised Herfindahl concentration index per
	// measured layer: 1 means activation mass is spread uniformly over the
	// layer's units, values approaching the unit count mean a few dominant
	// neurons hold all the mass — the signature the paper's Figure 4 tracks.
	PerLayer []float64
	Mean     float64
}

// Concentration measures neuron concentration of net on probe inputs x.
// It measures after each activation layer (ReLU/LeakyReLU/Tanh); networks
// without activations (linear models) are measured at every layer output.
func Concentration(net *nn.Network, x *tensor.Dense) Report {
	outs := net.ForwardCollect(x, false)
	var perLayer []float64
	for i, l := range net.Layers {
		switch l.(type) {
		case *nn.ReLU, *nn.LeakyReLU, *nn.Tanh:
			perLayer = append(perLayer, unitConcentration(outs[i]))
		}
	}
	if len(perLayer) == 0 {
		for _, out := range outs {
			perLayer = append(perLayer, unitConcentration(out))
		}
	}
	mean := tensor.Mean(perLayer)
	return Report{PerLayer: perLayer, Mean: mean}
}

// unitConcentration computes the normalised Herfindahl index of mean
// absolute activation mass across units: D·Σ p_d² where p is the
// distribution of activation mass across the D units. Uniform mass → 1;
// all mass on one unit → D.
func unitConcentration(out *tensor.Dense) float64 {
	d := out.C
	if d == 0 {
		return 0
	}
	mass := make([]float64, d)
	for s := 0; s < out.R; s++ {
		row := out.Row(s)
		for j, v := range row {
			mass[j] += math.Abs(v)
		}
	}
	total := tensor.Sum(mass)
	if total <= 0 {
		return float64(d) // degenerate: treat dead layer as fully collapsed
	}
	hhi := 0.0
	for _, m := range mass {
		p := m / total
		hhi += p * p
	}
	return hhi * float64(d)
}

// ClassFeatureStats summarises last-hidden-layer class geometry: the mean
// pairwise cosine similarity between class-mean features, split into
// head-vs-head and tail-vs-rest pairs. Under minority collapse the tail
// cosines rise toward 1 (tail features merge into head directions).
type ClassFeatureStats struct {
	MeanCosineAll  float64
	MeanCosineTail float64 // pairs involving the tail half of the classes
	DeadTailRate   float64 // fraction of tail classes with ~zero feature mass
}

// ClassFeatures computes ClassFeatureStats from the output of the last
// activation layer over a labelled probe set. Classes are assumed ordered
// head→tail (as the long-tail generator produces them).
func ClassFeatures(net *nn.Network, ds *data.Dataset, maxSamples int) ClassFeatureStats {
	n := ds.Len()
	if maxSamples > 0 && n > maxSamples {
		n = maxSamples
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	x, y := ds.Gather(idx, nil, nil)
	outs := net.ForwardCollect(x, false)
	// feature layer = output of the last activation; networks without
	// activations fall back to the final logits.
	featIdx := len(outs) - 1
scan:
	for i := len(net.Layers) - 1; i >= 0; i-- {
		switch net.Layers[i].(type) {
		case *nn.ReLU, *nn.LeakyReLU, *nn.Tanh:
			featIdx = i
			break scan
		}
	}
	feat := outs[featIdx]
	classes := ds.Classes
	means := make([][]float64, classes)
	counts := make([]float64, classes)
	for c := range means {
		means[c] = make([]float64, feat.C)
	}
	for s := 0; s < feat.R; s++ {
		tensor.AddVec(means[y[s]], feat.Row(s))
		counts[y[s]]++
	}
	for c := range means {
		if counts[c] > 0 {
			tensor.Scale(means[c], 1/counts[c])
		}
	}
	tailStart := classes / 2
	var all, tail []float64
	dead := 0
	for a := 0; a < classes; a++ {
		for b := a + 1; b < classes; b++ {
			cos := tensor.CosineSim(means[a], means[b])
			all = append(all, cos)
			if b >= tailStart {
				tail = append(tail, cos)
			}
		}
	}
	for c := tailStart; c < classes; c++ {
		if tensor.Norm2(means[c]) < 1e-6 {
			dead++
		}
	}
	st := ClassFeatureStats{
		MeanCosineAll:  tensor.Mean(all),
		MeanCosineTail: tensor.Mean(tail),
	}
	if classes-tailStart > 0 {
		st.DeadTailRate = float64(dead) / float64(classes-tailStart)
	}
	return st
}

// Probe returns the fl.Probe behind the "collapse" run probe: at every
// evaluation it measures concentration on the fixed batch x and reports the
// mean as metric "concentration" and each measured layer as
// "concentration/act<i>" (1-based, in network order).
func Probe(x *tensor.Dense) fl.Probe {
	return func(net *nn.Network, metrics map[string]float64) {
		rep := Concentration(net, x)
		metrics["concentration"] = rep.Mean
		for i, v := range rep.PerLayer {
			metrics["concentration/act"+strconv.Itoa(i+1)] = v
		}
	}
}

// ProbeBatch extracts an evaluation probe batch (the first n rows) from a
// dataset.
func ProbeBatch(ds *data.Dataset, n int) *tensor.Dense {
	return ds.Head(n).X
}
