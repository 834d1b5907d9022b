// Package collapse implements the layer-wise activation analysis behind the
// paper's motivation (§4) and Appendix B: the "neuron concentration" metric
// whose spikes track FedCM's minority collapse under long-tailed data.
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
// It measures after each ReLU, the only activation the network builders
// use; networks without activations (linear models) are measured at every
// layer output.
func Concentration(net *nn.Network, x *tensor.Dense) Report {
	outs := net.ForwardCollect(x)
	var perLayer []float64
	for i, l := range net.Layers {
		if _, ok := l.(*nn.ReLU); ok {
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
		hhi += float64(p * p)
	}
	return hhi * float64(d)
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
