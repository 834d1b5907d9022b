package methods

import (
	"math"

	"fedwcm/internal/fl"
	"fedwcm/internal/tensor"
)

// fedgrab is a simplified FedGraB (Xiao et al.): a self-adjusting gradient
// balancer over averaging. The server keeps per-class logit-gradient gains
// b_c; clients scale column c of d(loss)/d(logits) by b_c, and after each
// round the server nudges b using the aggregated predicted-class histogram
// toward a uniform prediction share (FedGraB-lite; see DESIGN.md).
type fedgrab struct {
	averaging
	rho    float64   // balancer step size
	gains  []float64 // b_c, read by every LocalTrain through opts.LogitScale
	target float64   // the uniform share 1/classes
	hist   []float64 // per-round prediction histogram accumulator
}

// FedGraB's gains stay within [minGain, maxGain].
const (
	minGain float64 = 0.2
	maxGain float64 = 5
)

// Init implements fl.Method. The local options are set once: the gains
// slice is updated in place, so every round's LocalTrain reads the current
// gains. Workers read it concurrently; only Aggregate, which the engine
// serialises, writes it.
func (m *fedgrab) Init(env *fl.Env, dim int) {
	m.averaging.Init(env, dim)
	classes := env.Train.Classes
	m.gains = make([]float64, classes)
	for i := range m.gains {
		m.gains[i] = 1
	}
	m.target = 1 / float64(classes)
	m.hist = make([]float64, classes)
	m.opts = fl.LocalOpts{LogitScale: m.gains, TrackPreds: true}
}

// Aggregate implements fl.Method: averaging plus the balancer update
// b_c ← clip(b_c·exp(−ρ·(share_c − 1/C))).
func (m *fedgrab) Aggregate(round int, global []float64, results []*fl.ClientResult) {
	m.averaging.Aggregate(round, global, results)
	hist := m.hist
	tensor.Zero(hist)
	total := 0.0
	for _, res := range results {
		if res == nil || res.PredHist == nil {
			continue
		}
		for c, v := range res.PredHist {
			hist[c] += v
			total += v
		}
	}
	if total == 0 {
		return
	}
	for c := range m.gains {
		share := hist[c] / total
		m.gains[c] *= math.Exp(-m.rho * (share - m.target))
		if m.gains[c] < minGain {
			m.gains[c] = minGain
		}
		if m.gains[c] > maxGain {
			m.gains[c] = maxGain
		}
	}
}
