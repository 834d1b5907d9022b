package methods

import (
	"math"

	"fedwcm/internal/fl"
	"fedwcm/internal/tensor"
)

// FedGraB is a simplified FedGraB (Xiao et al.): a self-adjusting gradient
// balancer. The server maintains per-class logit-gradient gains b_c; clients
// scale column c of d(loss)/d(logits) by b_c, and after each round the
// server nudges b using the aggregated predicted-class histogram toward the
// target (uniform) prediction share (FedGraB-lite; see DESIGN.md).
type FedGraB struct {
	Rho    float64 // balancer step size
	env    *fl.Env
	gains  []float64
	target []float64
	hist   []float64 // per-round prediction histogram accumulator
	wbuf   []float64
}

// FedGraB's gains stay within [minGain, maxGain].
const (
	minGain float64 = 0.2
	maxGain float64 = 5
)

// NewFedGraB returns FedGraB-lite with balancer step rho.
func NewFedGraB(rho float64) *FedGraB { return &FedGraB{Rho: rho} }

// Name implements fl.Method.
func (m *FedGraB) Name() string { return "fedgrab" }

// Init implements fl.Method.
func (m *FedGraB) Init(env *fl.Env, dim int) {
	m.env = env
	classes := env.Train.Classes
	m.gains = make([]float64, classes)
	for i := range m.gains {
		m.gains[i] = 1
	}
	m.target = make([]float64, classes)
	for i := range m.target {
		m.target[i] = 1 / float64(classes)
	}
	m.hist = make([]float64, classes)
	m.wbuf = make([]float64, 0, env.Cfg.SampleClients)
}

// LocalTrain implements fl.Method. The gains slice is read concurrently by
// workers and only written in Aggregate, which the engine serialises.
func (m *FedGraB) LocalTrain(ctx *fl.ClientCtx) *fl.ClientResult {
	return fl.RunLocalSGD(ctx, fl.LocalOpts{LogitScale: m.gains, TrackPreds: true})
}

// Aggregate implements fl.Method: standard averaging plus the balancer
// update b_c ← clip(b_c·exp(−ρ·(share_c − target_c))).
func (m *FedGraB) Aggregate(round int, global []float64, results []*fl.ClientResult) {
	m.wbuf = fl.SizeWeightsInto(m.wbuf, results)
	fl.WeightedDeltaInto(global, m.env.Cfg.EtaG, results, m.wbuf)
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
		m.gains[c] *= math.Exp(-m.Rho * (share - m.target[c]))
		if m.gains[c] < minGain {
			m.gains[c] = minGain
		}
		if m.gains[c] > maxGain {
			m.gains[c] = maxGain
		}
	}
}
