package methods

import (
	"fedwcm/internal/fl"
	"fedwcm/internal/tensor"
)

// FedLESAM perturbs along a *globally estimated* direction — the previous
// round's aggregate update — instead of the local batch gradient, saving
// one backward pass per step (simplified FedLESAM).
type FedLESAM struct {
	Rho     float64
	env     *fl.Env
	dir     []float64
	haveDir bool
	wbuf    []float64
}

// NewFedLESAM returns FedLESAM-lite with radius rho.
func NewFedLESAM(rho float64) *FedLESAM { return &FedLESAM{Rho: rho} }

// Name implements fl.Method.
func (m *FedLESAM) Name() string { return "fedlesam" }

// Init implements fl.Method.
func (m *FedLESAM) Init(env *fl.Env, dim int) {
	m.env = env
	m.dir = make([]float64, dim)
	m.wbuf = make([]float64, 0, env.Cfg.SampleClients)
}

// LocalTrain implements fl.Method.
func (m *FedLESAM) LocalTrain(ctx *fl.ClientCtx) *fl.ClientResult {
	opts := fl.LocalOpts{}
	if m.haveDir {
		opts.SAMRho = m.Rho
		opts.SAMGlobalDir = m.dir
	}
	return fl.RunLocalSGD(ctx, opts)
}

// Aggregate implements fl.Method.
func (m *FedLESAM) Aggregate(round int, global []float64, results []*fl.ClientResult) {
	m.wbuf = fl.SizeWeightsInto(m.wbuf, results)
	w := m.wbuf
	fl.WeightedDeltaInto(global, m.env.Cfg.EtaG, results, w)
	fl.MomentumFrom(m.dir, m.env.Cfg.EtaL, results, w)
	m.haveDir = tensor.Norm2(m.dir) > 0
}
