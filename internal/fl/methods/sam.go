package methods

import (
	"fedwcm/internal/fl"
	"fedwcm/internal/tensor"
)

// FedSAM applies sharpness-aware minimisation locally: each step first
// ascends ρ along the normalised batch gradient, then descends using the
// gradient at the perturbed point.
type FedSAM struct {
	Rho  float64
	env  *fl.Env
	wbuf []float64
}

// NewFedSAM returns FedSAM with perturbation radius rho.
func NewFedSAM(rho float64) *FedSAM { return &FedSAM{Rho: rho} }

// Name implements fl.Method.
func (m *FedSAM) Name() string { return "fedsam" }

// Init implements fl.Method.
func (m *FedSAM) Init(env *fl.Env, dim int) {
	m.env = env
	m.wbuf = make([]float64, 0, env.Cfg.SampleClients)
}

// LocalTrain implements fl.Method.
func (m *FedSAM) LocalTrain(ctx *fl.ClientCtx) *fl.ClientResult {
	return fl.RunLocalSGD(ctx, fl.LocalOpts{SAMRho: m.Rho})
}

// Aggregate implements fl.Method.
func (m *FedSAM) Aggregate(round int, global []float64, results []*fl.ClientResult) {
	m.wbuf = fl.SizeWeightsInto(m.wbuf, results)
	fl.WeightedDeltaInto(global, m.env.Cfg.EtaG, results, m.wbuf)
}

// MoFedSAM combines FedSAM's local perturbation with FedCM's client-level
// momentum mixing.
type MoFedSAM struct {
	Alpha, Rho float64
	serverMomentum
}

// NewMoFedSAM returns MoFedSAM.
func NewMoFedSAM(alpha, rho float64) *MoFedSAM { return &MoFedSAM{Alpha: alpha, Rho: rho} }

// Name implements fl.Method.
func (m *MoFedSAM) Name() string { return "mofedsam" }

// Init implements fl.Method.
func (m *MoFedSAM) Init(env *fl.Env, dim int) { m.serverMomentum.init(env, dim) }

// LocalTrain implements fl.Method.
func (m *MoFedSAM) LocalTrain(ctx *fl.ClientCtx) *fl.ClientResult {
	opts := m.localOpts(m.Alpha)
	opts.SAMRho = m.Rho
	return fl.RunLocalSGD(ctx, opts)
}

// Aggregate implements fl.Method.
func (m *MoFedSAM) Aggregate(round int, global []float64, results []*fl.ClientResult) {
	m.wbuf = fl.UniformWeightsInto(m.wbuf, len(results))
	m.step(global, results, m.wbuf)
}

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

// FedSMOO couples FedDyn's dynamic regularisation with SAM perturbation
// (simplified FedSMOO).
type FedSMOO struct {
	Rho, Mu float64
	env     *fl.Env
	h       [][]float64
	wbuf    []float64
}

// NewFedSMOO returns FedSMOO-lite.
func NewFedSMOO(rho, mu float64) *FedSMOO { return &FedSMOO{Rho: rho, Mu: mu} }

// Name implements fl.Method.
func (m *FedSMOO) Name() string { return "fedsmoo" }

// Init implements fl.Method.
func (m *FedSMOO) Init(env *fl.Env, dim int) {
	m.env = env
	m.h = make([][]float64, len(env.Clients))
	for k := range m.h {
		m.h[k] = make([]float64, dim)
	}
	m.wbuf = make([]float64, 0, env.Cfg.SampleClients)
}

// LocalTrain implements fl.Method.
func (m *FedSMOO) LocalTrain(ctx *fl.ClientCtx) *fl.ClientResult {
	k := ctx.Client.ID
	corr := ctx.CorrectionBuf(len(m.h[k]))
	for j := range corr {
		corr[j] = -m.h[k][j]
	}
	res := fl.RunLocalSGD(ctx, fl.LocalOpts{SAMRho: m.Rho, ProxMu: m.Mu, Correction: corr})
	tensor.Axpy(m.h[k], m.Mu, res.Delta)
	return res
}

// Aggregate implements fl.Method.
func (m *FedSMOO) Aggregate(round int, global []float64, results []*fl.ClientResult) {
	m.wbuf = fl.UniformWeightsInto(m.wbuf, len(results))
	fl.WeightedDeltaInto(global, m.env.Cfg.EtaG, results, m.wbuf)
}

// FedSpeed combines a proximal term with SAM-style gradient perturbation
// (simplified FedSpeed).
type FedSpeed struct {
	Rho, Mu float64
	env     *fl.Env
	wbuf    []float64
}

// NewFedSpeed returns FedSpeed-lite.
func NewFedSpeed(rho, mu float64) *FedSpeed { return &FedSpeed{Rho: rho, Mu: mu} }

// Name implements fl.Method.
func (m *FedSpeed) Name() string { return "fedspeed" }

// Init implements fl.Method.
func (m *FedSpeed) Init(env *fl.Env, dim int) {
	m.env = env
	m.wbuf = make([]float64, 0, env.Cfg.SampleClients)
}

// LocalTrain implements fl.Method.
func (m *FedSpeed) LocalTrain(ctx *fl.ClientCtx) *fl.ClientResult {
	return fl.RunLocalSGD(ctx, fl.LocalOpts{SAMRho: m.Rho, ProxMu: m.Mu})
}

// Aggregate implements fl.Method.
func (m *FedSpeed) Aggregate(round int, global []float64, results []*fl.ClientResult) {
	m.wbuf = fl.SizeWeightsInto(m.wbuf, results)
	fl.WeightedDeltaInto(global, m.env.Cfg.EtaG, results, m.wbuf)
}
