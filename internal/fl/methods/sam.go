package methods

import "fedwcm/internal/fl"

// fedlesam perturbs along a *globally estimated* direction instead of the
// local batch gradient, saving one backward pass per step (simplified
// FedLESAM). The direction is serverMomentum's Δ_r, the previous round's
// aggregate update, fed to the SAM perturbation rather than to the momentum
// mix. The first round has no Δ_r and runs plain SGD; a zero Δ_r perturbs
// nothing, because the local trainer skips a SAM direction of norm ≤ 1e-12.
type fedlesam struct {
	serverMomentum
	rho float64
}

// Name implements fl.Method.
func (m *fedlesam) Name() string { return "fedlesam" }

// Init implements fl.Method.
func (m *fedlesam) Init(env *fl.Env, dim int) { m.serverMomentum.init(env, dim) }

// LocalTrain implements fl.Method.
func (m *fedlesam) LocalTrain(ctx *fl.ClientCtx) *fl.ClientResult {
	var opts fl.LocalOpts
	if m.haveMomentum {
		opts.SAMRho, opts.SAMGlobalDir = m.rho, m.momentum
	}
	return fl.RunLocalSGD(ctx, opts)
}

// Aggregate implements fl.Method.
func (m *fedlesam) Aggregate(round int, global []float64, results []*fl.ClientResult) {
	m.wbuf = fl.SizeWeightsInto(m.wbuf, results)
	m.step(global, results, m.wbuf)
}
