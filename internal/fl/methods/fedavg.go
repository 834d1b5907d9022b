// Package methods implements the federated algorithms evaluated in the
// paper: the contribution (FedWCM, FedWCM-X), the momentum baseline family
// (FedCM and its loss/sampler variants), long-tail baselines (BalanceFL,
// FedGraB — simplified re-implementations, see DESIGN.md) and the
// heterogeneous-FL baselines of Appendix D (FedProx, SCAFFOLD, FedDyn and
// the SAM family). All methods plug into the fl engine through fl.Method
// and share the generic local-SGD trainer.
package methods

import (
	"fedwcm/internal/fl"
	"fedwcm/internal/tensor"
)

// FedAvg is vanilla federated averaging (McMahan et al.).
type FedAvg struct {
	env  *fl.Env
	wbuf []float64 // reusable per-round weight vector
}

// NewFedAvg returns a FedAvg method.
func NewFedAvg() *FedAvg { return &FedAvg{} }

// Name implements fl.Method.
func (m *FedAvg) Name() string { return "fedavg" }

// Init implements fl.Method.
func (m *FedAvg) Init(env *fl.Env, dim int) {
	m.env = env
	m.wbuf = make([]float64, 0, env.Cfg.SampleClients)
}

// LocalTrain implements fl.Method: plain local SGD.
func (m *FedAvg) LocalTrain(ctx *fl.ClientCtx) *fl.ClientResult {
	return fl.RunLocalSGD(ctx, fl.LocalOpts{})
}

// Aggregate implements fl.Method: size-weighted parameter averaging.
func (m *FedAvg) Aggregate(round int, global []float64, results []*fl.ClientResult) {
	m.wbuf = fl.SizeWeightsInto(m.wbuf, results)
	fl.WeightedDeltaInto(global, m.env.Cfg.EtaG, results, m.wbuf)
}

// FedAvgM adds server-side momentum over the aggregated delta (SlowMo /
// server-momentum style): FedAvg with the server optimiser swapped, nothing
// else — with Beta = 0 it is FedAvg (pinned by TestFedAvgMZeroBetaIsFedAvg).
//
// It deliberately does not embed serverMomentum, although both keep "a
// momentum vector on the server". serverMomentum is the FedCM family's
// client-level momentum: Δ_r is the *last* aggregate gradient direction,
// overwritten every round (no β, no accumulation), rescaled by 1/(η_l·B_k)
// and handed into every local step, while the server update itself stays
// plain FedAvg. FedAvgM is the opposite on each point: an *accumulating*
// buffer m ← β·m + Σ w·Δ that exists only on the server, never reaches a
// client, and replaces the server update (x ← x − η_g·m). Sharing a type
// would share a name and one slice, and need a switch for everything else.
type FedAvgM struct {
	Beta float64
	env  *fl.Env
	mom  []float64
	wbuf []float64
}

// NewFedAvgM returns FedAvg with server momentum coefficient beta.
func NewFedAvgM(beta float64) *FedAvgM { return &FedAvgM{Beta: beta} }

// Name implements fl.Method.
func (m *FedAvgM) Name() string { return "fedavgm" }

// Init implements fl.Method.
func (m *FedAvgM) Init(env *fl.Env, dim int) {
	m.env = env
	m.mom = make([]float64, dim)
	m.wbuf = make([]float64, 0, env.Cfg.SampleClients)
}

// LocalTrain implements fl.Method.
func (m *FedAvgM) LocalTrain(ctx *fl.ClientCtx) *fl.ClientResult {
	return fl.RunLocalSGD(ctx, fl.LocalOpts{})
}

// Aggregate implements fl.Method: m ← β·m + Σ w·Δ; x ← x − η_g·m.
func (m *FedAvgM) Aggregate(round int, global []float64, results []*fl.ClientResult) {
	m.wbuf = fl.SizeWeightsInto(m.wbuf, results)
	w := m.wbuf
	tensor.Scale(m.mom, m.Beta)
	for i, res := range results {
		if res == nil {
			continue
		}
		tensor.Axpy(m.mom, w[i], res.Delta)
	}
	tensor.Axpy(global, -m.env.Cfg.EtaG, m.mom)
}
