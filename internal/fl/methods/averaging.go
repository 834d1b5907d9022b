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
	"fedwcm/internal/loss"
	"fedwcm/internal/tensor"
)

// averaging is every method whose client step is local SGD under fixed
// options and whose server step is one weighted average of the client
// deltas: FedAvg, FedProx, FedSAM, FedSpeed, BalanceFL, FedDyn and FedSMOO,
// and, with alpha set, the client-momentum rows FedCM (with its focal,
// balance-loss and balance-sampler variants) and MoFedSAM. Each is one
// factories row; FedAvgM, FedGraB and SCAFFOLD embed it. Only the fedcm*
// rows, wrapped in fedcm, have an AggregateAsync; under async the rest take
// the engine's fallback. averaging gains no method (see DESIGN.md).
type averaging struct {
	name string
	opts fl.LocalOpts // the method's fixed local options
	// uniform averages with equal weights instead of sample-size weights.
	uniform bool
	// alpha, when nonzero, mixes the server's last aggregate direction Δ_r
	// into every local step, v = α·g + (1−α)·Δ_r (FedCM's client-level
	// momentum, Xu et al. 2021), and refreshes Δ_r from each aggregation.
	alpha float64
	// dyn keeps FedDyn's per-client correction h_k: the local gradient
	// gets −h_k, then h_k += opts.ProxMu·Δ_k (FedDyn-lite; see DESIGN.md).
	dyn bool
	// lossFor, when set, builds each client's loss once at Init.
	lossFor func(*fl.Client) loss.Loss

	// serverMomentum holds env and the weight buffer for every row, and
	// Δ_r only for a row with alpha.
	serverMomentum
	h      [][]float64 // h_k per client, when dyn
	losses []loss.Loss
}

// Name implements fl.Method.
func (m *averaging) Name() string { return m.name }

// Init implements fl.Method. A row without alpha allocates no Δ_r.
func (m *averaging) Init(env *fl.Env, dim int) {
	momDim := 0
	if m.alpha != 0 {
		momDim = dim
	}
	m.serverMomentum.init(env, momDim)
	if m.dyn {
		m.h = make([][]float64, len(env.Clients))
		for k := range m.h {
			m.h[k] = make([]float64, dim)
		}
	}
	m.losses = clientLosses(env, m.lossFor)
}

// LocalTrain implements fl.Method. A client trains at most once per round,
// so its h_k and its loss are never shared between concurrent calls.
func (m *averaging) LocalTrain(ctx *fl.ClientCtx) *fl.ClientResult {
	k := ctx.Client.ID
	opts := m.opts
	if m.alpha != 0 {
		mix := m.localOpts(m.alpha)
		opts.Alpha, opts.Momentum = mix.Alpha, mix.Momentum
	}
	if m.losses != nil {
		opts.Loss = m.losses[k]
	}
	if !m.dyn {
		return fl.RunLocalSGD(ctx, opts)
	}
	h := m.h[k]
	corr := ctx.CorrectionBuf(len(h))
	for j := range corr {
		corr[j] = -h[j]
	}
	opts.Correction = corr
	res := fl.RunLocalSGD(ctx, opts)
	tensor.Axpy(h, opts.ProxMu, res.Delta) // h_k ← h_k − μ(x_local − x_r)
	return res
}

// Aggregate implements fl.Method.
func (m *averaging) Aggregate(round int, global []float64, results []*fl.ClientResult) {
	if m.uniform {
		m.wbuf = fl.UniformWeightsInto(m.wbuf, len(results))
	} else {
		m.wbuf = fl.SizeWeightsInto(m.wbuf, results)
	}
	if m.alpha != 0 {
		m.step(global, results, m.wbuf)
		return
	}
	fl.WeightedDeltaInto(global, m.env.Cfg.EtaG, results, m.wbuf)
}

// fedcm is a FedCM row (Xu et al. 2021): averaging with uniform weights and
// alpha, plus AggregateAsync. It is a type apart from averaging only so that
// MoFedSAM, the one other row with alpha, keeps the engine's async fallback:
// the K = 3 async goldens pin which path each takes.
type fedcm struct{ averaging }

// NewFedCM returns FedCM with mixing coefficient alpha (the paper uses 0.1);
// alpha = 0 would be the no-momentum row, uniformly weighted FedAvg.
func NewFedCM(alpha float64) fl.Method {
	return &fedcm{averaging{name: "fedcm", alpha: alpha, uniform: true}}
}

// AggregateAsync implements fl.AsyncAggregator: FedCM's base weights are
// uniform, so composing them with the staleness discounts and renormalising
// is the engine's convex info.Weights itself. Both the server step and the
// momentum refresh stay convex combinations in which stale updates count
// less (staleness-corrected momentum); with unit discounts the weights are
// exactly 1/n and this is Aggregate bit for bit, which the degenerate-case
// goldens rely on.
func (m *fedcm) AggregateAsync(info *fl.AsyncInfo, global []float64, results []*fl.ClientResult) {
	m.step(global, results, info.Weights)
}

// clientLosses builds lossFor once per client (nil when lossFor is): a
// client's loss is a pure function of its static state, so building it per
// round would only churn allocations.
func clientLosses(env *fl.Env, lossFor func(*fl.Client) loss.Loss) []loss.Loss {
	if lossFor == nil {
		return nil
	}
	out := make([]loss.Loss, len(env.Clients))
	for k, c := range env.Clients {
		out[k] = lossFor(c)
	}
	return out
}

// priorCE is the logit-adjusted loss over a client's local class counts
// with strength tau: fedcm+balanceloss's loss and BalanceFL-lite's.
func priorCE(tau float64) func(*fl.Client) loss.Loss {
	return func(c *fl.Client) loss.Loss {
		counts := make([]float64, len(c.ClassCounts))
		for i, n := range c.ClassCounts {
			counts[i] = float64(n)
		}
		return loss.NewPriorCE(tau, counts)
	}
}

// FedAvgM adds server-side momentum over the aggregated delta (SlowMo /
// server-momentum style): FedAvg with the server optimiser swapped, nothing
// else — with beta = 0 it is FedAvg (pinned by TestFedAvgMZeroBetaIsFedAvg).
//
// It reaches serverMomentum through averaging with a zero-length Δ_r: Δ_r
// is the *last* aggregate direction, handed to clients, while FedAvgM's m
// *accumulates*, never reaches a client and replaces the server update.
type FedAvgM struct {
	averaging
	beta float64
	mom  []float64
}

// NewFedAvgM returns FedAvg with server momentum coefficient beta.
func NewFedAvgM(beta float64) *FedAvgM {
	return &FedAvgM{averaging: averaging{name: "fedavgm"}, beta: beta}
}

// Init implements fl.Method.
func (m *FedAvgM) Init(env *fl.Env, dim int) {
	m.averaging.Init(env, dim)
	m.mom = make([]float64, dim)
}

// Aggregate implements fl.Method: m ← β·m + Σ w·Δ; x ← x − η_g·m.
func (m *FedAvgM) Aggregate(round int, global []float64, results []*fl.ClientResult) {
	m.wbuf = fl.SizeWeightsInto(m.wbuf, results)
	tensor.Scale(m.mom, m.beta)
	for i, res := range results {
		if res == nil {
			continue
		}
		tensor.Axpy(m.mom, m.wbuf[i], res.Delta)
	}
	tensor.Axpy(global, -m.env.Cfg.EtaG, m.mom)
}
