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
// deltas: FedAvg, FedProx, FedSAM, FedSpeed, BalanceFL, FedDyn and FedSMOO.
// Each is one factories row; none has an AggregateAsync, so under async
// they all take the engine's fallback.
type averaging struct {
	name string
	opts fl.LocalOpts // the method's fixed local options
	// uniform averages with equal weights instead of sample-size weights.
	uniform bool
	// dyn keeps FedDyn's per-client correction h_k: the local gradient
	// gets −h_k, then h_k += opts.ProxMu·Δ_k (FedDyn-lite; see DESIGN.md).
	dyn bool
	// lossFor, when set, builds each client's loss once at Init.
	lossFor func(*fl.Client) loss.Loss

	env    *fl.Env
	h      [][]float64 // h_k per client, when dyn
	losses []loss.Loss
	wbuf   []float64 // reusable per-round weight vector
}

// Name implements fl.Method.
func (m *averaging) Name() string { return m.name }

// Init implements fl.Method.
func (m *averaging) Init(env *fl.Env, dim int) {
	m.env = env
	if m.dyn {
		m.h = make([][]float64, len(env.Clients))
		for k := range m.h {
			m.h[k] = make([]float64, dim)
		}
	}
	m.losses = clientLosses(env, m.lossFor)
	m.wbuf = make([]float64, 0, env.Cfg.SampleClients)
}

// LocalTrain implements fl.Method. A client trains at most once per round,
// so its h_k and its loss are never shared between concurrent calls.
func (m *averaging) LocalTrain(ctx *fl.ClientCtx) *fl.ClientResult {
	k := ctx.Client.ID
	opts := m.opts
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
	fl.WeightedDeltaInto(global, m.env.Cfg.EtaG, results, m.wbuf)
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
