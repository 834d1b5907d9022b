package methods

import (
	"fedwcm/internal/fl"
	"fedwcm/internal/loss"
)

// serverMomentum is the server side of client-level momentum, the part the
// FedCM family shares: Δ_r, the aggregate gradient direction of the previous
// round, handed to every local step and refreshed from each aggregation. A
// method embedding it is its weights and its α — the rest is here.
type serverMomentum struct {
	env          *fl.Env
	momentum     []float64
	haveMomentum bool
	wbuf         []float64 // reusable per-round weight vector
}

func (s *serverMomentum) init(env *fl.Env, dim int) {
	s.env = env
	s.momentum = make([]float64, dim)
	s.haveMomentum = false
	s.wbuf = make([]float64, 0, env.Cfg.SampleClients)
}

// localOpts mixes Δ_r into local steps with coefficient alpha. The first
// round runs plain SGD (Δ_0 is undefined), matching common implementations.
func (s *serverMomentum) localOpts(alpha float64) fl.LocalOpts {
	opts := fl.LocalOpts{Alpha: alpha}
	if s.haveMomentum {
		opts.Momentum = s.momentum
	}
	return opts
}

// step applies the server update under weights w and refreshes the momentum
// from the same weights: Δ_{r+1} = Σ w_k·Delta_k/(η_l·B_k).
func (s *serverMomentum) step(global []float64, results []*fl.ClientResult, w []float64) {
	fl.WeightedDeltaInto(global, s.env.Cfg.EtaG, results, w)
	fl.MomentumFrom(s.momentum, s.env.Cfg.EtaL, results, w)
	s.haveMomentum = true
}

// FedCM is client-level momentum federated learning (Xu et al. 2021):
// every local step uses v = α·g + (1−α)·Δ_r, where Δ_r is the server's
// aggregate gradient direction from the previous round (see serverMomentum).
//
// LossFor and Balanced implement the paper's "FedCM + Focal Loss",
// "FedCM + Balance Loss" and "FedCM + Balance Sampler" baselines without
// separate method types.
type FedCM struct {
	Alpha float64
	// LossFor, when set, builds a per-client loss (e.g. PriorCE over the
	// client's local class counts). Nil uses the environment default.
	LossFor func(c *fl.Client) loss.Loss
	// Balanced switches local training to the class-balanced sampler.
	Balanced bool

	serverMomentum
	name string
	// lossCache holds one LossFor-built loss per client, built at Init
	// (clientLosses). A client trains at most once per round, so no loss
	// value is shared between concurrent LocalTrain calls.
	lossCache []loss.Loss
}

// NewFedCM returns FedCM with mixing coefficient alpha (the paper uses 0.1).
func NewFedCM(alpha float64) *FedCM {
	return &FedCM{Alpha: alpha, name: "fedcm"}
}

// NewFedCMFocal returns the FedCM + Focal Loss baseline.
func NewFedCMFocal(alpha, gamma float64) *FedCM {
	return &FedCM{
		Alpha:   alpha,
		name:    "fedcm+focal",
		LossFor: func(*fl.Client) loss.Loss { return loss.Focal{Gamma: gamma} },
	}
}

// NewFedCMBalanceLoss returns the FedCM + Balance Loss (PriorCE over local
// class counts) baseline.
func NewFedCMBalanceLoss(alpha, tau float64) *FedCM {
	return &FedCM{Alpha: alpha, name: "fedcm+balanceloss", LossFor: priorCE(tau)}
}

// NewFedCMBalanceSampler returns the FedCM + Balance Sampler baseline.
func NewFedCMBalanceSampler(alpha float64) *FedCM {
	return &FedCM{Alpha: alpha, name: "fedcm+balancesampler", Balanced: true}
}

// Name implements fl.Method.
func (m *FedCM) Name() string { return m.name }

// Init implements fl.Method.
func (m *FedCM) Init(env *fl.Env, dim int) {
	m.serverMomentum.init(env, dim)
	m.lossCache = clientLosses(env, m.LossFor)
}

// LocalTrain implements fl.Method.
func (m *FedCM) LocalTrain(ctx *fl.ClientCtx) *fl.ClientResult {
	opts := m.localOpts(m.Alpha)
	opts.Balanced = m.Balanced
	if m.lossCache != nil {
		opts.Loss = m.lossCache[ctx.Client.ID]
	}
	return fl.RunLocalSGD(ctx, opts)
}

// Aggregate implements fl.Method: uniform delta averaging plus the momentum
// refresh.
func (m *FedCM) Aggregate(round int, global []float64, results []*fl.ClientResult) {
	m.wbuf = fl.UniformWeightsInto(m.wbuf, len(results))
	m.step(global, results, m.wbuf)
}

// AggregateAsync implements fl.AsyncAggregator: FedCM's base weights are
// uniform, so composing them with the staleness discounts and renormalising
// is the engine's convex info.Weights itself. Both the server step and the
// momentum refresh stay convex combinations in which stale updates count
// less (staleness-corrected momentum); with unit discounts the weights are
// exactly 1/n and this is Aggregate bit for bit, which the degenerate-case
// goldens rely on.
func (m *FedCM) AggregateAsync(info *fl.AsyncInfo, global []float64, results []*fl.ClientResult) {
	m.step(global, results, info.Weights)
}
