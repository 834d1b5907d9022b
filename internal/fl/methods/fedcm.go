package methods

import "fedwcm/internal/fl"

// serverMomentum is the server side of client-level momentum, the part the
// FedCM family shares: Δ_r, the aggregate gradient direction of the previous
// round, handed to every local step and refreshed from each aggregation. A
// method embedding it is its weights and its α — the rest is here. FedLESAM
// embeds it too, and hands Δ_r to the SAM perturbation instead.
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
