package methods

import (
	"fedwcm/internal/fl"
	"fedwcm/internal/tensor"
)

// FedProx adds the proximal term (μ/2)·‖x − x_r‖² to the local objective.
type FedProx struct {
	Mu   float64
	env  *fl.Env
	wbuf []float64
}

// NewFedProx returns FedProx with proximal strength mu.
func NewFedProx(mu float64) *FedProx { return &FedProx{Mu: mu} }

// Name implements fl.Method.
func (m *FedProx) Name() string { return "fedprox" }

// Init implements fl.Method.
func (m *FedProx) Init(env *fl.Env, dim int) {
	m.env = env
	m.wbuf = make([]float64, 0, env.Cfg.SampleClients)
}

// LocalTrain implements fl.Method.
func (m *FedProx) LocalTrain(ctx *fl.ClientCtx) *fl.ClientResult {
	return fl.RunLocalSGD(ctx, fl.LocalOpts{ProxMu: m.Mu})
}

// Aggregate implements fl.Method.
func (m *FedProx) Aggregate(round int, global []float64, results []*fl.ClientResult) {
	m.wbuf = fl.SizeWeightsInto(m.wbuf, results)
	fl.WeightedDeltaInto(global, m.env.Cfg.EtaG, results, m.wbuf)
}

// SCAFFOLD corrects client drift with control variates (Karimireddy et al.):
// each local gradient is shifted by (c − c_i), and after local training the
// client refreshes c_i from its accumulated update.
type SCAFFOLD struct {
	env  *fl.Env
	c    []float64   // server control variate
	ci   [][]float64 // per-client control variates
	wbuf []float64
}

// NewSCAFFOLD returns a SCAFFOLD method.
func NewSCAFFOLD() *SCAFFOLD { return &SCAFFOLD{} }

// Name implements fl.Method.
func (m *SCAFFOLD) Name() string { return "scaffold" }

// Init implements fl.Method: allocates all control variates up front so
// concurrent LocalTrain calls only touch disjoint slices.
func (m *SCAFFOLD) Init(env *fl.Env, dim int) {
	m.env = env
	m.c = make([]float64, dim)
	m.ci = make([][]float64, len(env.Clients))
	for k := range m.ci {
		m.ci[k] = make([]float64, dim)
	}
	m.wbuf = make([]float64, 0, env.Cfg.SampleClients)
}

// LocalTrain implements fl.Method.
func (m *SCAFFOLD) LocalTrain(ctx *fl.ClientCtx) *fl.ClientResult {
	k := ctx.Client.ID
	corr := ctx.CorrectionBuf(len(m.c))
	for j := range corr {
		corr[j] = m.c[j] - m.ci[k][j]
	}
	res := fl.RunLocalSGD(ctx, fl.LocalOpts{Correction: corr})
	if res.Steps > 0 {
		// Option II refresh: c_i⁺ = c_i − c + (x_r − x_local)/(η_l·B)
		inv := 1 / (m.env.Cfg.EtaL * float64(res.Steps))
		ciNew := make([]float64, len(m.c))
		payload := make([]float64, len(m.c))
		for j := range ciNew {
			ciNew[j] = m.ci[k][j] - m.c[j] + float64(res.Delta[j]*inv)
			payload[j] = ciNew[j] - m.ci[k][j]
		}
		m.ci[k] = ciNew // disjoint per client within a round: race-free
		res.Payload = payload
	}
	return res
}

// Aggregate implements fl.Method: average deltas; move c by the average
// control update scaled by the participation fraction.
func (m *SCAFFOLD) Aggregate(round int, global []float64, results []*fl.ClientResult) {
	m.wbuf = fl.UniformWeightsInto(m.wbuf, len(results))
	fl.WeightedDeltaInto(global, m.env.Cfg.EtaG, results, m.wbuf)
	scale := 1 / float64(len(m.ci))
	for _, res := range results {
		if res == nil || res.Payload == nil {
			continue
		}
		tensor.Axpy(m.c, scale, res.Payload)
	}
}

// FedDyn is a simplified FedDyn (dynamic regularisation): each client keeps
// a linear correction h_i; the local gradient is g − h_i + μ(x − x_r), and
// after training h_i ← h_i + μ·Delta. The server update stays standard
// averaging (FedDyn-lite; see DESIGN.md substitutions).
type FedDyn struct {
	Mu   float64
	env  *fl.Env
	h    [][]float64
	wbuf []float64
}

// NewFedDyn returns FedDyn-lite with regularisation strength mu.
func NewFedDyn(mu float64) *FedDyn { return &FedDyn{Mu: mu} }

// Name implements fl.Method.
func (m *FedDyn) Name() string { return "feddyn" }

// Init implements fl.Method.
func (m *FedDyn) Init(env *fl.Env, dim int) {
	m.env = env
	m.h = make([][]float64, len(env.Clients))
	for k := range m.h {
		m.h[k] = make([]float64, dim)
	}
	m.wbuf = make([]float64, 0, env.Cfg.SampleClients)
}

// LocalTrain implements fl.Method.
func (m *FedDyn) LocalTrain(ctx *fl.ClientCtx) *fl.ClientResult {
	k := ctx.Client.ID
	corr := ctx.CorrectionBuf(len(m.h[k]))
	for j := range corr {
		corr[j] = -m.h[k][j]
	}
	res := fl.RunLocalSGD(ctx, fl.LocalOpts{ProxMu: m.Mu, Correction: corr})
	tensor.Axpy(m.h[k], m.Mu, res.Delta) // h_i ← h_i − μ(x_local − x_r)
	return res
}

// Aggregate implements fl.Method.
func (m *FedDyn) Aggregate(round int, global []float64, results []*fl.ClientResult) {
	m.wbuf = fl.UniformWeightsInto(m.wbuf, len(results))
	fl.WeightedDeltaInto(global, m.env.Cfg.EtaG, results, m.wbuf)
}
