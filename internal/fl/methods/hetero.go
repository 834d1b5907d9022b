package methods

import (
	"fedwcm/internal/fl"
	"fedwcm/internal/tensor"
)

// SCAFFOLD corrects client drift with control variates (Karimireddy et al.):
// each local gradient is shifted by (c − c_i), and after local training the
// client refreshes c_i from its accumulated update.
type SCAFFOLD struct {
	env  *fl.Env
	c    []float64   // server control variate
	ci   [][]float64 // per-client control variates
	pay  [][]float64 // per-client payload buffers: c_i⁺ − c_i
	wbuf []float64
}

// NewSCAFFOLD returns a SCAFFOLD method.
func NewSCAFFOLD() *SCAFFOLD { return &SCAFFOLD{} }

// Name implements fl.Method.
func (m *SCAFFOLD) Name() string { return "scaffold" }

// Init implements fl.Method: allocates all control variates and payload
// buffers up front so concurrent LocalTrain calls only touch disjoint
// slices and a round allocates nothing.
func (m *SCAFFOLD) Init(env *fl.Env, dim int) {
	m.env = env
	m.c = make([]float64, dim)
	m.ci = make([][]float64, len(env.Clients))
	m.pay = make([][]float64, len(env.Clients))
	for k := range m.ci {
		m.ci[k] = make([]float64, dim)
		m.pay[k] = make([]float64, dim)
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
		// c_i and its payload buffer are client k's alone within a round
		// (race-free), and the payload is read by Aggregate (the async
		// engine copies it on arrival) before client k trains again.
		inv := 1 / (m.env.Cfg.EtaL * float64(res.Steps))
		ci, payload := m.ci[k], m.pay[k]
		for j, old := range ci {
			ci[j] = old - m.c[j] + float64(res.Delta[j]*inv)
			payload[j] = ci[j] - old
		}
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
