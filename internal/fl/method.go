package fl

import (
	"fedwcm/internal/nn"
	"fedwcm/internal/tensor"
	"fedwcm/internal/xrand"
)

// Method is a federated learning algorithm. The engine guarantees:
//   - Init is called exactly once before the first round;
//   - LocalTrain is called once per sampled client per round, possibly from
//     multiple goroutines concurrently (methods must only write to state
//     that is disjoint per client, e.g. per-client control variates);
//   - Aggregate is called once per round, single-threaded, after all
//     LocalTrain calls return; it must update global in place.
type Method interface {
	Name() string
	Init(env *Env, dim int)
	LocalTrain(ctx *ClientCtx) *ClientResult
	Aggregate(round int, global []float64, results []*ClientResult)
}

// MetricsReporter lets a method expose per-round diagnostics (e.g. FedWCM's
// adaptive alpha) that the engine attaches to the history.
type MetricsReporter interface {
	RoundMetrics() map[string]float64
}

// ClientCtx is everything a method needs to run one client's local work.
type ClientCtx struct {
	Client *Client
	Env    *Env
	// Net is a worker-local network pre-loaded with the global weights.
	Net *nn.Network
	// Global is the read-only global weight vector at round start.
	Global []float64
	// RNG is the deterministic per-(round, client) stream.
	RNG *xrand.RNG
	// Scratch is the worker-owned reusable workspace. It may be nil when
	// the ctx was built outside the engine runtime (tests, benchmarks);
	// RunLocalSGD and CorrectionBuf fall back to fresh allocations then.
	Scratch *ClientScratch
	// WorkFrac is the fraction of the local step budget this client
	// completes (a straggler scenario's partial-work model). 0 and values
	// >= 1 mean full work; RunLocalSGD stops after ceil(frac · steps).
	WorkFrac float64
}

// CorrectionBuf returns a dim-sized buffer for the per-client correction a
// method passes through LocalOpts.Correction — scratch-backed when the ctx
// runs inside the engine runtime, freshly allocated otherwise. Contents are
// stale; callers fully overwrite it. The buffer is only valid until
// LocalTrain returns.
func (ctx *ClientCtx) CorrectionBuf(dim int) []float64 {
	if ctx.Scratch != nil && ctx.Scratch.dim == dim {
		return ctx.Scratch.CorrectionBuf()
	}
	return make([]float64, dim)
}

// ClientResult carries a client's round contribution back to the server.
type ClientResult struct {
	ClientID int
	N        int // local sample count
	Steps    int // local gradient steps actually taken
	// Delta = x_global − x_local_end: the gradient-like accumulated update
	// (η_l · Σ_b v_b). Aggregations average Deltas; dividing by η_l·Steps
	// recovers the gradient-scale momentum direction.
	Delta    []float64
	MeanLoss float64
	// PredHist optionally reports the client's predicted-class histogram
	// over its local training batches (used by FedGraB's balancer).
	PredHist []float64
	// Payload carries method-specific vectors (e.g. SCAFFOLD's control
	// variate update).
	Payload []float64
}

// WeightedDeltaInto accumulates dst -= etaG · Σ w_k Delta_k applied to the
// global vector — the common server update shared by most methods. Weights
// must be aligned with results; they are used as-is (callers normalise).
func WeightedDeltaInto(global []float64, etaG float64, results []*ClientResult, weights []float64) {
	for i, res := range results {
		if res == nil {
			continue
		}
		w := weights[i]
		if w == 0 {
			continue
		}
		// global − s·d is global + (−s)·d bit for bit: negating a factor
		// negates the rounded product, and x − y is x + (−y).
		tensor.Axpy(global, -(etaG * w), res.Delta)
	}
}

// GrowWeights returns a length-n weight slice backed by buf when its
// capacity suffices, allocating otherwise. Methods keep one buffer from Init
// onward so per-round weight vectors stop being per-round garbage.
func GrowWeights(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// UniformWeightsInto returns 1/n for each of n results, in a reusable
// buffer (see GrowWeights).
func UniformWeightsInto(buf []float64, n int) []float64 {
	w := GrowWeights(buf, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	return w
}

// SizeWeightsInto returns weights proportional to client sample counts, in
// a reusable buffer (see GrowWeights).
func SizeWeightsInto(buf []float64, results []*ClientResult) []float64 {
	w := GrowWeights(buf, len(results))
	total := 0.0
	for i, r := range results {
		w[i] = 0
		if r != nil {
			w[i] = float64(r.N)
			total += w[i]
		}
	}
	if total == 0 {
		return UniformWeightsInto(w, len(results))
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// MomentumFrom computes the gradient-scale momentum direction
// Δ = Σ w_k · Delta_k / (η_l · Steps_k), writing into dst.
func MomentumFrom(dst []float64, etaL float64, results []*ClientResult, weights []float64) {
	tensor.Zero(dst)
	for i, res := range results {
		if res == nil || res.Steps == 0 {
			continue
		}
		tensor.Axpy(dst, weights[i]/(etaL*float64(res.Steps)), res.Delta)
	}
}
