package methods

import (
	"math"

	"fedwcm/internal/data"
	"fedwcm/internal/fl"
	"fedwcm/internal/tensor"
)

// ScoreMode selects how FedWCM scores clients from the global distribution.
type ScoreMode int

const (
	// ScoreScarcity weights a client by how much of its data lies in
	// globally scarce classes: s_k = Σ_c rel_c·n_{k,c}/n_k with
	// rel_c ∝ target_c/(p_c+ε) normalised to sum 1. It equals 1/C for every
	// client when the global distribution matches the target, and grows
	// with tail-class holdings. This is the default; it preserves the
	// paper's stated intent (see DESIGN.md "Interpretation decisions").
	ScoreScarcity ScoreMode = iota
	// ScoreAbsDeviation is the paper's literal Equation (3):
	// s_k = Σ_c |target_c − p_c|·n_{k,c}/n_k.
	ScoreAbsDeviation
)

// WCMOptions are FedWCM's knobs; DefaultWCMOptions matches the paper.
type WCMOptions struct {
	Score     ScoreMode
	AlphaBase float64 // α floor (paper: 0.1)
	AlphaMax  float64 // α clamp ceiling
	// TempMin/TempMax clamp the softmax temperature T = 1/(C·D + ε).
	TempMin, TempMax float64
	// DevGain scales the imbalance exponent in Eq. 5's factor
	// 1 − exp(−DevGain·D·C/2).
	DevGain float64
	// Target is the global target distribution (nil = uniform), the
	// user-adjustable prior of §5.1.
	Target []float64
	// Ablations: disable one of the two mechanisms.
	DisableWeighting     bool
	DisableAdaptiveAlpha bool
	// QuantityWeighted enables the FedWCM-X extension: weights additionally
	// scale with client data volume and local learning rates normalise by
	// batch counts (Algorithm 3).
	QuantityWeighted bool
}

// DefaultWCMOptions returns the paper-default configuration.
func DefaultWCMOptions() WCMOptions {
	return WCMOptions{
		Score:     ScoreScarcity,
		AlphaBase: 0.1,
		AlphaMax:  0.99,
		TempMin:   0.02,
		TempMax:   100,
		DevGain:   1,
	}
}

// FedWCM is the paper's contribution: FedCM with (1) momentum aggregation
// re-weighted by per-client scarcity scores through a temperature softmax,
// and (2) a per-round adaptive mixing coefficient α_r driven by the global
// imbalance level and the sampled cohort's scarcity ratio q_r.
type FedWCM struct {
	Opt WCMOptions

	serverMomentum
	name      string
	scores    []float64 // s_k per client
	meanScore float64
	temp      float64 // softmax temperature T
	imbFactor float64 // 1 − exp(−DevGain·D·C/2)
	alpha     float64 // current α_r
	refSteps  float64 // reference local step count B̂·E for FedWCM-X

	// rawbuf holds the sampled clients' scores, sized at Init so Aggregate
	// runs without per-round temporaries.
	rawbuf []float64

	lastAlpha, lastQ, lastWMax float64
}

// NewFedWCM builds FedWCM with the given options.
func NewFedWCM(opt WCMOptions) *FedWCM {
	name := "fedwcm"
	switch {
	case opt.QuantityWeighted:
		name = "fedwcm-x"
	case opt.DisableWeighting && !opt.DisableAdaptiveAlpha:
		name = "fedwcm-alphaonly"
	case opt.DisableAdaptiveAlpha && !opt.DisableWeighting:
		name = "fedwcm-weightonly"
	case opt.Score == ScoreAbsDeviation:
		name = "fedwcm-absscore"
	}
	return &FedWCM{Opt: opt, name: name}
}

// Name implements fl.Method.
func (m *FedWCM) Name() string { return m.name }

// Init implements fl.Method: gathers the global distribution (§5.1), scores
// every client with Eq. 3, and derives the temperature and the imbalance
// factor used by Eq. 5.
func (m *FedWCM) Init(env *fl.Env, dim int) {
	m.serverMomentum.init(env, dim)
	m.rawbuf = make([]float64, 0, env.Cfg.SampleClients)
	classes := env.Train.Classes
	target := m.Opt.Target
	if target == nil {
		target = data.UniformTarget(classes)
	}
	global := env.GlobalProportions()

	dev := data.L1Deviation(global, target)
	m.imbFactor = 1 - math.Exp(-m.Opt.DevGain*dev*float64(classes)/2)

	m.temp = 1 / (float64(float64(classes)*dev) + 1e-9)
	if m.temp < m.Opt.TempMin {
		m.temp = m.Opt.TempMin
	}
	if m.temp > m.Opt.TempMax {
		m.temp = m.Opt.TempMax
	}

	classWeight := ClassRelevance(m.Opt.Score, global, target)
	m.scores = make([]float64, len(env.Clients))
	sum := 0.0
	for k, c := range env.Clients {
		m.scores[k] = ClientScore(classWeight, c.ClassCounts)
		sum += m.scores[k]
	}
	m.meanScore = sum / float64(len(env.Clients))
	m.alpha = m.Opt.AlphaBase

	// FedWCM-X reference step budget: the number of local steps a client
	// would take if data were split evenly.
	perClient := float64(env.TotalSamples()) / float64(len(env.Clients))
	batches := math.Ceil(perClient / float64(env.Cfg.BatchSize))
	if batches < 1 {
		batches = 1
	}
	m.refSteps = batches * float64(env.Cfg.LocalEpochs)
}

// ClassRelevance computes the per-class weight vector behind Eq. 3 for the
// given score mode.
func ClassRelevance(mode ScoreMode, global, target []float64) []float64 {
	out := make([]float64, len(global))
	switch mode {
	case ScoreAbsDeviation:
		for c := range out {
			out[c] = math.Abs(target[c] - global[c])
		}
	default: // ScoreScarcity
		const eps = 1e-6
		sum := 0.0
		for c := range out {
			out[c] = target[c] / (global[c] + eps)
			sum += out[c]
		}
		if sum > 0 {
			for c := range out {
				out[c] /= sum
			}
		}
	}
	return out
}

// ClientScore is Eq. 3: the class-relevance expectation under the client's
// local label distribution.
func ClientScore(classWeight []float64, counts []int) float64 {
	num, den := 0.0, 0.0
	for c, n := range counts {
		num += float64(classWeight[c] * float64(n))
		den += float64(n)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// LocalTrain implements fl.Method: FedCM-style momentum mixing with the
// current adaptive α_r (plain SGD on the bootstrap round), plus FedWCM-X's
// learning-rate normalisation when enabled.
func (m *FedWCM) LocalTrain(ctx *fl.ClientCtx) *fl.ClientResult {
	opts := m.localOpts(m.alpha)
	if m.Opt.QuantityWeighted && ctx.Client.N > 0 {
		batches := math.Ceil(float64(ctx.Client.N) / float64(ctx.Env.Cfg.BatchSize))
		steps := batches * float64(ctx.Env.Cfg.LocalEpochs)
		if steps > 0 {
			opts.LRScale = m.refSteps / steps // η'_l = η_l·B̂/B_k
		}
	}
	return fl.RunLocalSGD(ctx, opts)
}

// Aggregate implements fl.Method: Eq. 4 softmax weighting of client deltas,
// the weighted momentum refresh, and Eq. 5's α update.
func (m *FedWCM) Aggregate(round int, global []float64, results []*fl.ClientResult) {
	m.aggregate(global, results, nil)
}

// AggregateAsync implements fl.AsyncAggregator: the scarcity-softmax base
// weights compose multiplicatively with the staleness discounts, and the
// buffer's staleness histogram damps Eq. 5's adaptive α — a stale cohort
// says less about the current global distribution, so α leans back toward
// the momentum term, the direction the momentum-convergence theory says
// survives delay. A fully fresh buffer (every discount 1) reduces
// bit-identically to the synchronous Aggregate.
func (m *FedWCM) AggregateAsync(info *fl.AsyncInfo, global []float64, results []*fl.ClientResult) {
	m.aggregate(global, results, info)
}

func (m *FedWCM) aggregate(global []float64, results []*fl.ClientResult, info *fl.AsyncInfo) {
	n := len(results)
	m.wbuf = fl.GrowWeights(m.wbuf, n)
	w := m.wbuf
	if m.Opt.DisableWeighting {
		fl.UniformWeightsInto(w, n)
	} else {
		m.rawbuf = fl.GrowWeights(m.rawbuf, n)
		for i, res := range results {
			m.rawbuf[i] = m.scores[res.ClientID]
		}
		tensor.Softmax(w, m.rawbuf, m.temp)
	}
	if m.Opt.QuantityWeighted {
		// w'_k = w_k · n_k/Σ n_j, renormalised so the server update stays a
		// convex combination (the η_l·B̂ scale is already folded into the
		// per-client lr normalisation).
		total := 0.0
		for i, res := range results {
			w[i] = float64(w[i] * float64(res.N))
			total += w[i]
		}
		if total > 0 {
			tensor.Scale(w, 1/total)
		}
	}
	// dbar ∈ (0,1] is the buffer's mean staleness discount, folded from the
	// staleness histogram: Σ_s Hist[s]·d(s) / n. It stays 1 on sync runs and
	// fresh buffers (where the reweighting below is skipped entirely, so the
	// degenerate async case stays bit-identical to the sync path).
	dbar := 1.0
	if info != nil && !info.Uniform {
		for i, d := range info.Discounts {
			w[i] *= d
		}
		dsum := 0.0
		for s, c := range info.Hist {
			dsum += float64(float64(c) * info.Discount(s))
		}
		dbar = dsum / float64(n)
		wsum := 0.0
		for i := range w {
			wsum += w[i]
		}
		if wsum > 0 {
			tensor.Scale(w, 1/wsum)
		} else {
			fl.UniformWeightsInto(w, n)
		}
	}
	m.lastWMax = tensor.Max(w)

	m.step(global, results, w)

	// Eq. 5: α_{r+1} = base + (1−base)·(1 − e^{−D·C/2})·q_r, clamped; async
	// buffers additionally damp by the mean staleness discount dbar.
	q := 1.0
	if m.meanScore > 0 {
		sampledMean := 0.0
		for _, res := range results {
			sampledMean += m.scores[res.ClientID]
		}
		sampledMean /= float64(n)
		q = sampledMean / m.meanScore
	}
	m.lastQ = q
	if !m.Opt.DisableAdaptiveAlpha {
		a := m.Opt.AlphaBase + float64((1-m.Opt.AlphaBase)*m.imbFactor*q*dbar)
		if a < m.Opt.AlphaBase {
			a = m.Opt.AlphaBase
		}
		if a > m.Opt.AlphaMax {
			a = m.Opt.AlphaMax
		}
		m.alpha = a
	}
	m.lastAlpha = m.alpha
}

// RoundMetrics implements fl.MetricsReporter.
func (m *FedWCM) RoundMetrics() map[string]float64 {
	return map[string]float64{
		"alpha": m.lastAlpha,
		"q":     m.lastQ,
		"wmax":  m.lastWMax,
	}
}
