package fl

import (
	"math"

	"fedwcm/internal/data"
	"fedwcm/internal/loss"
	"fedwcm/internal/tensor"
)

// LocalOpts configures the generic local-SGD loop. The zero value is plain
// local SGD with the environment's default loss.
type LocalOpts struct {
	// Loss overrides the environment loss for this client (nil = default).
	Loss loss.Loss
	// Balanced switches to the class-balanced sampler (the paper's
	// "Balance Sampler").
	Balanced bool
	// Alpha is the momentum mixing coefficient: each step uses
	// v = Alpha·g + (1−Alpha)·Momentum. Alpha = 0 or 1 with nil Momentum
	// degrades to plain SGD.
	Alpha float64
	// Momentum is the server-provided gradient-scale direction Δ_r (FedCM's
	// global momentum). Nil disables mixing regardless of Alpha.
	Momentum []float64
	// ProxMu adds the FedProx proximal gradient μ·(x − x_global).
	ProxMu float64
	// Correction is added to every gradient (SCAFFOLD's c − c_i, FedDyn's
	// −h_i). Nil disables.
	Correction []float64
	// SAMRho enables sharpness-aware minimisation with the given radius.
	SAMRho float64
	// SAMGlobalDir, when set with SAMRho, perturbs along this fixed global
	// direction (FedLESAM) instead of the per-batch local gradient.
	SAMGlobalDir []float64
	// LogitScale rescales column c of d(loss)/d(logits) by LogitScale[c]
	// (FedGraB's gradient balancer). Nil disables.
	LogitScale []float64
	// TrackPreds accumulates the client's predicted-class histogram.
	TrackPreds bool
	// LRScale multiplies the local learning rate (FedWCM-X). 0 = 1.
	LRScale float64
	// Epochs overrides Config.LocalEpochs when > 0.
	Epochs int
}

// RunLocalSGD executes the client's local training loop starting from the
// global weights already loaded into ctx.Net, and returns the resulting
// ClientResult. It is the single inner loop shared by every method.
func RunLocalSGD(ctx *ClientCtx, opts LocalOpts) *ClientResult {
	cfg := ctx.Env.Cfg
	lossFn := opts.Loss
	if lossFn == nil {
		lossFn = ctx.Env.Loss
	}
	epochs := cfg.LocalEpochs
	if opts.Epochs > 0 {
		epochs = opts.Epochs
	}
	lr := cfg.EtaL
	if opts.LRScale > 0 {
		lr *= opts.LRScale
	}
	client := ctx.Client
	ds := ctx.Env.Train
	dim := len(ctx.Global)
	scratch := ctx.Scratch
	if scratch == nil {
		// Callers outside the engine runtime (tests, benchmarks, ad-hoc
		// drivers) pay a fresh allocation per call, exactly as before.
		scratch = NewClientScratch(dim)
	}
	n := client.N
	if n == 0 {
		res := scratch.nextResult()
		res.ClientID = client.ID
		tensor.Zero(res.Delta)
		return res
	}

	// Both samplers live in the scratch and are re-armed here over buffers
	// they keep, so a warm round allocates nothing for them. The balanced
	// one groups client.Labels (the label view precomputed once at NewEnv)
	// by class with one counting pass.
	var sampler data.Sampler
	if opts.Balanced {
		scratch.balanced.Reset(ctx.RNG, client.Labels, ds.Classes, cfg.BatchSize)
		sampler = &scratch.balanced
	} else {
		scratch.shuffle.Reset(ctx.RNG, n, cfg.BatchSize)
		sampler = &scratch.shuffle
	}

	net := ctx.Net
	g := net.Grads()
	var predHist []float64
	if opts.TrackPreds {
		predHist = make([]float64, ds.Classes) // escapes into the result; small
	}
	xb := scratch.xb
	yb := scratch.yb
	gidx := scratch.gidx[:0]

	// The terms each step folds into the gradient, in one pass with the
	// step itself (nn.Network.StepWith): the prox term, the correction and
	// the momentum mix, each only when the options ask for it.
	var terms tensor.StepTerms
	if opts.ProxMu > 0 {
		terms.ProxMu, terms.ProxRef = opts.ProxMu, ctx.Global
	}
	terms.Correction = opts.Correction
	if opts.Momentum != nil && opts.Alpha > 0 && opts.Alpha < 1 {
		terms.Alpha, terms.Momentum = opts.Alpha, opts.Momentum
	}

	// computeGrad runs one forward/backward on the current batch, leaving
	// the flat gradient in g, and returns the batch loss.
	computeGrad := func(trackPreds bool) float64 {
		net.ZeroGrad()
		logits := net.Forward(xb, true)
		scratch.dl = tensor.ReuseDense(scratch.dl, logits.R, logits.C)
		dl := scratch.dl
		l := lossFn.LossAndGradInto(dl, logits, yb)
		if trackPreds && predHist != nil {
			for s := 0; s < logits.R; s++ {
				predHist[tensor.ArgMax(logits.Row(s))]++
			}
		}
		if opts.LogitScale != nil {
			for s := 0; s < dl.R; s++ {
				row := dl.Row(s)
				for c := range row {
					row[c] *= opts.LogitScale[c]
				}
			}
		}
		net.BackwardParams(dl)
		return l
	}

	steps := 0
	lossSum := 0.0
	batches := sampler.BatchesPerEpoch()
	// Partial work (straggler scenarios): cap the step budget at
	// ceil(frac · epochs · batches), never below one step. Full-work clients
	// (frac 0 or >= 1) take the exact pre-scenario path.
	budget := epochs * batches
	if ctx.WorkFrac > 0 && ctx.WorkFrac < 1 {
		budget = int(math.Ceil(ctx.WorkFrac * float64(epochs*batches)))
		if budget < 1 {
			budget = 1
		}
	}
local:
	for e := 0; e < epochs; e++ {
		for b := 0; b < batches; b++ {
			if steps >= budget {
				break local
			}
			pos := sampler.NextBatch()
			gidx = gidx[:0]
			for _, p := range pos {
				gidx = append(gidx, client.Indices[p])
			}
			xb, yb = ds.Gather(gidx, xb, yb)

			l := computeGrad(true)
			if opts.SAMRho > 0 {
				// Pinned seed quirk (golden-history test): in the local-dir
				// case pdir aliases g, which computeGrad overwrites, so the
				// restore subtracts ε·g_perturbed rather than ε·g_old. Fixing
				// the asymmetry changes every SAM-family history and must come
				// with re-pinned golden hashes.
				pdir := g
				if opts.SAMGlobalDir != nil {
					pdir = opts.SAMGlobalDir
				}
				norm := tensor.Norm2(pdir)
				if norm > 1e-12 {
					eps := opts.SAMRho / norm
					net.StepVec(-eps, pdir) // ascend: θ ← θ + ε·dir
					l = computeGrad(false)  // gradient at the perturbed point
					net.StepVec(eps, pdir)  // restore
				}
			}
			net.StepWith(lr, terms)
			steps++
			lossSum += l
		}
	}

	// Hand the batch buffers back so the next call on this scratch reuses
	// them (they may have grown or been reallocated by Gather).
	scratch.xb, scratch.yb, scratch.gidx = xb, yb, gidx

	res := scratch.nextResult()
	res.ClientID = client.ID
	res.N = n
	res.Steps = steps
	res.PredHist = predHist
	// Delta = x_global − x_end.
	net.DeltaInto(res.Delta, ctx.Global)
	if steps > 0 {
		res.MeanLoss = lossSum / float64(steps)
	}
	return res
}
