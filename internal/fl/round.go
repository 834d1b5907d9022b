package fl

import (
	"sort"

	"fedwcm/internal/scenario"
	"fedwcm/internal/xrand"
)

// roundCore is everything a federated run does that is not scheduling: who
// is drawn, who drops, which drift stage the world is in, how train loss is
// carried, and how a server version is committed, evaluated and reported.
// The barrier loop (engine.go) and the event engine (async.go) are
// schedulers over this one body, so every method sees the same participation
// process in either mode. All of it runs single-threaded between batches.
type roundCore struct {
	env     *Env
	m       Method
	cfg     Config
	onRound func(RoundStat)
	hist    *History
	mx      *RunMetrics // never nil; handles are nil-safe no-ops when disabled
	rt      *workerRuntime

	global []float64
	cohort int // clients drawn per round: min(SampleClients, population)

	sampleRNG, dropRNG *xrand.RNG
	sim                *scenario.Sim
	baseClients        []*Client // env.Clients at run start; drift replaces it
	stage              int

	// Shot buckets are fixed from the round-0 global train profile so the
	// reported series stays comparable even when drift reshapes the world.
	shotBuckets, testTotals []int

	draws     int     // cohorts drawn so far (the async stat's "waves")
	version   int     // server versions committed; RoundStat.Round
	now       float64 // virtual wall-clock; RoundStat.Time under cfg.Clock
	trainLoss float64 // last observed mean local loss
}

// newRoundCore builds the run state once. parallel is the most clients the
// scheduler ever trains at once, which bounds the worker pool. Callers must
// close() the core.
func newRoundCore(env *Env, m Method, onRound func(RoundStat), parallel int) *roundCore {
	cfg := env.Cfg
	c := &roundCore{env: env, m: m, cfg: cfg, onRound: onRound,
		hist: &History{Method: m.Name()}, mx: env.metrics, baseClients: env.Clients}
	nClients := len(env.Clients)
	c.cohort = min(cfg.SampleClients, nClients)
	if c.mx == nil {
		c.mx = DefaultRunMetrics()
	}
	// The runtime opens first: worker 0's kit holds the global vector,
	// loaded with the initial weights (see newRuntime), and evaluation runs
	// on that kit too (see commit).
	c.rt = newRuntime(env, m, max(1, min(cfg.Workers, parallel, nClients)), c.mx)
	c.global = c.rt.global
	m.Init(env, len(c.global))

	c.sampleRNG = xrand.New(xrand.DeriveSeed(cfg.Seed, 0x5a3317))
	c.dropRNG = xrand.New(xrand.DeriveSeed(cfg.Seed, 0xd20b))
	// The Sim answers availability / partial-work / drift queries
	// deterministically from (seed, round, client); a nil scenario is static.
	c.sim = scenario.NewSim(cfg.Scenario, cfg.Seed, nClients, cfg.Rounds)
	c.shotBuckets = ShotBuckets(env.GlobalCounts())
	c.testTotals = env.Test.ClassCounts()
	return c
}

// close stops the workers and restores the base client views, so an Env
// reused across Run calls starts every run from the same world (same spec ⇒
// same history) even after drift rebuilt env.Clients. c.global goes back to
// the kit pool with worker 0's kit: nothing may read it after close.
func (c *roundCore) close() {
	c.rt.close()
	c.env.Clients = c.baseClients
}

// draw samples the cohort of round (or wave) r and returns the members that
// take part, in canonical (sorted) order. Who drops is decided upfront and
// deterministically, and a dropped client does no work at all, so the cost
// model is "failed before training", not "trained but unreported".
func (c *roundCore) draw(r int) []int {
	c.draws++
	env := c.env
	// Drift: at a stage boundary, re-partition the (immutable) train set under
	// the stage's interpolated β and trim tail classes toward the stage's IF.
	// All workers are idle, and they observe the new env.Clients through the
	// next batch's happens-before edges.
	if st := c.sim.Stage(r); st != c.stage && env.Repartition != nil && env.BaseBeta > 0 {
		c.stage = st
		beta, ifac := c.sim.StageParams(st, env.BaseBeta, env.BaseIF)
		part := env.Repartition(scenario.DriftSeed(c.cfg.Seed, st), beta)
		env.Clients = driftClients(env.Train, part, scenario.KeepFracs(env.Train.Classes, env.BaseIF, ifac))
	}
	c.sim.BeginRound(r)
	sampled := c.sampleRNG.SampleWithoutReplacement(len(env.Clients), c.cohort)
	sort.Ints(sampled) // keeps aggregation order reproducible
	// An availability trace replaces the flat DropProb coin-flip, and unlike
	// it may take the whole cohort down (see emptyRound).
	trace := c.sim.HasAvailability()
	n := 0
	for _, id := range sampled {
		drop := false
		switch {
		case trace:
			drop = !c.sim.Available(id)
		case c.cfg.DropProb > 0:
			drop = c.dropRNG.Float64() < c.cfg.DropProb
		}
		if !drop {
			sampled[n] = id
			n++
		}
	}
	if n == 0 && !trace && len(sampled) > 0 {
		n = 1 // coin-flips never silence a whole round: the first client stays
	}
	c.mx.Dropped.Add(uint64(len(sampled) - n))
	return sampled[:n]
}

// workFrac is the share of its local step budget a surviving client of round
// r gets through in one time unit (1 unless a straggler scenario slows it).
// The schedulers differ only in what they make of it: the barrier truncates
// the work at its deadline, the event engine stretches the duration.
func (c *roundCore) workFrac(r, id int) float64 {
	frac := c.sim.WorkFraction(r, id)
	if frac < 1 {
		c.mx.Stragglers.Inc()
	}
	return frac
}

// noteLoss carries the mean local loss of the aggregated updates across
// versions: empty clients (Steps == 0) have no loss signal, and a version
// with none at all keeps the last observed value instead of a spurious 0.0
// dip in the curve.
func (c *roundCore) noteLoss(results []*ClientResult) {
	sum, cnt := 0.0, 0
	for _, res := range results {
		if res.Steps > 0 {
			sum += res.MeanLoss
			cnt++
		}
	}
	if cnt > 0 {
		c.trainLoss = sum / float64(cnt)
	}
}

// emptyRound is the one path for a cohort with nobody to wait for (an
// availability outage took every sampled client down): the server sits out
// one time unit — the barrier's deadline — and its version advances with no
// aggregation, as a real server facing an outage must.
func (c *roundCore) emptyRound() {
	c.now++
	c.commit(nil)
}

// commit advances the server version after an aggregation (info is the
// event engine's flush, nil otherwise) and, on the evaluation cadence,
// records the RoundStat every consumer sees: the method's metrics, then the
// probes' readings merged beside them, then history and the hook.
func (c *roundCore) commit(info *AsyncInfo) {
	c.version++
	c.mx.Rounds.Inc()
	if c.version%c.cfg.EvalEvery != 0 && c.version != c.cfg.Rounds {
		return
	}
	// Evaluation and probes borrow worker 0's kit: workers are idle between
	// batches, and its next job reloads the global weights anyway.
	w0 := c.rt.workers[0]
	net := w0.net
	net.SetVector(c.global)
	acc, perClass := w0.eval.evaluate(net, c.env.Test, 256)
	stat := RoundStat{Round: c.version, TestAcc: acc, PerClass: perClass,
		TrainLoss: c.trainLoss,
		Shot:      ShotAccuracy(perClass, c.testTotals, c.shotBuckets)}
	if mr, ok := c.m.(MetricsReporter); ok {
		stat.Metrics = mr.RoundMetrics()
	}
	if c.cfg.Clock {
		stat.Time = c.now
		if !c.cfg.Async.IsZero() {
			stat.Async = asyncRoundStat(info, c.draws)
		}
	}
	if len(c.env.Probes) > 0 && stat.Metrics == nil {
		stat.Metrics = make(map[string]float64)
	}
	for _, probe := range c.env.Probes {
		probe(net, stat.Metrics)
	}
	c.hist.Stats = append(c.hist.Stats, stat)
	if c.onRound != nil {
		c.onRound(stat)
	}
}
