package fl

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"fedwcm/internal/xrand"
)

// Staleness weighting modes for AsyncConfig.Staleness.
const (
	// StalePoly is the polynomial discount 1/(1+s)^exp of FedBuff/FedAsync:
	// fresh updates weigh 1, updates s server versions behind decay smoothly.
	StalePoly = "poly"
	// StaleUniform weighs every update 1 regardless of staleness. With
	// K = cohort size this degenerates the async engine into the synchronous
	// round loop (the equivalence the golden tests pin).
	StaleUniform = "uniform"
)

// AsyncConfig switches the engine from the synchronous round loop to
// FedBuffer-style buffered asynchronous aggregation: clients run
// continuously, the server aggregates as soon as K updates arrive, and each
// update is discounted by its staleness (how many server versions committed
// between its dispatch and its aggregation).
//
// Like scenario.Scenario it is pure data inside fl.Config's JSON form and
// canonicalises: a nil or all-zero block means "synchronous" and marshals
// away entirely, so pre-async specs keep their fingerprints; enabling async
// requires at least one non-zero field (e.g. {"staleness":"poly"} or
// {"k":4}), after which Config.Defaults fills the remaining knobs.
//
// Time is virtual: a non-straggler client's local round takes 1 time unit,
// a straggler's takes 1/WorkFraction (slow, not partial — without a round
// deadline there is nothing to truncate its work), and the synchronous
// engine's rounds take exactly 1 unit (its deadline). No real clocks are
// involved, so identical (spec, seed) pairs give bit-identical histories at
// any worker count.
type AsyncConfig struct {
	// K is the buffer size: the server aggregates whenever K updates are
	// buffered. Default max(1, SampleClients/2); clamped to the cohort.
	K int `json:"k,omitempty"`
	// Concurrency is how many clients train at once (FedBuff's MaxConc).
	// Default SampleClients.
	Concurrency int `json:"concurrency,omitempty"`
	// Staleness selects the discount: "poly" (default) or "uniform".
	Staleness string `json:"staleness,omitempty"`
	// StaleExp is poly's exponent (default 0.5); forced 0 under "uniform".
	StaleExp float64 `json:"stale_exp,omitempty"`
	// Jitter spreads client durations: each dispatch multiplies its virtual
	// duration by 1 + Jitter·u, u uniform in [-1,1), from a stream derived
	// from (seed, wave, client). 0 (default) disables the draw entirely.
	Jitter float64 `json:"jitter,omitempty"`
}

// IsZero reports whether the config carries no async semantics at all (nil
// or all-zero — both canonicalise away).
func (a *AsyncConfig) IsZero() bool { return a == nil || *a == AsyncConfig{} }

// normalized returns the canonical form: nil when zero, defaults filled
// otherwise (K and Concurrency derive from the configured cohort size).
// Idempotent, never mutates the receiver.
func (a *AsyncConfig) normalized(sampleClients int) *AsyncConfig {
	if a.IsZero() {
		return nil
	}
	out := *a
	if out.Staleness == "" {
		out.Staleness = StalePoly
	}
	if out.K == 0 {
		out.K = max(1, sampleClients/2)
	}
	if out.Concurrency == 0 {
		out.Concurrency = sampleClients
	}
	switch out.Staleness {
	case StaleUniform:
		out.StaleExp = 0
	case StalePoly:
		if out.StaleExp == 0 {
			out.StaleExp = 0.5
		}
	}
	return &out
}

// Validate checks the raw (pre-Defaults) spelling, mirroring
// scenario.Scenario.Validate: serving layers reject bad blocks before
// canonicalisation can paper over them.
func (a *AsyncConfig) Validate() error {
	if a == nil {
		return nil
	}
	if a.K < 0 {
		return fmt.Errorf("async: k must be >= 0, got %d", a.K)
	}
	if a.Concurrency < 0 {
		return fmt.Errorf("async: concurrency must be >= 0, got %d", a.Concurrency)
	}
	switch a.Staleness {
	case "", StalePoly, StaleUniform:
	default:
		return fmt.Errorf("async: unknown staleness mode %q (want %q or %q)", a.Staleness, StalePoly, StaleUniform)
	}
	if math.IsNaN(a.StaleExp) || a.StaleExp < 0 || a.StaleExp > 8 {
		return fmt.Errorf("async: stale_exp %g outside [0, 8]", a.StaleExp)
	}
	if a.Staleness == StaleUniform && a.StaleExp != 0 {
		return fmt.Errorf("async: stale_exp has no effect under uniform staleness")
	}
	if math.IsNaN(a.Jitter) || a.Jitter < 0 || a.Jitter >= 1 {
		return fmt.Errorf("async: jitter %g outside [0, 1)", a.Jitter)
	}
	return nil
}

// NamedAsync resolves a sweep-axis preset name to an AsyncConfig: "sync"
// (or "") is the synchronous engine (nil config), "async" is buffered
// aggregation with the defaults (K = half the cohort, poly staleness), and
// "eager" aggregates on every single update (K = 1, maximum staleness
// pressure). Mirrors scenario.Named.
func NamedAsync(name string) (*AsyncConfig, error) {
	switch name {
	case "", "sync":
		return nil, nil
	case "async":
		return &AsyncConfig{Staleness: StalePoly}, nil
	case "eager":
		return &AsyncConfig{K: 1, Staleness: StalePoly}, nil
	}
	return nil, fmt.Errorf("async: unknown mode preset %q (known: %v)", name, AsyncNames())
}

// AsyncNames lists the mode presets NamedAsync accepts.
func AsyncNames() []string { return []string{"sync", "async", "eager"} }

// CanonicalAsyncName maps the synonyms for the synchronous default to ""
// and leaves the rest unchanged, so axis lists canonicalise the same way
// scenario names do.
func CanonicalAsyncName(name string) string {
	if name == "sync" {
		return ""
	}
	return name
}

// StalenessDiscount is the per-update discount d(s) ∈ (0, 1]: 1 for fresh
// updates, 1/(1+s)^exp under "poly", constant 1 under "uniform". Monotone
// non-increasing in s (the property tests pin this).
func StalenessDiscount(stale int, mode string, exp float64) float64 {
	if stale <= 0 || mode == StaleUniform || exp == 0 {
		return 1
	}
	return math.Pow(1/float64(1+stale), exp)
}

// AsyncInfo describes one buffered aggregation event, parallel to the
// results slice handed to the method: per-update staleness, the raw
// discounts, their convex normalisation, and the staleness histogram
// (Hist[s] = updates exactly s versions stale). FedWCM consumes the
// histogram to damp its adaptive α; the engine's generic fallback scales
// deltas by Weights for methods without an AsyncAggregator.
type AsyncInfo struct {
	Version   int       // server version this flush produces (1-based, = RoundStat.Round)
	Partial   bool      // liveness flush below K (everything in flight had arrived)
	Stale     []int     // per-result staleness, aligned with results
	Discounts []float64 // raw d(s_i) ∈ (0,1]
	Weights   []float64 // Discounts normalised to sum 1 (a convex combination)
	Hist      []int     // staleness histogram
	Uniform   bool      // all discounts exactly 1 (methods skip reweighting)
	// Discount is the engine's configured discount function d(s), so methods
	// can evaluate it over the histogram (FedWCM's α damping) instead of
	// only per update. Discounts[i] == Discount(Stale[i]).
	Discount func(stale int) float64
}

// AsyncAggregator is the optional method extension for buffered-async runs:
// methods implementing it receive the staleness breakdown and own their
// discount composition (FedCM/FedWCM fold it into their momentum weights).
// Other methods get the engine fallback — deltas pre-scaled by the convex
// staleness weights, then a plain Aggregate call.
type AsyncAggregator interface {
	AggregateAsync(info *AsyncInfo, global []float64, results []*ClientResult)
}

// asyncUpdate is one in-flight (or buffered) client update: an engine-owned
// deep copy of the worker's ClientResult (scratch slots recycle every
// batch, buffered updates outlive many batches) plus its event coordinates.
type asyncUpdate struct {
	res ClientResult
	ver int     // server version at dispatch (staleness = flush ver − this)
	seq uint64  // dispatch sequence number, the event-order tiebreaker
	t   float64 // virtual completion time
}

// copyFrom deep-copies a worker result, reusing this update's buffers.
func (u *asyncUpdate) copyFrom(res *ClientResult) {
	delta := u.res.Delta[:0]
	pred := u.res.PredHist[:0]
	payload := u.res.Payload[:0]
	u.res = *res
	u.res.Delta = append(delta, res.Delta...)
	u.res.PredHist = append(pred, res.PredHist...)
	u.res.Payload = append(payload, res.Payload...)
}

// before is the canonical (ClientID, seq) order of updates: the tiebreaker of
// simultaneous completions and the order a flush aggregates in — the barrier
// loop's sorted-cohort order when waves don't interleave.
func (u *asyncUpdate) before(v *asyncUpdate) bool {
	if u.res.ClientID != v.res.ClientID {
		return u.res.ClientID < v.res.ClientID
	}
	return u.seq < v.seq
}

// eventQueue is the virtual-time completion heap, ordered by
// (time, client, seq) — the deterministic pop order the property tests pin.
type eventQueue []*asyncUpdate

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	return q[i].t < q[j].t || q[i].t == q[j].t && q[i].before(q[j])
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*asyncUpdate)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	u := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return u
}

// pendingJob is a sampled, not-yet-dispatched client of some wave.
type pendingJob struct {
	client int
	wave   int
	dur    float64 // virtual duration of its local round
}

// asyncEngine is the event scheduler over a roundCore: it owns only what
// buffered aggregation adds to a round — pending dispatches, the virtual-time
// completion heap, the update buffer and its staleness weights. All state
// transitions happen single-threaded in run(); the worker pool only ever
// executes one deterministic batch at a time, so — exactly like the barrier
// loop — which worker trains which client is unobservable.
type asyncEngine struct {
	*roundCore

	k    int // flush threshold, clamped to the cohort
	conc int // concurrency M, clamped to the population
	seq  uint64

	events  eventQueue // in-flight updates
	buffer  []*asyncUpdate
	pending []pendingJob
	busy    []bool // client is in flight (between dispatch and completion)
	free    []*asyncUpdate

	discount func(stale int) float64

	// flush scratch, reused across aggregations
	resbuf    []*ClientResult
	stalebuf  []int
	discbuf   []float64
	weightbuf []float64
	histbuf   []int
	jobbuf    []clientJob
}

func newAsyncEngine(c *roundCore) *asyncEngine {
	ac, nClients := *c.cfg.Async, len(c.env.Clients)
	return &asyncEngine{
		roundCore: c,
		k:         max(1, min(ac.K, c.cohort)),
		conc:      max(1, min(ac.Concurrency, nClients)),
		busy:      make([]bool, nClients),
		discount:  func(stale int) float64 { return StalenessDiscount(stale, ac.Staleness, ac.StaleExp) },
	}
}

// run is the buffered-async scheduler of RunWithProgressCtx. The contract
// matches the barrier loop: ctx is checked between events, cancellation
// leaves the history so far, and identical (env.Cfg, seed) give bit-identical
// histories at any Workers value.
func (e *asyncEngine) run(ctx context.Context) error {
	for e.version < e.cfg.Rounds {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Replenish: once the previous wave is fully dispatched and the
		// buffer has flushed, draw the next cohort (clients run continuously;
		// the buffer gate keeps wave order deterministic and makes K = cohort
		// degenerate to the synchronous barrier).
		if len(e.pending) == 0 && len(e.buffer) == 0 && e.events.Len() < e.conc {
			e.drawWave()
			if len(e.pending) == 0 && e.events.Len() == 0 {
				e.emptyRound()
				continue
			}
		}
		if free := e.conc - e.events.Len(); free > 0 && len(e.pending) > 0 {
			e.dispatch(free)
		}
		if e.events.Len() == 0 {
			// Nothing left in flight. A sub-K buffer would deadlock waiting
			// for updates that can never come — flush it (liveness rule).
			if len(e.buffer) > 0 {
				e.flush()
			}
			continue
		}
		u := heap.Pop(&e.events).(*asyncUpdate)
		e.now = u.t
		e.busy[u.res.ClientID] = false
		e.buffer = append(e.buffer, u)
		e.mx.AsyncEvents.Inc()
		if len(e.buffer) >= e.k {
			e.flush()
		}
	}
	return nil
}

// flush aggregates the buffer into the next server version and recycles it.
func (e *asyncEngine) flush() {
	flushStart := time.Now()
	span := e.env.Tracer.Start(e.env.TraceID, "fl.async.flush").WithRound(e.version + 1)
	info := e.aggregate()
	e.noteLoss(e.resbuf)
	e.commit(info)
	e.free = append(e.free, e.buffer...)
	e.buffer = e.buffer[:0]
	e.mx.RoundSeconds.Observe(time.Since(flushStart).Seconds())
	span.End()
}

// drawWave queues the survivors of the next cohort. Survivors already
// dispatched (still in flight) are skipped — a client cannot train twice
// concurrently.
func (e *asyncEngine) drawWave() {
	w := e.draws
	e.mx.AsyncWaves.Inc()
	for _, id := range e.draw(w) {
		if e.busy[id] {
			continue
		}
		dur := 1.0
		if frac := e.workFrac(w, id); frac > 0 && frac < 1 {
			// Stragglers are slow, not partial: without a round deadline the
			// client finishes its full step budget over 1/frac time units.
			dur = 1 / frac
		}
		if jitter := e.cfg.Async.Jitter; jitter > 0 {
			jrng := xrand.New(xrand.DeriveSeed(e.cfg.Seed, uint64(w), uint64(id), 0xa57e))
			dur *= 1 + float64(jitter*(float64(2*jrng.Float64())-1))
		}
		e.pending = append(e.pending, pendingJob{client: id, wave: w, dur: dur})
	}
}

// dispatch trains up to n pending clients as one deterministic parallel
// batch against the current global weights and momentum state, then pushes
// their completion events. Every dispatched client performs its full local
// step budget (WorkFrac 1) — slowness shows up as duration, not truncation.
func (e *asyncEngine) dispatch(n int) {
	n = min(n, len(e.pending))
	e.jobbuf = e.jobbuf[:0]
	for _, p := range e.pending[:n] {
		e.jobbuf = append(e.jobbuf, clientJob{client: p.client, round: p.wave, frac: 1})
	}
	for i, res := range e.rt.runBatch(e.jobbuf) {
		var u *asyncUpdate
		if n := len(e.free); n > 0 {
			u, e.free = e.free[n-1], e.free[:n-1]
		} else {
			u = &asyncUpdate{}
		}
		u.copyFrom(res)
		u.ver = e.version
		u.seq = e.seq
		e.seq++
		u.t = e.now + e.pending[i].dur
		heap.Push(&e.events, u)
		e.busy[u.res.ClientID] = true
	}
	e.pending = e.pending[:copy(e.pending, e.pending[n:])]
}

// aggregate flushes the buffer through the method: updates sort into the
// canonical order, staleness discounts are computed, and the method (or the
// generic fallback) folds them into the server update.
func (e *asyncEngine) aggregate() *AsyncInfo {
	sort.Slice(e.buffer, func(i, j int) bool { return e.buffer[i].before(e.buffer[j]) })
	n := len(e.buffer)
	e.resbuf = e.resbuf[:0]
	e.stalebuf = e.stalebuf[:0]
	e.discbuf = e.discbuf[:0]
	e.weightbuf = GrowWeights(e.weightbuf, n)
	maxStale := 0
	uniform := true
	total := 0.0
	for _, u := range e.buffer {
		s := e.version - u.ver
		d := e.discount(s)
		e.resbuf = append(e.resbuf, &u.res)
		e.stalebuf = append(e.stalebuf, s)
		e.discbuf = append(e.discbuf, d)
		uniform = uniform && d == 1
		total += d
		maxStale = max(maxStale, s)
	}
	for i, d := range e.discbuf {
		e.weightbuf[i] = d / total
	}
	e.histbuf = slices.Grow(e.histbuf[:0], maxStale+1)[:maxStale+1]
	clear(e.histbuf)
	for _, s := range e.stalebuf {
		e.histbuf[s]++
		e.mx.AsyncStaleness.Observe(float64(s))
	}
	info := &AsyncInfo{
		Version:   e.version + 1,
		Partial:   n < e.k,
		Stale:     e.stalebuf,
		Discounts: e.discbuf,
		Weights:   e.weightbuf,
		Hist:      e.histbuf,
		Uniform:   uniform,
		Discount:  e.discount,
	}
	if e.env.AsyncHook != nil {
		e.env.AsyncHook(info)
	}
	if aa, ok := e.m.(AsyncAggregator); ok {
		aa.AggregateAsync(info, e.global, e.resbuf)
	} else {
		// Generic fallback: pre-scale each (engine-owned) delta by its convex
		// staleness weight × n, so a base-uniform method's effective weights
		// become exactly the staleness combination; size-weighted methods get
		// the same discount applied multiplicatively. Skipped entirely when
		// every discount is 1, keeping the degenerate case bit-identical.
		if !uniform {
			for i, res := range e.resbuf {
				s := e.weightbuf[i] * float64(n)
				for j := range res.Delta {
					res.Delta[j] *= s
				}
			}
		}
		e.m.Aggregate(info.Version-1, e.global, e.resbuf)
	}
	e.mx.AsyncAggs.Inc()
	if info.Partial {
		e.mx.AsyncPartial.Inc()
	}
	return info
}

// asyncRoundStat condenses an AsyncInfo into the history/SSE shape. A nil
// info (empty-wave commit) reports an empty buffer.
func asyncRoundStat(info *AsyncInfo, waves int) *AsyncRoundStat {
	st := &AsyncRoundStat{Waves: waves}
	if info == nil {
		return st
	}
	st.Buffer, st.Partial = len(info.Stale), info.Partial
	st.MaxStale = len(info.Hist) - 1
	sum := 0
	for s, n := range info.Hist {
		sum += s * n
	}
	st.MeanStale = float64(sum) / float64(st.Buffer)
	st.StaleHist = slices.Clone(info.Hist)
	return st
}
