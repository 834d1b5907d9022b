package fl

import (
	"sync"
	"time"

	"fedwcm/internal/nn"
	"fedwcm/internal/tensor"
	"fedwcm/internal/xrand"
)

// ClientScratch is the per-worker reusable workspace for local training: the
// dim-sized vectors RunLocalSGD needs every client (gradient, step direction,
// prox snapshot), the batch-gather buffers, and a pool of result slots whose
// Delta vectors live exactly one round. One scratch belongs to one worker, so
// nothing here is shared between goroutines; the runtime resets the slot
// cursor at every round boundary, after which the previous round's results
// are dead (Aggregate has consumed them).
type ClientScratch struct {
	dim int

	gbuf []float64 // flat batch gradient
	dir  []float64 // update direction after momentum mixing
	xcur []float64 // current weights (prox term); lazy — only some methods
	corr []float64 // method correction (SCAFFOLD, FedDyn, …); lazy

	xb   *tensor.Dense // gathered batch features
	yb   []int         // gathered batch labels
	gidx []int         // global row indices of the current batch
	dl   *tensor.Dense // d(loss)/d(logits) buffer (losses implementing GradInto)

	results []*ClientResult // result slots, reused round-over-round
	used    int             // slots handed out since the last Reset
}

// NewClientScratch allocates a scratch for networks with dim parameters.
func NewClientScratch(dim int) *ClientScratch {
	return &ClientScratch{
		dim:  dim,
		gbuf: make([]float64, dim),
		dir:  make([]float64, dim),
	}
}

// Reset recycles all result slots. Call only when the previous round's
// results are no longer referenced (i.e. after Aggregate).
func (s *ClientScratch) Reset() { s.used = 0 }

// nextResult hands out a recycled (or fresh) result slot with a dim-sized
// Delta. All other fields are cleared; Delta contents are stale — callers
// fully overwrite it (or Zero it on the empty-client path).
func (s *ClientScratch) nextResult() *ClientResult {
	if s.used == len(s.results) {
		s.results = append(s.results, &ClientResult{Delta: make([]float64, s.dim)})
	}
	res := s.results[s.used]
	s.used++
	*res = ClientResult{Delta: res.Delta}
	return res
}

// CorrectionBuf returns the scratch's dim-sized correction buffer, for
// methods that feed a per-client correction into LocalOpts. Contents are
// stale; callers fully overwrite it.
func (s *ClientScratch) CorrectionBuf() []float64 {
	if s.corr == nil {
		s.corr = make([]float64, s.dim)
	}
	return s.corr
}

// proxBuf returns the lazily allocated prox-snapshot buffer.
func (s *ClientScratch) proxBuf() []float64 {
	if s.xcur == nil {
		s.xcur = make([]float64, s.dim)
	}
	return s.xcur
}

// runtime is the persistent per-run worker pool: each worker owns a private
// network instance, a ClientScratch and a reusable RNG, and lives for the
// whole run instead of being respawned every round. Round state (sampled
// cohort, result slots, the global vector) is written single-threaded
// between rounds; the jobs channel and WaitGroup provide the
// happens-before edges that make those writes visible to workers.
//
// Determinism is preserved by construction: results land in a slice indexed
// by job position, every job reloads the global weights and reseeds its
// RNG from (seed, round, client), and scratch buffers are fully overwritten
// before use — so which worker runs which client is unobservable.
type workerRuntime struct {
	env  *Env
	m    Method
	jobs chan int
	wg   sync.WaitGroup
	// metrics is never nil; its handles are nil-safe, so an all-no-op bundle
	// costs nothing.
	metrics *RunMetrics

	// Per-batch state, written by the engine loop while all workers are
	// idle. global aliases the engine's vector (updated in place between
	// batches); batch describes the jobs of the current runBatch call.
	global  []float64
	batch   []clientJob
	results []*ClientResult

	workers []*runWorker
}

// clientJob is one unit of local training: which client, which
// (round-or-wave, client) RNG stream it draws, and what fraction of the local
// step budget it runs (sync straggler semantics; the async engine always
// dispatches full work and models slowness as virtual duration instead).
type clientJob struct {
	client int
	round  int
	frac   float64
}

type runWorker struct {
	rt      *workerRuntime
	net     *nn.Network
	scratch *ClientScratch
	rng     *xrand.RNG
	ctx     ClientCtx // reused per job; never retained past LocalTrain
}

// newRuntime builds n workers (each with a private network and scratch) and
// starts their goroutines. Callers must close() the runtime when done.
func newRuntime(env *Env, m Method, global []float64, n int, mx *RunMetrics) *workerRuntime {
	rt := &workerRuntime{env: env, m: m, metrics: mx, global: global, jobs: make(chan int)}
	for w := 0; w < n; w++ {
		wk := &runWorker{
			rt:      rt,
			net:     env.Build(env.Cfg.Seed), // weights overwritten every job
			scratch: NewClientScratch(len(global)),
			rng:     xrand.New(0), // reseeded per job
		}
		rt.workers = append(rt.workers, wk)
		go wk.loop()
	}
	return rt
}

// close stops the worker goroutines. The runtime must be idle (no round in
// flight).
func (rt *workerRuntime) close() { close(rt.jobs) }

// runBatch executes one deterministic batch of jobs over the pool and returns
// their results in job order. Scratch result slots recycle at every batch
// boundary, so callers that keep results across batches (the async engine's
// buffer) must deep-copy them first. The returned slice is valid until the
// next call.
func (rt *workerRuntime) runBatch(jobs []clientJob) []*ClientResult {
	rt.batch = jobs
	if cap(rt.results) < len(jobs) {
		rt.results = make([]*ClientResult, len(jobs))
	}
	rt.results = rt.results[:len(jobs)]
	for _, w := range rt.workers {
		w.scratch.Reset()
	}
	for i := range jobs {
		rt.wg.Add(1)
		rt.jobs <- i
	}
	rt.wg.Wait()
	return rt.results
}

func (w *runWorker) loop() {
	for pos := range w.rt.jobs {
		w.runClient(pos)
		w.rt.wg.Done()
	}
}

func (w *runWorker) runClient(i int) {
	rt := w.rt
	job := rt.batch[i]
	client := rt.env.Clients[job.client]
	w.net.SetVector(rt.global)
	w.rng.Seed(xrand.DeriveSeed(rt.env.Cfg.Seed, uint64(job.round), uint64(client.ID), 0xc11e))
	w.ctx = ClientCtx{
		Round:    job.round,
		Client:   client,
		Env:      rt.env,
		Net:      w.net,
		Global:   rt.global,
		RNG:      w.rng,
		Scratch:  w.scratch,
		WorkFrac: job.frac,
	}
	start := time.Now()
	rt.results[i] = rt.m.LocalTrain(&w.ctx)
	rt.metrics.ClientsTrained.Inc()
	rt.metrics.ClientSeconds.Observe(time.Since(start).Seconds())
}
