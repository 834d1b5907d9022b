package fl

import (
	"sync"
	"time"

	"fedwcm/internal/data"
	"fedwcm/internal/nn"
	"fedwcm/internal/tensor"
	"fedwcm/internal/xrand"
)

// ClientScratch is the per-worker reusable workspace for local training: a
// method's correction vector, the samplers, the batch-gather and
// d(loss)/d(logits) buffers, and a pool of result slots whose Delta vectors
// live exactly one round. RunLocalSGD needs no dim-sized vector of its own:
// it steps the network's weight and gradient vectors in place. One scratch
// belongs to one worker, so nothing here is shared between goroutines; the
// runtime resets the slot cursor at every round boundary, after which the
// previous round's results are dead (Aggregate has consumed them).
type ClientScratch struct {
	dim int

	corr []float64 // method correction (SCAFFOLD, FedDyn, …); lazy

	xb   *tensor.Dense // gathered batch features
	yb   []int         // gathered batch labels
	gidx []int         // global row indices of the current batch
	dl   *tensor.Dense // d(loss)/d(logits)

	// The local round's sampler, re-armed per client round over buffers
	// that outlive it.
	shuffle  data.ShuffleSampler
	balanced data.BalancedSampler

	results []*ClientResult // result slots, reused round-over-round
	used    int             // slots handed out since the last Reset
}

// NewClientScratch allocates a scratch for networks with dim parameters.
func NewClientScratch(dim int) *ClientScratch {
	return &ClientScratch{dim: dim}
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

// kit is one worker's training equipment: a private network, its
// ClientScratch and its RNG, plus what a run uses of worker 0's kit: the
// evaluation buffers and the global vector. Nothing in a kit is read before
// it is written for the job at hand — SetVector loads every parameter
// (BatchNorm running statistics included, they are Stat params), the RNG is
// reseeded per job, workspaces, result slots and batch buffers are
// overwritten before use, and a run opening on the kit as worker 0 writes
// the whole global vector from its initial weights — so a kit that trained
// another run is indistinguishable from a fresh one, and kits outlive the
// run that built them (see kitPools).
type kit struct {
	net     *nn.Network
	scratch *ClientScratch
	rng     *xrand.RNG
	eval    evalScratch
	global  []float64 // the run's global vector while this is worker 0's kit; dim-sized once used
}

// kitPools maps an architecture ((*nn.Network).Arch) to the *kitList of
// idle kits for networks of that architecture. A run takes its workers'
// kits from the list of its architecture and returns them when it ends, so
// consecutive runs of one model stop rebuilding networks, regrowing
// workspaces and reallocating result slots.
var kitPools = new(sync.Map)

func kitPool(arch string) *kitList {
	if p, ok := kitPools.Load(arch); ok {
		return p.(*kitList)
	}
	p, _ := kitPools.LoadOrStore(arch, new(kitList))
	return p.(*kitList)
}

// kitList is one architecture's free list of idle kits, first in first out.
// A kit is built only when the list is empty, so an architecture retains at
// most the largest number of its kits ever checked out at once — what the
// process already held at that peak — and no cap is needed. Unlike a
// sync.Pool it keeps its kits across GC. FIFO because close returns kits
// in worker order, so the next run's worker 0 gets the previous run's
// worker-0 kit, whose network and evaluation buffers are evaluation-sized.
type kitList struct {
	mu   sync.Mutex
	idle []*kit
}

// get takes the oldest idle kit, or returns nil when there is none.
func (l *kitList) get() *kit {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.idle) == 0 {
		return nil
	}
	k := l.idle[0]
	n := copy(l.idle, l.idle[1:])
	l.idle[n] = nil
	l.idle = l.idle[:n]
	return k
}

// put returns k to the back of the list.
func (l *kitList) put(k *kit) {
	l.mu.Lock()
	l.idle = append(l.idle, k)
	l.mu.Unlock()
}

// runtime is the persistent per-run worker pool: each worker trains with a
// kit (private network, ClientScratch, reusable RNG) and lives for the whole
// run instead of being respawned every round. Round state (sampled cohort,
// result slots, the global vector) is written single-threaded between
// rounds; the jobs channel and WaitGroup provide the happens-before edges
// that make those writes visible to workers.
//
// Determinism is preserved by construction: results land in a slice indexed
// by job position, every job reloads the global weights and reseeds its
// RNG from (seed, round, client), and scratch buffers are fully overwritten
// before use — so which worker runs which client, and which run a kit
// served before, is unobservable.
type workerRuntime struct {
	env  *Env
	m    Method
	jobs chan int
	wg   sync.WaitGroup
	kits *kitList // where the workers' kits go back at close
	// metrics is never nil; its handles are nil-safe, so an all-no-op bundle
	// costs nothing.
	metrics *RunMetrics

	// Per-batch state, written by the engine loop while all workers are
	// idle. global is worker 0's kit's vector, which the engine aliases and
	// updates in place between batches; batch describes the jobs of the
	// current runBatch call.
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
	rt *workerRuntime
	*kit
	ctx ClientCtx // reused per job; never retained past LocalTrain
}

// newRuntime starts n workers over kits for env.Build's architecture:
// idle ones from that architecture's free list, fresh ones built by
// env.Build when it is empty. Worker 0's kit holds the run's global vector,
// loaded with the initial weights: with env.Arch set they are its network's
// Init(seed), so a run on a warm pool builds no network; an Env that names
// no architecture builds one to learn it and takes the weights from that
// network. Callers must close() the runtime when done.
func newRuntime(env *Env, m Method, n int, mx *RunMetrics) *workerRuntime {
	seed := env.Cfg.Seed
	arch, initial := env.Arch, (*nn.Network)(nil)
	if arch == "" {
		initial = env.Build(seed)
		arch = initial.Arch()
	}
	rt := &workerRuntime{env: env, m: m, metrics: mx, jobs: make(chan int), kits: kitPool(arch)}
	for w := 0; w < n; w++ {
		k := rt.kits.get()
		if k == nil {
			// The weights are overwritten every job and the RNG is
			// reseeded per job.
			net := env.Build(seed)
			k = &kit{net: net, scratch: NewClientScratch(net.NumParams()), rng: xrand.New(0)}
		}
		rt.workers = append(rt.workers, &runWorker{rt: rt, kit: k})
	}
	k0 := rt.workers[0].kit
	if initial == nil {
		initial = k0.net
		initial.Init(seed)
	}
	if k0.global == nil {
		k0.global = make([]float64, k0.scratch.dim)
	}
	rt.global = k0.global
	initial.VectorInto(rt.global)
	for _, w := range rt.workers {
		go w.loop()
	}
	return rt
}

// close stops the worker goroutines and returns their kits, in worker
// order, to their architecture's free list. The runtime must be idle (no
// round in flight): the last runBatch's Wait ordered every worker's last
// touch of its kit before this.
func (rt *workerRuntime) close() {
	close(rt.jobs)
	for _, w := range rt.workers {
		rt.kits.put(w.kit)
	}
}

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
