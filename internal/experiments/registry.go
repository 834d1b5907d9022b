// Package experiments defines one registered experiment per table and
// figure in the paper's evaluation. Every experiment that trains is a
// declaration: a sweep.Spec grid (probes included) plus Views, which one
// renderer lays out as tables of named statistics, series over rounds or
// final vectors. It executes through the sweep engine, so overlapping grids
// share cached cells (see internal/sweep). Run is only for the experiments
// that train nothing. cmd/fedbench and the top-level benchmarks are thin
// wrappers over this package.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"fedwcm/internal/dispatch"
	"fedwcm/internal/store"
	"fedwcm/internal/sweep"
)

// Options control how much of an experiment runs and where output goes.
type Options struct {
	Seed uint64
	// Effort ∈ (0,1] scales rounds and dataset size; 1 reproduces the
	// registered configuration, benchmarks use small values to preserve
	// shape at a fraction of the cost.
	Effort float64
	// CellWorkers is how many sweep cells run concurrently (each cell runs
	// its clients in parallel internally too). 0 picks a default.
	CellWorkers int
	// Store, when set, backs the sweep engine: cells already computed are
	// served from it and fresh cells are persisted, so repeated or
	// overlapping experiments cost only their missing fingerprints.
	Store *store.Store
	// Envs backs environment construction: cells sharing a
	// dataset+partition sub-spec (e.g. a method grid over one dataset)
	// build it once. Nil gets a per-Execute cache; callers running many
	// experiments (cmd/fedbench) pass one cache to share across them.
	Envs *sweep.EnvCache
	// Remote, when set, is the base URL of a running fedserve: the
	// experiment's grid is submitted to its POST /v1/sweeps and the finished
	// histories are fetched back, instead of training in-process (fedbench
	// -remote). Every training experiment is a sweep, so this covers all
	// training the registry does.
	Remote string
	Out    io.Writer
}

// Defaults normalises options.
func (o Options) Defaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Effort <= 0 || o.Effort > 1 {
		o.Effort = 1
	}
	if o.CellWorkers <= 0 {
		o.CellWorkers = 3
	}
	if o.Envs == nil {
		o.Envs = sweep.NewEnvCache(0)
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	return o
}

// Experiment regenerates one paper table or figure. A training experiment
// is a declaration: Grid is its sweep and Views lay out the aggregated
// result. Execute runs the grid through the sweep engine, so cells shared
// with other experiments are cache hits. Run is for the experiments that
// train nothing (fig11 measures the partitioner, table6 the HE protocol)
// and does everything itself.
type Experiment struct {
	ID    string
	Title string

	// Grid is the experiment's sweep. Execute sets its seeds to opt.Seed
	// and its effort to opt.Effort, and names it after ID when unnamed.
	Grid  sweep.Spec
	Views []View

	Run func(opt Options) error
}

// Execute runs the experiment: the grid — on the server at opt.Remote when
// that is set, in-process otherwise, on a dispatch.Local of opt.CellWorkers
// slots over opt.Store that lives as long as the grid — rendered through
// Views, unless Run is set. It returns the grid's result, partial when an
// error names failed cells, and nil for Run.
func (e *Experiment) Execute(opt Options) (*sweep.Result, error) {
	opt = opt.Defaults()
	if e.Run != nil {
		return nil, e.Run(opt)
	}
	sp := e.grid(opt)
	before := opt.Envs.Stats()
	var res *sweep.Result
	var err error
	if opt.Remote != "" {
		res, err = runRemote(opt.Remote, sp, opt.Store)
	} else {
		var local *dispatch.Local
		if local, err = dispatch.NewLocal(dispatch.LocalConfig{
			Runner: sweep.DispatchRunner(opt.Envs), Workers: opt.CellWorkers, Store: opt.Store,
		}); err != nil {
			return nil, err
		}
		defer local.Close()
		res, err = (&sweep.Engine{Store: opt.Store, Executor: local}).RunSweep(sp)
	}
	if res != nil && res.Failed > 0 {
		// Surface per-group causes, not a bare count: one line per failed
		// axes group with its first error.
		fmt.Fprintf(opt.Out, "[sweep %s: %d/%d cells FAILED]\n", sp.Name, res.Failed, len(res.Cells))
		for _, line := range res.FailureSummary() {
			fmt.Fprintf(opt.Out, "  %s\n", line)
		}
	}
	if err != nil {
		return res, err
	}
	after := opt.Envs.Stats()
	fmt.Fprintf(opt.Out, "[sweep %s: %d cells — %d cached, %d computed; envs — %d built, %d reused]\n",
		sp.Name, len(res.Cells), res.Cached, res.Computed,
		after.Misses-before.Misses, after.Hits-before.Hits)
	e.render(opt.Out, res)
	return res, nil
}

// grid is the experiment's sweep at opt.
func (e *Experiment) grid(opt Options) sweep.Spec {
	sp := e.Grid
	sp.Seeds, sp.Effort = []uint64{opt.Seed}, opt.Effort
	if sp.Name == "" {
		sp.Name = e.ID
	}
	return sp
}

var (
	regMu    sync.Mutex
	registry = map[string]*Experiment{}
)

func register(e *Experiment) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	if (len(e.Views) == 0) == (e.Run == nil) {
		panic("experiments: " + e.ID + " must set exactly one of Views and Run")
	}
	registry[e.ID] = e
}

// ByID returns a registered experiment.
func ByID(id string) (*Experiment, error) {
	regMu.Lock()
	e, ok := registry[id]
	regMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return e, nil
}

// IDs lists registered experiment ids, sorted.
func IDs() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// All returns experiments in id order.
func All() []*Experiment {
	out := make([]*Experiment, 0)
	for _, id := range IDs() {
		e, _ := ByID(id)
		out = append(out, e)
	}
	return out
}
