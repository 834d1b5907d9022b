package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"fedwcm/internal/collapse"
	"fedwcm/internal/data"
	"fedwcm/internal/dispatch"
	"fedwcm/internal/fl"
	"fedwcm/internal/fl/methods"
	"fedwcm/internal/nn"
	"fedwcm/internal/obs"
	"fedwcm/internal/partition"
	"fedwcm/internal/xrand"
)

// RunSpec pins down a single experiment cell: dataset, method, distribution
// parameters, engine configuration and the probes that observe it. The JSON
// form is the wire/storage encoding used by internal/store and
// internal/serve, and every field is part of the cell's identity (see
// Fingerprint).
type RunSpec struct {
	Dataset   string    `json:"dataset"`
	Method    string    `json:"method"`
	Beta      float64   `json:"beta"`      // Dirichlet concentration (label skew; smaller = worse)
	IF        float64   `json:"if"`        // imbalance factor (tail/head; smaller = worse)
	Partition string    `json:"partition"` // "equal" (paper's) or "fedgrab" (quantity-skewed)
	Clients   int       `json:"clients"`
	Model     string    `json:"model"` // "auto", "linear", "mlp", "resnet"
	Scale     float64   `json:"scale"` // dataset scale factor (1 = registry default)
	Cfg       fl.Config `json:"cfg"`
	// Probes names the per-evaluation measurements recorded into
	// RoundStat.Metrics beside the method's own diagnostics (see probeFor for
	// the known names and the keys each emits). Order and repeats are
	// irrelevant; empty canonicalises away, so a probe-less spec keeps the
	// bytes and fingerprint it had before probes existed.
	Probes []string `json:"probes,omitempty"`
}

// Defaults fills unset fields with the evaluation defaults used throughout
// this reproduction (reduced scale relative to the paper; see DESIGN.md).
func (s RunSpec) Defaults() RunSpec {
	if s.Dataset == "" {
		s.Dataset = "cifar10-syn"
	}
	if s.Method == "" {
		s.Method = "fedwcm"
	}
	if s.Beta == 0 {
		s.Beta = 0.1
	}
	if s.IF == 0 {
		s.IF = 0.1
	}
	if s.Partition == "" {
		s.Partition = "equal"
	}
	if s.Clients == 0 {
		s.Clients = 20
	}
	if s.Model == "" {
		s.Model = "auto"
	}
	if s.Scale == 0 {
		s.Scale = 1
	}
	s.Cfg = s.Cfg.Defaults()
	s.Probes = canonicalProbes(s.Probes)
	return s
}

// canonicalProbes is the identity form of a probe list: nil when empty,
// otherwise a fresh sorted, deduplicated copy — never a sort in place, since
// every cell of a grid shares its Spec's slice.
func canonicalProbes(names []string) []string {
	if len(names) == 0 {
		return nil
	}
	out := slices.Clone(names)
	slices.Sort(out)
	return slices.Compact(out)
}

// Validate resolves the spec's symbolic fields against the dataset, method
// and model registries and sanity-checks the numeric ones, without building
// an environment. Serving layers call it to reject bad specs at submission
// time instead of failing the queued run.
func (s RunSpec) Validate() error {
	// Captured before Defaults(): scenario and async validation must see the
	// raw spelling — normalization rewrites some degenerate forms (e.g.
	// down_prob=1 with no recovery) that should be rejected, not repaired.
	rawScenario := s.Cfg.Scenario
	rawAsync := s.Cfg.Async
	s = s.Defaults()
	spec, err := data.Lookup(s.Dataset)
	if err != nil {
		return err
	}
	if err := methods.Known(s.Method); err != nil {
		return err
	}
	if _, err := partitionFor(s.Partition); err != nil {
		return err
	}
	if _, err := ModelFor(spec, s.Model); err != nil {
		return err
	}
	for _, name := range s.Probes {
		if _, err := probeFor(name); err != nil {
			return err
		}
	}
	if s.Beta <= 0 || s.IF <= 0 || s.IF > 1 || s.Clients <= 0 || s.Scale <= 0 {
		return fmt.Errorf("sweep: out-of-range spec: beta=%v if=%v clients=%d scale=%v",
			s.Beta, s.IF, s.Clients, s.Scale)
	}
	c := s.Cfg
	if c.Rounds <= 0 || c.SampleClients <= 0 || c.LocalEpochs <= 0 || c.BatchSize <= 0 || c.EvalEvery <= 0 {
		return fmt.Errorf("sweep: out-of-range config: %+v", c)
	}
	if c.EtaL <= 0 || c.EtaG <= 0 || c.DropProb < 0 || c.DropProb >= 1 {
		return fmt.Errorf("sweep: out-of-range config: eta_l=%v eta_g=%v drop_prob=%v",
			c.EtaL, c.EtaG, c.DropProb)
	}
	if err := rawScenario.Validate(); err != nil {
		return err
	}
	// Defaults() above already normalized the scenario (nil or canonical).
	if c.Scenario != nil && c.Scenario.Availability != nil && c.DropProb > 0 {
		return fmt.Errorf("sweep: scenario availability replaces drop_prob; set one, not both")
	}
	if err := rawAsync.Validate(); err != nil {
		return err
	}
	// Post-normalization async bounds need the resolved cohort for context.
	if c.Async != nil {
		if c.Async.K > c.SampleClients {
			return fmt.Errorf("sweep: async k=%d exceeds the sampled cohort (%d)", c.Async.K, c.SampleClients)
		}
		if c.Async.Concurrency > 100_000 {
			return fmt.Errorf("sweep: async concurrency %d exceeds serving limits", c.Async.Concurrency)
		}
	}
	// Upper bounds protect a serving deployment from a single submission
	// occupying a worker indefinitely (there is no cancellation path). They
	// sit far above anything the evaluation uses.
	if s.Clients > 100_000 || s.Scale > 100 ||
		c.Rounds > 1_000_000 || c.LocalEpochs > 10_000 || c.BatchSize > 1_000_000 ||
		c.EtaL > 1000 || c.EtaG > 1000 {
		return fmt.Errorf("sweep: spec exceeds serving limits: clients=%d scale=%v rounds=%d epochs=%d batch=%d eta_l=%v eta_g=%v",
			s.Clients, s.Scale, c.Rounds, c.LocalEpochs, c.BatchSize, c.EtaL, c.EtaG)
	}
	return nil
}

// partitionFor maps a partition name to its constructor; the single place
// the known names live, shared by Validate and BuildEnv.
func partitionFor(name string) (func(prng *xrand.RNG, ds *data.Dataset, clients int, beta float64) *partition.Partition, error) {
	switch name {
	case "equal":
		return partition.EqualQuantity, nil
	case "fedgrab":
		return partition.FedGraBStyle, nil
	default:
		return nil, fmt.Errorf("sweep: unknown partition %q", name)
	}
}

// probeFor maps a probe name to its constructor over a built environment;
// the single place the known names live, shared by Validate and
// BuildEnvCached.
//
//	"collapse"   neuron concentration (collapse.Concentration) on the first
//	             200 test rows: "concentration" (mean over layers) and
//	             "concentration/act<i>" per measured layer
//	"train_acc"  accuracy on the first 1000 train rows: "train_acc"
func probeFor(name string) (func(env *fl.Env) fl.Probe, error) {
	switch name {
	case "collapse":
		return func(env *fl.Env) fl.Probe {
			return collapse.Probe(collapse.ProbeBatch(env.Test, 200))
		}, nil
	case "train_acc":
		return func(env *fl.Env) fl.Probe {
			head := env.Train.Head(1000)
			return func(net *nn.Network, metrics map[string]float64) {
				metrics["train_acc"], _ = fl.Evaluate(net, head, 256)
			}
		}, nil
	default:
		return nil, fmt.Errorf("sweep: unknown probe %q", name)
	}
}

// buildPieces constructs the cacheable parts of the environment: train/test
// datasets and the partition. It assumes s has Defaults applied. train and
// test, when non-nil, are splits borrowed from a sibling environment (see
// EnvCache) and are used as they are; a nil split is synthesized. This is
// the single construction path — EnvCache memoises exactly this function,
// and a borrowed split is what synthesis would return, so cached and
// uncached builds are byte-identical by construction.
func (s RunSpec) buildPieces(train, test *data.Dataset) (envPieces, error) {
	spec, err := data.Lookup(s.Dataset)
	if err != nil {
		return envPieces{}, err
	}
	makePart, err := partitionFor(s.Partition)
	if err != nil {
		return envPieces{}, err
	}
	if train == nil {
		train = spec.MakeTrain(s.Cfg.Seed, s.IF, s.Scale)
	}
	if test == nil {
		test = spec.MakeTest(s.Cfg.Seed, s.Scale)
	}
	prng := xrand.New(xrand.DeriveSeed(s.Cfg.Seed, 0x9a27))
	part := makePart(prng, train, s.Clients, s.Beta)
	return envPieces{train: train, test: test, part: part}, nil
}

// BuildEnv constructs the federated environment for this spec (without
// running anything).
func (s RunSpec) BuildEnv() (*fl.Env, error) {
	return s.BuildEnvCached(nil)
}

// BuildEnvCached is BuildEnv with dataset+partition construction served
// from cache when cache is non-nil. The Env wrapper itself is always fresh
// (its clients, probes and loss are per-run state); only the immutable
// pieces — datasets and partition — are shared, and probes only read them.
// This is the single env-construction path and the one place probes attach,
// so a caller that builds and then runs sees exactly what RunCtx runs.
func (s RunSpec) BuildEnvCached(cache *EnvCache) (*fl.Env, error) {
	s = s.Defaults()
	spec, err := data.Lookup(s.Dataset)
	if err != nil {
		return nil, err
	}
	build, err := ModelFor(spec, s.Model)
	if err != nil {
		return nil, err
	}
	var pieces envPieces
	if cache != nil {
		pieces, err = cache.get(s)
	} else {
		pieces, err = s.buildPieces(nil, nil)
	}
	if err != nil {
		return nil, err
	}
	env := fl.NewEnv(s.Cfg, pieces.train, pieces.test, pieces.part, build, nil)
	env.Arch = modelArch(s.Dataset, s.Model, build)
	// Dynamics hooks: drift scenarios re-partition the (shared, immutable)
	// train set at stage boundaries with the same strategy this spec used.
	// Set unconditionally — they are inert without a drift scenario — so a
	// cached and an uncached env behave identically.
	makePart, err := partitionFor(s.Partition)
	if err != nil {
		return nil, err
	}
	env.BaseBeta, env.BaseIF = s.Beta, s.IF
	clients := s.Clients
	env.Repartition = func(seed uint64, beta float64) *partition.Partition {
		return makePart(xrand.New(seed), pieces.train, clients, beta)
	}
	for _, name := range s.Probes {
		mk, err := probeFor(name)
		if err != nil {
			return nil, err
		}
		env.Probes = append(env.Probes, mk(env))
	}
	return env, nil
}

// Run executes the spec and returns its history.
func (s RunSpec) Run() (*fl.History, error) {
	return s.RunCtx(context.Background(), nil, nil)
}

// RunCtx executes the spec, invoking onRound (may be nil) with each recorded
// RoundStat; the callback does not influence the result. Environment
// construction is served from cache when cache is non-nil — histories are
// identical either way, the cache only removes redundant dataset+partition
// builds. A cancelled ctx aborts the run between rounds and returns ctx's
// error (see fl.RunWithProgressCtx): dispatch backends rely on it so a
// shutting-down executor can abandon in-flight training instead of
// finishing it.
func (s RunSpec) RunCtx(ctx context.Context, cache *EnvCache, onRound func(fl.RoundStat)) (*fl.History, error) {
	return s.run(ctx, cache, onRound, "")
}

// run is RunCtx; a non-empty traceID additionally records the run's round
// spans on the process tracer under that id.
func (s RunSpec) run(ctx context.Context, cache *EnvCache, onRound func(fl.RoundStat), traceID string) (*fl.History, error) {
	s = s.Defaults() // a spec relying on defaults must run, not fail on Method ""
	env, err := s.BuildEnvCached(cache)
	if err != nil {
		return nil, err
	}
	if traceID != "" {
		env.TraceID, env.Tracer = traceID, obs.DefaultTracer()
	}
	m, err := methods.New(s.Method)
	if err != nil {
		return nil, err
	}
	return fl.RunWithProgressCtx(ctx, env, m, onRound)
}

// DispatchRunner adapts the spec layer to the dispatch layer: the returned
// runner decodes a job's canonical spec JSON and executes it with
// environment construction served from envs (nil runs uncached). It is the
// standard dispatch.Runner used by the local backend in internal/serve and
// by remote workers (fedserve -worker), so a job computes identically on
// either.
//
// Dispatched runs are traced: the job ID (the spec fingerprint) becomes the
// run's trace ID and the process tracer records its round spans, so
// /debug/trace on whichever process executed the job answers for that
// fingerprint. Tracing attaches through the Env observability fields, which
// never influence the computed history.
func DispatchRunner(envs *EnvCache) dispatch.Runner {
	return func(ctx context.Context, job dispatch.Job, onRound func(fl.RoundStat)) (*fl.History, error) {
		spec, err := jobSpec(job)
		if err != nil {
			return nil, err
		}
		return spec.run(ctx, envs, onRound, job.ID)
	}
}

// jobSpec decodes a dispatched job's canonical spec JSON.
func jobSpec(job dispatch.Job) (RunSpec, error) {
	var spec RunSpec
	if err := json.Unmarshal(job.Spec, &spec); err != nil {
		return spec, fmt.Errorf("sweep: decoding dispatched spec: %w", err)
	}
	return spec, nil
}

// archs memoises each (dataset, model) pair's network architecture, the
// worker-kit key BuildEnvCached puts on the Env, so a run on a warm kit pool
// builds no network to learn it. Arch does not depend on the seed, so one
// build per pair per process answers for every cell.
var archs sync.Map // [2]string{dataset, model} → string

func modelArch(dataset, model string, build nn.Builder) string {
	key := [2]string{dataset, model}
	if a, ok := archs.Load(key); ok {
		return a.(string)
	}
	a, _ := archs.LoadOrStore(key, build(0).Arch())
	return a.(string)
}

// ModelFor maps a dataset spec and model name to a network builder. "auto"
// follows the paper's model table: MLP for the Fashion-MNIST stand-in, a
// wider MLP head for the other feature datasets (standing in for
// ResNet-18/34; see DESIGN.md), and ResNetLite for image-mode datasets.
func ModelFor(spec *data.Spec, model string) (nn.Builder, error) {
	dim := spec.Dim()
	switch model {
	case "linear":
		return nn.SoftmaxBuilder(dim, spec.Classes), nil
	case "mlp":
		return nn.MLPBuilder(dim, []int{64, 32}, spec.Classes, false), nil
	case "mlpbn":
		return nn.MLPBuilder(dim, []int{64, 32}, spec.Classes, true), nil
	case "resnet":
		if spec.Image == nil {
			return nil, fmt.Errorf("sweep: dataset %s has no image mode for resnet", spec.Name)
		}
		img := spec.Image
		return nn.ResNetLiteBuilder(img.Chans, img.H, img.W, spec.Classes, 8), nil
	case "auto", "":
		if spec.Image != nil {
			img := spec.Image
			return nn.ResNetLiteBuilder(img.Chans, img.H, img.W, spec.Classes, 8), nil
		}
		switch spec.Name {
		case "fmnist-syn":
			// the paper uses a 3-layer MLP here
			return nn.MLPBuilder(dim, []int{32}, spec.Classes, false), nil
		default:
			// BatchNorm MLP stands in for the paper's ResNet-18/34: batch
			// normalisation under skewed local batches is what makes
			// momentum extrapolation fragile (see DESIGN.md).
			return nn.MLPBuilder(dim, []int{64, 32}, spec.Classes, true), nil
		}
	default:
		return nil, fmt.Errorf("sweep: unknown model %q", model)
	}
}
