package fl

import (
	"fedwcm/internal/data"
	"fedwcm/internal/loss"
	"fedwcm/internal/nn"
	"fedwcm/internal/obs"
	"fedwcm/internal/partition"
)

// Client is one federated participant: a view into the shared training set.
type Client struct {
	ID          int
	Indices     []int // rows of Env.Train owned by this client
	Labels      []int // Train.Y[Indices[i]], precomputed once at NewEnv
	ClassCounts []int
	N           int
}

// Probe measures the global model at each evaluation: it is called with a
// network loaded with the current global weights and writes its readings
// into that evaluation's RoundStat.Metrics (neuron concentration, train
// accuracy, ...). A probe observes and never perturbs — it must leave the
// network's weights and statistics untouched, so a probed run's history
// differs from the unprobed one only by the keys its probes add. Probes are
// attached by name through sweep.RunSpec.Probes.
type Probe func(net *nn.Network, metrics map[string]float64)

// Env is the world a federated run executes in. Datasets and the initial
// partition are immutable and may be shared across concurrent runs (see
// sweep.EnvCache); Clients is per-run state — under a drift scenario the
// engine rebuilds it at stage boundaries through Repartition, never
// touching the shared pieces.
type Env struct {
	Cfg     Config
	Train   *data.Dataset
	Test    *data.Dataset
	Clients []*Client
	Build   nn.Builder
	Loss    loss.Loss
	Probes  []Probe

	// Arch, when set, is Build's architecture ((*nn.Network).Arch, the same
	// for every seed), the key of the worker kits a run takes. Setting it
	// also promises that (*nn.Network).Init(seed) draws what Build(seed)
	// does, as it does for every builder in package nn: a run then takes
	// its initial weights from a pooled kit and, on a warm pool, builds no
	// network. Empty (an Env assembled by NewEnv), each run builds one
	// network to learn the key and its initial weights.
	Arch string

	// Dynamics hooks for drift scenarios, set by the layer that knows how
	// the environment was constructed (sweep.RunSpec.BuildEnvCached).
	// BaseBeta/BaseIF are the partition's Dirichlet concentration and the
	// train profile's imbalance factor; Repartition rebuilds a partition of
	// Train with the same strategy under a different (seed, β). When
	// Repartition is nil or the bases are zero, drift is inert.
	BaseBeta    float64
	BaseIF      float64
	Repartition func(seed uint64, beta float64) *partition.Partition

	// asyncHook, when set, observes every buffered aggregation event of an
	// async run (called single-threaded from the event loop, after the
	// staleness weights are computed and before the method aggregates). It
	// must not retain the info or its slices past the call. Tests only: it
	// never affects the computed history.
	asyncHook func(info *AsyncInfo)

	// Observability. metrics nil (set only by tests) means "use the process
	// default", DefaultRunMetrics; this run's own readings reach its caller
	// only through onRound.
	// Tracer nil (the default) disables span recording; dispatch layers set
	// it together with TraceID (the run's spec fingerprint) so round spans
	// join the fleet-wide trace for that fingerprint. None of these affect
	// the computed history.
	metrics *RunMetrics
	Tracer  *obs.Tracer
	TraceID string
}

// NewEnv assembles an environment from a dataset, a partition, a model
// builder and the default local loss.
func NewEnv(cfg Config, train, test *data.Dataset, part *partition.Partition, build nn.Builder, lossFn loss.Loss) *Env {
	cfg = cfg.Defaults()
	if lossFn == nil {
		lossFn = loss.CrossEntropy{}
	}
	return &Env{Cfg: cfg, Train: train, Test: test, Clients: buildClients(train, part), Build: build, Loss: lossFn}
}

// buildClients materialises the per-client views of a partition: index
// sets, precomputed label views (reused by every round's balanced sampler
// instead of being rebuilt per client per round) and class counts. Shared
// by NewEnv and the engine's drift rebuilds.
func buildClients(train *data.Dataset, part *partition.Partition) []*Client {
	clients := make([]*Client, part.NumClients())
	for k := range clients {
		idx := part.ClientIndices[k]
		labels := make([]int, len(idx))
		for i, gi := range idx {
			labels[i] = train.Y[gi]
		}
		clients[k] = &Client{
			ID:          k,
			Indices:     idx,
			Labels:      labels,
			ClassCounts: part.Counts[k],
			N:           len(idx),
		}
	}
	return clients
}

// driftClients builds the client views for one drift stage: the stage's
// fresh partition trimmed per class by keepFrac (class c keeps the first
// kept-budget samples in partition order), moving every client's label
// distribution toward the stage's long-tail target. Budgets round with a
// per-class fractional carry across clients (walked in ID order, so the
// result is deterministic): the global kept count lands within one sample
// of keepFrac[c]·total even when per-client class counts are tiny — a
// per-client ceil would floor every client at one sample and never reach
// the target profile. Clients may lose a scarce class entirely. The
// trimmed index slices are always freshly allocated, so shared cached
// partitions are never mutated.
func driftClients(train *data.Dataset, part *partition.Partition, keepFrac []float64) []*Client {
	clients := make([]*Client, part.NumClients())
	kept := make([]int, train.Classes)      // this client's keep budget
	carry := make([]float64, train.Classes) // fractional keep owed per class
	for k := range clients {
		idx := part.ClientIndices[k]
		counts := part.Counts[k]
		for c, n := range counts {
			exact := float64(keepFrac[c]*float64(n)) + carry[c]
			kept[c] = int(exact)
			carry[c] = exact - float64(kept[c])
			// Guard against float drift starving a class of its last unit.
			if carry[c] > 1-1e-9 {
				kept[c]++
				carry[c] = 0
			}
		}
		keepIdx := make([]int, 0, len(idx))
		labels := make([]int, 0, len(idx))
		newCounts := make([]int, train.Classes)
		for _, gi := range idx {
			y := train.Y[gi]
			if newCounts[y] >= kept[y] {
				continue
			}
			newCounts[y]++
			keepIdx = append(keepIdx, gi)
			labels = append(labels, y)
		}
		clients[k] = &Client{
			ID:          k,
			Indices:     keepIdx,
			Labels:      labels,
			ClassCounts: newCounts,
			N:           len(keepIdx),
		}
	}
	return clients
}

// GlobalCounts sums class counts across clients (equals the training set's
// class profile).
func (e *Env) GlobalCounts() []int {
	out := make([]int, e.Train.Classes)
	for _, c := range e.Clients {
		for i, n := range c.ClassCounts {
			out[i] += n
		}
	}
	return out
}

// GlobalProportions normalises GlobalCounts.
func (e *Env) GlobalProportions() []float64 {
	counts := e.GlobalCounts()
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// TotalSamples returns the number of training samples across all clients.
func (e *Env) TotalSamples() int {
	t := 0
	for _, c := range e.Clients {
		t += c.N
	}
	return t
}
