// Package sweep is the grid-orchestration layer of the reproduction: every
// table and figure in the paper is a grid over (dataset, method, β, IF,
// seed, participation, local epochs), and this package turns such a grid
// from Go loops into a declarative, content-addressable value.
//
// The pieces, bottom-up:
//
//   - RunSpec — one grid cell: dataset, method, distribution parameters and
//     engine configuration. Its canonical JSON hashes to a SHA-256
//     fingerprint (the id internal/store files results under and
//     internal/serve hands out), so identical cells are computed at most
//     once no matter which sweep, table or client asks for them.
//   - Spec — a declarative grid: lists over each axis, expanded by Expand
//     into deduplicated Cells via the per-dataset presets. Specs themselves
//     fingerprint the same way, which is what makes sweep submission
//     idempotent in internal/serve.
//   - Engine — the one cell resolver (store hit, join of the in-flight
//     LiveCell, or exactly one submit to a dispatch backend, then persist)
//     and the one sweep driver over it, so repeating or overlapping sweeps
//     cost O(missing cells), not O(grid), whoever asks: RunSweep here,
//     internal/serve's run and sweep endpoints over HTTP.
//   - Feed — the append-only log a LiveCell's per-round progress and a
//     served sweep's per-cell completions stream through; a subscriber is a
//     cursor into it, so a slow one catches up instead of missing events.
//   - Result / Group — server-side aggregation: cells that differ only in
//     seed collapse into mean±std scalars and mean convergence curves, the
//     shapes the paper's tables and figures report.
//
// internal/experiments declares each paper table/figure as a Spec plus a
// renderer; internal/serve puts HTTP and SSE in front of one Engine
// (POST /v1/runs, POST /v1/sweeps); cmd/fedbench is a thin client of both.
package sweep

import (
	"encoding/json"
	"fmt"

	"fedwcm/internal/fl"
	"fedwcm/internal/scenario"
)

// MaxCells bounds a single sweep's expansion. It protects a serving
// deployment from a grid whose cross product explodes; the paper's largest
// grid (Table 1) is 350 cells.
const MaxCells = 4096

// Spec declares a grid of runs: the cross product of the axis lists, each
// cell built from the per-dataset preset (see PresetSpec) with the listed
// overrides applied. Empty axes default to a single preset-derived value,
// so the zero Spec is one FedWCM run on cifar10-syn.
//
// The JSON form is the wire encoding POST /v1/sweeps accepts; like RunSpec
// it canonicalises (defaults applied) and fingerprints, making sweep ids
// content addresses too.
type Spec struct {
	// Name labels the sweep in output and progress reporting; it is NOT part
	// of the grid's identity (see CanonicalJSON).
	Name string `json:"name,omitempty"`

	Datasets []string  `json:"datasets,omitempty"` // default ["cifar10-syn"]
	Methods  []string  `json:"methods,omitempty"`  // default ["fedwcm"]
	Betas    []float64 `json:"betas,omitempty"`    // default [0.1]
	IFs      []float64 `json:"ifs,omitempty"`      // default [0.1]

	// Seeds lists explicit seeds; SeedCount is the range shorthand
	// "SeedBase … SeedBase+SeedCount-1" (SeedBase defaults to 1). Set one or
	// the other; cells differing only in seed aggregate into one Group.
	Seeds     []uint64 `json:"seeds,omitempty"`
	SeedCount int      `json:"seed_count,omitempty"`
	SeedBase  uint64   `json:"seed_base,omitempty"`

	// SampleRates is the participation fraction per round (0.1 = 10% of
	// clients); empty keeps each dataset preset's count. Clients and
	// LocalEpochs likewise override their presets when listed.
	SampleRates []float64 `json:"sample_rates,omitempty"`
	Clients     []int     `json:"clients,omitempty"`
	LocalEpochs []int     `json:"local_epochs,omitempty"`

	// Scenarios lists named scenario presets (see scenario.Named) as a grid
	// axis: "static" (or "") is the unchanged environment, the others layer
	// churn / outages / stragglers / drift over every cell. Empty means
	// static only, and canonicalises away so pre-scenario sweep ids are
	// unchanged.
	Scenarios []string `json:"scenarios,omitempty"`

	// Async lists named execution-mode presets (see fl.NamedAsync) as a grid
	// axis: "sync" (or "") is the barrier round loop, "async" is buffered
	// FedBuffer-style aggregation, "eager" aggregates on every update. When
	// the axis is present every cell — sync baselines included — records the
	// virtual wall-clock (Cfg.Clock), so groups expose time-to-accuracy
	// curves on a shared time base. Empty means sync only and canonicalises
	// away, keeping pre-async sweep ids unchanged.
	Async []string `json:"async,omitempty"`

	Partition string `json:"partition,omitempty"` // "equal" (default) or "fedgrab"
	Model     string `json:"model,omitempty"`     // "auto" (default), "linear", "mlp", "resnet"

	// Probes is RunSpec.Probes for every cell of the grid (a grid constant,
	// not an axis). Empty canonicalises away like Scenarios and Async.
	Probes []string `json:"probes,omitempty"`

	// Rounds overrides the preset round count (before effort scaling);
	// Effort ∈ (0,1] scales rounds and data size exactly like
	// experiments.Options.Effort.
	Rounds int     `json:"rounds,omitempty"`
	Effort float64 `json:"effort,omitempty"`
}

// Axes are the resolved coordinates of one expanded cell — the values a
// renderer or API client needs to place the cell's result in a table
// without re-deriving presets. Seed is zeroed in Group keys so that cells
// differing only in seed aggregate together.
type Axes struct {
	Dataset       string  `json:"dataset"`
	Method        string  `json:"method"`
	Beta          float64 `json:"beta"`
	IF            float64 `json:"if"`
	Clients       int     `json:"clients"`
	SampleClients int     `json:"sample_clients"`
	LocalEpochs   int     `json:"local_epochs"`
	Scenario      string  `json:"scenario,omitempty"` // preset name; "" = static
	Async         string  `json:"async,omitempty"`    // mode preset; "" = sync
	Seed          uint64  `json:"seed"`
}

// Cell is one expanded, deduplicated grid cell: its resolved axes, the full
// RunSpec and the content-address fingerprint the run is filed under.
type Cell struct {
	Axes Axes    `json:"axes"`
	ID   string  `json:"id"` // RunSpec fingerprint
	Spec RunSpec `json:"-"`
}

// Defaults fills unset fields: single-value axes, normalized effort, and
// the seed range expanded into an explicit list.
func (sp Spec) Defaults() Spec {
	if len(sp.Datasets) == 0 {
		sp.Datasets = []string{"cifar10-syn"}
	}
	if len(sp.Methods) == 0 {
		sp.Methods = []string{"fedwcm"}
	}
	if len(sp.Betas) == 0 {
		sp.Betas = []float64{0.1}
	}
	if len(sp.IFs) == 0 {
		sp.IFs = []float64{0.1}
	}
	if len(sp.Seeds) == 0 {
		base := sp.SeedBase
		if base == 0 {
			base = 1
		}
		n := sp.SeedCount
		if n <= 0 {
			n = 1
		}
		// Materialising the list must not be the resource hazard: anything
		// past the cell bound fails validation identically whether it is
		// MaxCells+1 or 2e9 seeds long, so clamp before allocating.
		if n > MaxCells+1 {
			n = MaxCells + 1
		}
		for i := 0; i < n; i++ {
			sp.Seeds = append(sp.Seeds, base+uint64(i))
		}
	}
	sp.SeedCount, sp.SeedBase = 0, 0 // subsumed by the explicit list
	// Canonicalise scenario names ("static" → "") and drop an axis that only
	// spells out the static default, so pre-scenario grids keep their ids.
	if len(sp.Scenarios) > 0 {
		names := make([]string, len(sp.Scenarios))
		allStatic := true
		for i, n := range sp.Scenarios {
			names[i] = scenario.CanonicalName(n)
			allStatic = allStatic && names[i] == ""
		}
		if allStatic {
			sp.Scenarios = nil
		} else {
			sp.Scenarios = names
		}
	}
	// Same canonicalisation for execution modes ("sync" → ""): an axis that
	// only spells out the synchronous default drops away entirely.
	if len(sp.Async) > 0 {
		names := make([]string, len(sp.Async))
		allSync := true
		for i, n := range sp.Async {
			names[i] = fl.CanonicalAsyncName(n)
			allSync = allSync && names[i] == ""
		}
		if allSync {
			sp.Async = nil
		} else {
			sp.Async = names
		}
	}
	if sp.Partition == "" {
		sp.Partition = "equal"
	}
	if sp.Model == "" {
		sp.Model = "auto"
	}
	sp.Probes = canonicalProbes(sp.Probes)
	if sp.Effort <= 0 || sp.Effort > 1 {
		sp.Effort = 1
	}
	return sp
}

// CanonicalJSON is the canonical wire encoding of the grid: defaults
// applied and the display name stripped, so two sweeps covering the same
// cells canonicalise identically regardless of labelling or seed-range
// spelling.
func (sp Spec) CanonicalJSON() ([]byte, error) {
	c := sp.Defaults()
	c.Name = ""
	return json.Marshal(c)
}

// Fingerprint is the hex SHA-256 of the canonical JSON — the sweep id
// internal/serve hands out, making sweep submission idempotent the same way
// run submission is.
func (sp Spec) Fingerprint() (string, error) {
	b, err := sp.CanonicalJSON()
	if err != nil {
		return "", err
	}
	return fingerprintJSON(b), nil
}

// axisProduct is the size of a defaulted spec's axis cross product: how many
// cells it expands to before deduplication. The product is overflow-safe —
// it stops as soon as the running total passes MaxCells, reporting MaxCells
// and false, so no axis lengths can wrap the counter past the bound.
func (sp Spec) axisProduct() (n int, ok bool) {
	n = 1
	for _, k := range []int{
		len(sp.Datasets), len(sp.Methods), len(sp.Betas), len(sp.IFs), len(sp.Seeds),
		max(1, len(sp.SampleRates)), max(1, len(sp.Clients)), max(1, len(sp.LocalEpochs)),
		max(1, len(sp.Scenarios)), max(1, len(sp.Async)),
	} {
		n *= k
		if n > MaxCells {
			return MaxCells, false
		}
	}
	return n, true
}

// ExpandValidated bounds, expands and per-cell-validates the grid in one
// pass, so serving layers don't pay for the expansion twice (validation
// fingerprints every cell already).
func (sp Spec) ExpandValidated() ([]Cell, error) {
	sp = sp.Defaults()
	// Adversarial axis lengths must not reach Expand's cross-product loop.
	if _, ok := sp.axisProduct(); !ok {
		return nil, fmt.Errorf("sweep: grid expands to more than %d cells", MaxCells)
	}
	// The optional axes use non-positive values as the "preset" sentinel
	// inside Expand, so a mistyped list entry would otherwise silently run
	// the preset grid instead of what the caller asked for. Reject them the
	// same way a bad required axis is rejected.
	for _, v := range sp.Clients {
		if v <= 0 {
			return nil, fmt.Errorf("sweep: clients axis value %d out of range", v)
		}
	}
	for _, v := range sp.SampleRates {
		if v <= 0 || v > 1 {
			return nil, fmt.Errorf("sweep: sample_rates axis value %g outside (0,1]", v)
		}
	}
	for _, v := range sp.LocalEpochs {
		if v <= 0 {
			return nil, fmt.Errorf("sweep: local_epochs axis value %d out of range", v)
		}
	}
	for _, name := range sp.Scenarios {
		if _, err := scenario.Named(name); err != nil {
			return nil, err
		}
	}
	for _, name := range sp.Async {
		if _, err := fl.NamedAsync(name); err != nil {
			return nil, err
		}
	}
	cells, err := sp.Expand()
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		if err := c.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("cell %s: %w", describeAxes(c.Axes), err)
		}
	}
	return cells, nil
}

// Expand materialises the grid: the cross product of all axes, each cell
// resolved against its dataset preset, deduplicated by fingerprint (two
// axis combinations that canonicalise to the same RunSpec — e.g. a listed
// rate that equals the preset's — yield one cell). Order is deterministic:
// dataset-major, seed-minor.
func (sp Spec) Expand() ([]Cell, error) {
	sp = sp.Defaults()
	// Optional axes iterate once with a zero sentinel meaning "preset".
	rates := sp.SampleRates
	if len(rates) == 0 {
		rates = []float64{0}
	}
	clients := sp.Clients
	if len(clients) == 0 {
		clients = []int{0}
	}
	epochs := sp.LocalEpochs
	if len(epochs) == 0 {
		epochs = []int{0}
	}
	scens := sp.Scenarios
	if len(scens) == 0 {
		scens = []string{""}
	}
	// Resolve each scenario preset once, outside the axis cross product; the
	// resolved values are immutable and safely shared by every cell
	// (Defaults normalises into a copy).
	resolved := make([]*scenario.Scenario, len(scens))
	for i, name := range scens {
		sc, err := scenario.Named(name)
		if err != nil {
			return nil, err
		}
		resolved[i] = sc
	}
	// Execution-mode axis, same shape: resolved once, shared read-only (the
	// spec's Defaults normalises into a private copy per cell). An explicit
	// axis turns the virtual clock on for every cell so sync baselines and
	// async runs report accuracy against the same time base.
	asyncs := sp.Async
	if len(asyncs) == 0 {
		asyncs = []string{""}
	}
	clockAll := len(sp.Async) > 0
	asyncResolved := make([]*fl.AsyncConfig, len(asyncs))
	for i, name := range asyncs {
		ac, err := fl.NamedAsync(name)
		if err != nil {
			return nil, err
		}
		asyncResolved[i] = ac
	}
	// A Cell is some 350 bytes: size both from the axis product (clamped to
	// MaxCells) instead of growing them a doubling at a time.
	size, _ := sp.axisProduct()
	cells := make([]Cell, 0, size)
	seen := make(map[string]struct{}, size)
	for _, ds := range sp.Datasets {
		for _, m := range sp.Methods {
			for _, b := range sp.Betas {
				for _, f := range sp.IFs {
					for _, nc := range clients {
						for _, rate := range rates {
							for _, ep := range epochs {
								for si, scen := range scens {
									sc := resolved[si]
									for ai, amode := range asyncs {
										ac := asyncResolved[ai]
										for _, seed := range sp.Seeds {
											spec := PresetSpec(ds, m, b, f, seed, sp.Effort)
											spec.Partition = sp.Partition
											spec.Model = sp.Model
											spec.Probes = sp.Probes
											if nc > 0 {
												spec.Clients = nc
											}
											if rate > 0 {
												spec.Cfg.SampleClients = SampleFor(spec.Clients, rate)
											}
											if ep > 0 {
												spec.Cfg.LocalEpochs = ep
											}
											if sp.Rounds > 0 {
												spec.Cfg.Rounds = ScaleRounds(sp.Rounds, sp.Effort)
											}
											spec.Cfg.Scenario = sc
											spec.Cfg.Async = ac
											spec.Cfg.Clock = clockAll
											// Canonicalize the resolved cell. The engine samples
											// min(SampleClients, Clients) at runtime, so a preset
											// sample above an overridden client count must clamp
											// here — otherwise the identical computation would be
											// cached under two fingerprints and labelled with a
											// participation that never happens.
											if spec.Cfg.SampleClients > spec.Clients {
												spec.Cfg.SampleClients = spec.Clients
											}
											// Axes report what will actually run, which is the
											// defaults-applied spec (e.g. a listed beta of 0 means
											// the 0.1 default, and that is what Find must match).
											spec = spec.Defaults()
											fp, err := spec.Fingerprint()
											if err != nil {
												return nil, err
											}
											if _, dup := seen[fp]; dup {
												continue
											}
											seen[fp] = struct{}{}
											cells = append(cells, Cell{
												Axes: Axes{
													Dataset:       spec.Dataset,
													Method:        spec.Method,
													Beta:          spec.Beta,
													IF:            spec.IF,
													Clients:       spec.Clients,
													SampleClients: spec.Cfg.SampleClients,
													LocalEpochs:   spec.Cfg.LocalEpochs,
													Scenario:      scenario.CanonicalName(scen),
													Async:         fl.CanonicalAsyncName(amode),
													Seed:          spec.Cfg.Seed,
												},
												ID:   fp,
												Spec: spec,
											})
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if len(cells) > MaxCells {
		return nil, fmt.Errorf("sweep: grid expands to %d cells, limit %d", len(cells), MaxCells)
	}
	return cells, nil
}

// describeAxes renders axes compactly for error messages and logs.
func describeAxes(a Axes) string {
	s := fmt.Sprintf("%s/%s beta=%g if=%g n=%d s=%d e=%d seed=%d",
		a.Dataset, a.Method, a.Beta, a.IF, a.Clients, a.SampleClients, a.LocalEpochs, a.Seed)
	if a.Scenario != "" {
		s += " scenario=" + a.Scenario
	}
	if a.Async != "" {
		s += " async=" + a.Async
	}
	return s
}
