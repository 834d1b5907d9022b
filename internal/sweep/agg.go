package sweep

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"fedwcm/internal/fl"
	"fedwcm/internal/scenario"
)

// Cell terminal statuses as reported in Results and over the sweep API.
const (
	CellCached   = "cached"   // served from the store, no recompute
	CellComputed = "computed" // executed during this sweep
	CellFailed   = "failed"
)

// CellResult is one expanded cell's outcome.
type CellResult struct {
	Cell
	Status string      `json:"status"`
	Err    string      `json:"error,omitempty"`
	Hist   *fl.History `json:"-"`
}

// Group aggregates the cells that differ only in seed — the unit the
// paper's tables report. Scalars aggregate TailMeanAcc(3) (the same "mean
// test accuracy over the tail evaluations" metric the single-seed tables
// used); curves average pointwise across seeds. Shot is the across-seed
// mean of the final evaluation's head/medium/tail accuracies (nil when no
// seed's history carries shot data, e.g. pre-scenario store artifacts).
type Group struct {
	Axes  Axes          `json:"axes"` // Seed zeroed
	Seeds []uint64      `json:"seeds"`
	N     int           `json:"n"`
	Mean  float64       `json:"mean"`
	Std   float64       `json:"std"`
	Shot  *fl.ShotAcc   `json:"shot,omitempty"`
	Hists []*fl.History `json:"-"`
}

// MeanStd renders the group's scalar: "0.5123" for a single seed,
// "0.5123±0.0045" once there is a spread to report.
func (g *Group) MeanStd() string {
	if g.N <= 1 {
		return F(g.Mean)
	}
	return fmt.Sprintf("%s±%s", F(g.Mean), F(g.Std))
}

// Curve returns the evaluation rounds and the across-seed mean accuracy at
// each. Rounds come from the first seed's history; seeds of one sweep share
// the evaluation cadence by construction.
func (g *Group) Curve() (rounds []int, acc []float64) {
	return g.meanSeries(func(s *fl.RoundStat) float64 { return s.TestAcc })
}

// MetricCurve is Curve for one RoundStat.Metrics key — a method diagnostic
// ("alpha") or a probe reading ("concentration", "train_acc"). Returns nils
// when the histories do not carry the key.
func (g *Group) MetricCurve(key string) (rounds []int, vals []float64) {
	if g == nil || len(g.Hists) == 0 || len(g.Hists[0].Stats) == 0 {
		return nil, nil
	}
	if _, ok := g.Hists[0].Stats[0].Metrics[key]; !ok {
		return nil, nil
	}
	return g.meanSeries(func(s *fl.RoundStat) float64 { return s.Metrics[key] })
}

// meanSeries averages one per-evaluation value pointwise across seeds. A nil
// group (Result.Find matched nothing) has no series.
func (g *Group) meanSeries(value func(*fl.RoundStat) float64) (rounds []int, vals []float64) {
	if g == nil || len(g.Hists) == 0 {
		return nil, nil
	}
	first := g.Hists[0].Stats
	rounds = make([]int, len(first))
	vals = make([]float64, len(first))
	for i := range first {
		rounds[i] = first[i].Round
		n := 0
		for _, h := range g.Hists {
			if i < len(h.Stats) {
				vals[i] += value(&h.Stats[i])
				n++
			}
		}
		vals[i] /= float64(n) // n ≥ 1: the first seed always contributes
	}
	return rounds, vals
}

// RoundsToAcc returns the first evaluated round whose across-seed mean
// accuracy reaches the threshold, or -1 if never reached.
func (g *Group) RoundsToAcc(threshold float64) int {
	rounds, acc := g.Curve()
	for i, a := range acc {
		if a >= threshold {
			return rounds[i]
		}
	}
	return -1
}

// TimeCurve returns the virtual wall-clock of each evaluation and the
// across-seed mean accuracy at it — the time-to-accuracy view async sweeps
// compare execution modes on. Times come from the first seed's history
// (seeds share the event schedule's shape, not necessarily its exact clock;
// the first seed is the deterministic representative, mirroring Curve).
// Returns nils when histories carry no clock (Cfg.Clock unset).
func (g *Group) TimeCurve() (times []float64, acc []float64) {
	if len(g.Hists) == 0 || len(g.Hists[0].Stats) == 0 {
		return nil, nil
	}
	stats := g.Hists[0].Stats
	if stats[len(stats)-1].Time == 0 {
		return nil, nil // clock-free run: Time is omitted everywhere
	}
	times = make([]float64, len(stats))
	for i, s := range stats {
		times[i] = s.Time
	}
	_, acc = g.Curve()
	return times, acc
}

// TimeToAcc returns the virtual wall-clock at which the across-seed mean
// accuracy first reaches the threshold, or -1 if it never does (or the
// histories carry no clock).
func (g *Group) TimeToAcc(threshold float64) float64 {
	times, acc := g.TimeCurve()
	for i, a := range acc {
		if a >= threshold {
			return times[i]
		}
	}
	return -1
}

// FinalPerClass returns the across-seed mean of the final evaluation's
// per-class accuracies (nil if histories carry none).
func (g *Group) FinalPerClass() []float64 {
	var out []float64
	n := 0
	for _, h := range g.Hists {
		if len(h.Stats) == 0 {
			continue
		}
		pc := h.Stats[len(h.Stats)-1].PerClass
		if len(pc) == 0 {
			continue
		}
		if out == nil {
			out = make([]float64, len(pc))
		}
		for c := range out {
			if c < len(pc) {
				out[c] += pc[c]
			}
		}
		n++
	}
	for c := range out {
		out[c] /= float64(n)
	}
	return out
}

// Result is a completed (or partially failed) sweep: per-cell outcomes plus
// the seed-aggregated groups.
type Result struct {
	Spec   Spec
	Cells  []CellResult
	Groups []*Group

	Cached, Computed, Failed int
}

// CellScore is everything a cell contributes to its group's scalars: its
// TailMeanAcc(3) and its final evaluation's shot accuracies. A sweep that
// keeps only scores can aggregate without its cells' histories.
type CellScore struct {
	Acc     float64
	Shot    fl.ShotAcc // valid when HasShot
	HasShot bool
}

// ScoreOf scores one cell's history.
func ScoreOf(h *fl.History) CellScore {
	sc := CellScore{Acc: h.TailMeanAcc(3)}
	if s := h.FinalShot(); s != nil {
		sc.Shot, sc.HasShot = *s, true
	}
	return sc
}

// NewResult aggregates terminal cell outcomes into groups: each history is
// scored, then folded as Fold folds scores, and each group keeps its
// members' histories for the curve views. Failed cells are counted but
// excluded from aggregation, so a partial result still renders what it has.
func NewResult(sp Spec, cells []CellResult) *Result {
	scores := make([]CellScore, len(cells))
	for i := range cells {
		if cells[i].Hist != nil {
			scores[i] = ScoreOf(cells[i].Hist)
		}
	}
	r, member := fold(sp, len(cells), func(i int) (*Axes, string, *CellScore) {
		if cells[i].Hist == nil {
			return &cells[i].Axes, cells[i].Status, nil
		}
		return &cells[i].Axes, cells[i].Status, &scores[i]
	})
	r.Cells = cells
	for _, g := range r.Groups {
		g.Hists = make([]*fl.History, 0, g.N)
	}
	for i, gi := range member {
		if gi >= 0 {
			r.Groups[gi].Hists = append(r.Groups[gi].Hists, cells[i].Hist)
		}
	}
	return r
}

// Fold aggregates n terminal cells into groups from their scores alone.
// cell(i) returns cell i's axes, its status (CellCached, CellComputed or
// CellFailed) and its score, nil when there is nothing to aggregate. Every
// status is counted; a failed or unscored cell joins no group. Cells are
// folded in index order, so each group's seeds, mean, std and shot are
// summed in grid order: the same bytes whichever order the cells finished
// in. cell is called up to twice per index.
func Fold(sp Spec, n int, cell func(i int) (axes *Axes, status string, score *CellScore)) *Result {
	r, _ := fold(sp, n, cell)
	return r
}

// fold is Fold, also returning each cell's group index (-1: none).
func fold(sp Spec, n int, cell func(i int) (*Axes, string, *CellScore)) (*Result, []int) {
	r := &Result{Spec: sp.Defaults()}
	// A full grid has one group per seedless axis combination.
	size := n
	if k := len(r.Spec.Seeds); k > 1 {
		size = n / k
	}
	index := make(map[Axes]int, size)
	member := make([]int, n)
	scored := 0
	// First pass: count statuses, place each scored cell in its group and
	// sum the group's accuracies.
	for i := range member {
		member[i] = -1
		axes, status, sc := cell(i)
		switch status {
		case CellCached:
			r.Cached++
		case CellComputed:
			r.Computed++
		case CellFailed:
			r.Failed++
			continue
		}
		if sc == nil {
			continue
		}
		key := *axes
		key.Seed = 0
		gi, ok := index[key]
		if !ok {
			gi = len(r.Groups)
			index[key] = gi
			r.Groups = append(r.Groups, &Group{Axes: key})
		}
		g := r.Groups[gi]
		g.N++
		g.Mean += sc.Acc
		member[i] = gi
		scored++
	}
	seeds := make([]uint64, 0, scored)
	shots := make([]fl.ShotAcc, len(r.Groups))
	shotN := make([]int, len(r.Groups))
	for _, g := range r.Groups {
		g.Mean /= float64(g.N)
		g.Seeds = seeds[len(seeds) : len(seeds) : len(seeds)+g.N]
		seeds = seeds[:len(seeds)+g.N]
	}
	// Second pass, with every mean known: seeds, squared deviations (summed
	// in g.Std until the end) and shot sums.
	for i, gi := range member {
		if gi < 0 {
			continue
		}
		axes, _, sc := cell(i)
		g := r.Groups[gi]
		g.Seeds = append(g.Seeds, axes.Seed)
		if g.N > 1 {
			g.Std += float64((sc.Acc - g.Mean) * (sc.Acc - g.Mean))
		}
		if sc.HasShot {
			shots[gi].Head += sc.Shot.Head
			shots[gi].Medium += sc.Shot.Medium
			shots[gi].Tail += sc.Shot.Tail
			shotN[gi]++
		}
	}
	for gi, g := range r.Groups {
		if g.N > 1 {
			g.Std = math.Sqrt(g.Std / float64(g.N-1)) // sample std across seeds
		}
		if k := shotN[gi]; k > 0 {
			shots[gi].Head /= float64(k)
			shots[gi].Medium /= float64(k)
			shots[gi].Tail /= float64(k)
			g.Shot = &shots[gi]
		}
	}
	return r, member
}

// FailureSummary reports failed cells grouped the same way successes
// aggregate (seed-zeroed axes): one line per failed group with how many of
// its seeds failed and the first error seen. CLIs print it so a failed
// sweep names its causes instead of a bare count.
func (r *Result) FailureSummary() []string {
	type fg struct {
		n     int
		first string
	}
	groups := make(map[Axes]*fg)
	var order []Axes
	for _, c := range r.Cells {
		if c.Status != CellFailed {
			continue
		}
		key := c.Axes
		key.Seed = 0
		g, ok := groups[key]
		if !ok {
			g = &fg{first: c.Err}
			groups[key] = g
			order = append(order, key)
		}
		g.n++
	}
	out := make([]string, 0, len(order))
	for _, key := range order {
		g := groups[key]
		out = append(out, fmt.Sprintf("%s: %d cell(s) failed; first error: %s", describeAxes(key), g.n, g.first))
	}
	return out
}

// Find returns the first group matching the non-zero fields of the probe
// (zero fields are wildcards; Seed is ignored — groups are seedless), or
// nil. Renderers use it to place groups into table cells by the axes they
// swept.
func (r *Result) Find(probe Axes) *Group {
	for _, g := range r.Groups {
		if probe.Dataset != "" && g.Axes.Dataset != probe.Dataset {
			continue
		}
		if probe.Method != "" && g.Axes.Method != probe.Method {
			continue
		}
		if probe.Beta != 0 && g.Axes.Beta != probe.Beta {
			continue
		}
		if probe.IF != 0 && g.Axes.IF != probe.IF {
			continue
		}
		if probe.Clients != 0 && g.Axes.Clients != probe.Clients {
			continue
		}
		if probe.SampleClients != 0 && g.Axes.SampleClients != probe.SampleClients {
			continue
		}
		if probe.LocalEpochs != 0 && g.Axes.LocalEpochs != probe.LocalEpochs {
			continue
		}
		// "" is a wildcard like the other zero fields; probe "static"
		// explicitly to match only static groups (whose Scenario is "").
		if probe.Scenario != "" && g.Axes.Scenario != scenario.CanonicalName(probe.Scenario) {
			continue
		}
		// Likewise probe "sync" explicitly to match only synchronous groups.
		if probe.Async != "" && g.Axes.Async != fl.CanonicalAsyncName(probe.Async) {
			continue
		}
		return g
	}
	return nil
}

// CellValue renders the matching group's mean±std scalar, or "-" when no
// group matches (e.g. the cell failed and was excluded from aggregation).
func (r *Result) CellValue(probe Axes) string {
	g := r.Find(probe)
	if g == nil {
		return "-"
	}
	return g.MeanStd()
}

// CurveOf returns the matching group's mean convergence curve, or nils when
// no group matches.
func (r *Result) CurveOf(probe Axes) ([]int, []float64) {
	return r.Find(probe).Curve()
}

// MetricCurveOf is CurveOf for one Metrics key (see Group.MetricCurve).
func (r *Result) MetricCurveOf(probe Axes, key string) ([]int, []float64) {
	return r.Find(probe).MetricCurve(key)
}

// aggAxes are the axis columns AggTable can show, in column order, each with
// the one formatter for its values.
var aggAxes = []struct {
	name   string
	format func(Axes) string
}{
	{"dataset", func(a Axes) string { return a.Dataset }},
	{"method", func(a Axes) string { return a.Method }},
	{"beta", func(a Axes) string { return strconv.FormatFloat(a.Beta, 'g', -1, 64) }},
	{"IF", func(a Axes) string { return strconv.FormatFloat(a.IF, 'g', -1, 64) }},
	{"clients", func(a Axes) string { return strconv.Itoa(a.Clients) }},
	{"sample", func(a Axes) string { return strconv.Itoa(a.SampleClients) }},
	{"epochs", func(a Axes) string { return strconv.Itoa(a.LocalEpochs) }},
	{"scenario", func(a Axes) string {
		if a.Scenario == "" {
			return "static"
		}
		return a.Scenario
	}},
	{"async", func(a Axes) string {
		if a.Async == "" {
			return "sync"
		}
		return a.Async
	}},
}

// AggTable renders the default aggregate view: one row per group, one
// column per axis that actually varies across the sweep, then n / mean /
// std. The HTTP sweep-result endpoint embeds this rendering.
func (r *Result) AggTable(title string) *Table {
	// Each group's axis values are formatted once, here; which columns vary,
	// the row order and the rows themselves all read these strings.
	n := len(r.Groups)
	formatted := make([]string, len(aggAxes)*n)
	var cols [][]string // cols[c][g]: shown column c of group g
	headers := make([]string, 0, len(aggAxes)+6)
	for a, ax := range aggAxes {
		vals := formatted[a*n : (a+1)*n]
		varies := false
		for g, grp := range r.Groups {
			vals[g] = ax.format(grp.Axes)
			varies = varies || vals[g] != vals[0]
		}
		if varies || ax.name == "method" {
			cols = append(cols, vals)
			headers = append(headers, ax.name)
		}
	}
	// Shot-bucket columns appear whenever any group carries shot data (the
	// paper's long-tail reporting convention: head/medium/tail accuracy).
	withShot := false
	for _, g := range r.Groups {
		withShot = withShot || g.Shot != nil
	}
	headers = append(headers, "n", "mean", "std")
	if withShot {
		headers = append(headers, "head", "medium", "tail")
	}
	t := &Table{Title: title, Headers: headers, Rows: make([][]string, 0, n)}
	order := make([]int, n)
	for g := range order {
		order[g] = g
	}
	sort.SliceStable(order, func(i, j int) bool { // stable row order for diffs
		for _, vals := range cols {
			if a, b := vals[order[i]], vals[order[j]]; a != b {
				return a < b
			}
		}
		return false
	})
	for _, g := range order {
		grp := r.Groups[g]
		row := make([]string, 0, len(headers))
		for _, vals := range cols {
			row = append(row, vals[g])
		}
		row = append(row, strconv.Itoa(grp.N), F(grp.Mean), F(grp.Std))
		if withShot {
			if grp.Shot != nil {
				row = append(row, F(grp.Shot.Head), F(grp.Shot.Medium), F(grp.Shot.Tail))
			} else {
				row = append(row, "-", "-", "-")
			}
		}
		t.AddRow(row...)
	}
	return t
}
