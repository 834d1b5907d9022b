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
// used). Shot is the across-seed mean of the final evaluation's
// head/medium/tail accuracies (nil when no seed's history carries shot
// data, e.g. pre-scenario store artifacts). Hists keeps the members'
// histories, in grid order, for views that read more than the scalars.
type Group struct {
	Axes  Axes          `json:"axes"` // Seed zeroed
	Seeds []uint64      `json:"seeds"`
	N     int           `json:"n"`
	Mean  float64       `json:"mean"`
	Std   float64       `json:"std"`
	Shot  *fl.ShotAcc   `json:"shot,omitempty"`
	Hists []*fl.History `json:"-"`
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
// members' histories for the views that read them. Failed cells are counted
// but excluded from aggregation, so a partial result still renders what it
// has.
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
// nil. Experiment views use it to place groups into table cells by the axes
// they swept.
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
