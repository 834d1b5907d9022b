package experiments

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"

	"fedwcm/internal/fl"
	"fedwcm/internal/sweep"
)

// View is one block of an experiment's text, declared rather than written:
// a table of statistics, a series over evaluation rounds (Series set), or
// final vectors (Vector set). Views name grid axes — "dataset", "method",
// "beta", "IF", "clients", "sample", "epochs", "scenario", "async" — and an
// axis's values are the experiment grid's list for it, in declared order.
// Crossed axes vary the first one slowest. A group missing from the result
// (its cells failed) prints "-" where its values would be.
type View struct {
	// Title heads the view. With Split set it is a format of the split
	// axis's value, and the view prints once per value, each part ending
	// with a blank line.
	Title string
	Split string
	// At narrows every group the view reads, as a sweep.Result.Find probe.
	At sweep.Axes

	// Rows are the axes whose values give a table's rows, or a long vector
	// view's row groups. Cols are the axes whose values label columns: a
	// table's, or one column per group in a series or wide vector view.
	Rows, Cols []string
	// Heads are the header cells left of the column labels. A table
	// defaults to its row axis names and a series to "round". A vector view
	// sets them: the element column of a wide one, or the row axes, element
	// and value columns of a long one.
	Heads []string
	// Head formats a column label from its Cols values; empty is "%v".
	Head string
	// Stats are a table's cells under each Cols value; empty is one tail3
	// cell labelled by Head.
	Stats []Stat

	// Series is "test_acc" or a RoundStat.Metrics key. Each row is an
	// evaluation round, each cell the across-seed mean at it.
	Series string
	// Vector is "per_class" (the final per-class accuracy, elements named
	// by class index) or a Metrics key prefix (key+"1", key+"2", … while
	// the final evaluation records them, named by the part after the last
	// "/"). Each cell is the across-seed mean of the final evaluation's
	// value. With Cols each element is a row and each group a column; with
	// Rows each (group, element) pair is a row.
	Vector string
}

// Stat is one table cell: a named reduction of each seed's history,
// printed as the mean over the group's seeds, "±std" once there are two.
type Stat struct {
	// Name is one of
	//   - tail3: mean test accuracy of the last three evaluations;
	//   - final, best: the last and the highest test accuracy;
	//   - rounds: the first evaluated round whose accuracy reaches Arg
	//     ("never" when a seed does not);
	//   - time: the virtual time at which accuracy first reaches Arg × the
	//     tail3 of the row's group at Ref ("-" without a clock);
	//   - shot: the head/medium/tail accuracies of the final evaluation;
	//   - ratio: the cell two to its left over the cell to its left.
	Name string
	// Head formats the column header from the column's Cols values; empty
	// is "%v", or Name when the table has no Cols.
	Head string
	// At narrows the cell's group beyond its row and column.
	At  sweep.Axes
	Arg float64
	Ref sweep.Axes
}

// render writes e's views of res. A split view ends each of its parts with
// a blank line; any other view is set off from the one before it by one.
func (e *Experiment) render(w io.Writer, res *sweep.Result) {
	blank := true // a blank line ends the output so far, or nothing was written
	for _, v := range e.Views {
		if !blank {
			fmt.Fprintln(w)
		}
		if v.Split == "" {
			v.table(e.Grid, res, v.At).Render(w)
			blank = false
			continue
		}
		for _, p := range points(e.Grid, res, v.At, []string{v.Split}) {
			t := v.table(e.Grid, res, p.probe)
			t.Title = fmt.Sprintf(v.Title, p.vals...)
			t.Render(w)
			fmt.Fprintln(w)
		}
		blank = true
	}
}

// table lays out one view, or one part of a split view, over the groups
// base narrows to.
func (v *View) table(grid sweep.Spec, res *sweep.Result, base sweep.Axes) *sweep.Table {
	t := &sweep.Table{Title: v.Title, Headers: append([]string(nil), v.Heads...)}
	switch {
	case v.Series != "":
		if t.Headers == nil {
			t.Headers = []string{"round"}
		}
		v.columns(t, grid, res, base, func(g *sweep.Group) ([]string, []float64) {
			var rounds []string
			for _, st := range g.Hists[0].Stats {
				rounds = append(rounds, strconv.Itoa(st.Round))
			}
			return rounds, meanOver(g, func(h *fl.History) []float64 { return seriesOf(h, v.Series) })
		})
	case v.Vector != "" && len(v.Cols) > 0:
		v.columns(t, grid, res, base, func(g *sweep.Group) ([]string, []float64) {
			vals := v.vector(g)
			return v.elements(len(vals)), vals
		})
	case v.Vector != "":
		for _, r := range points(grid, res, base, v.Rows) {
			if g := res.Find(r.probe); g != nil {
				vals := v.vector(g)
				for j, name := range v.elements(len(vals)) {
					t.AddRow(append(labels(r.vals), name, sweep.F(vals[j]))...)
				}
			}
		}
	default:
		v.scalars(t, grid, res, base)
	}
	return t
}

// vector is the across-seed mean of g's final vector.
func (v *View) vector(g *sweep.Group) []float64 {
	return meanOver(g, func(h *fl.History) []float64 { return vectorOf(h, v.Vector) })
}

// elements names the first n elements of a final vector: by class index,
// or by metric key after its last "/".
func (v *View) elements(n int) []string {
	names := make([]string, n)
	for i := range names {
		if v.Vector == "per_class" {
			names[i] = strconv.Itoa(i)
		} else {
			names[i] = v.Vector[strings.LastIndexByte(v.Vector, '/')+1:] + strconv.Itoa(i+1)
		}
	}
	return names
}

// columns fills t with one column per Cols group and one row per x value:
// of groups that have a history, the first with the most. of returns a
// group's x values and its value at each; a short or missing column reads
// "-".
func (v *View) columns(t *sweep.Table, grid sweep.Spec, res *sweep.Result, base sweep.Axes, of func(*sweep.Group) ([]string, []float64)) {
	var xs []string
	var cols [][]float64
	for _, c := range points(grid, res, base, v.Cols) {
		t.Headers = append(t.Headers, label(v.Head, c.vals))
		var vals []float64
		if g := res.Find(c.probe); g != nil {
			var x []string
			x, vals = of(g)
			if len(x) > len(xs) {
				xs = x
			}
		}
		cols = append(cols, vals)
	}
	for i, x := range xs {
		row := []string{x}
		for _, vals := range cols {
			if i < len(vals) {
				row = append(row, sweep.F(vals[i]))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
}

// scalars fills t with one row per Rows value and, under each Cols value,
// one cell per statistic.
func (v *View) scalars(t *sweep.Table, grid sweep.Spec, res *sweep.Result, base sweep.Axes) {
	stats := v.Stats
	if len(stats) == 0 {
		stats = []Stat{{Name: "tail3", Head: v.Head}}
	}
	if t.Headers == nil {
		t.Headers = append(t.Headers, v.Rows...)
	}
	cols := points(grid, res, base, v.Cols)
	for _, c := range cols {
		for _, s := range stats {
			head := s.Head
			if head == "" && len(c.vals) == 0 {
				head = s.Name
			}
			t.Headers = append(t.Headers, label(head, c.vals))
		}
	}
	for _, r := range points(grid, res, base, v.Rows) {
		row := labels(r.vals)
		var nums []float64 // each cell's number, NaN when it has none
		for _, c := range cols {
			probe := merge(r.probe, c.probe)
			for _, s := range stats {
				text, x := s.cell(res, probe, nums)
				row, nums = append(row, text), append(nums, x)
			}
		}
		t.AddRow(row...)
	}
}

// cell prints s for the group at probe. left holds the numbers of the
// cells to its left in the row.
func (s Stat) cell(res *sweep.Result, probe sweep.Axes, left []float64) (string, float64) {
	none := math.NaN()
	if s.Name == "ratio" {
		a, b := left[len(left)-2], left[len(left)-1]
		if a > 0 && b > 0 { // false for NaN
			return fmt.Sprintf("%.2fx", a/b), a / b
		}
		return "-", none
	}
	g := res.Find(merge(probe, s.At))
	if g == nil {
		return "-", none
	}
	if s.Name == "shot" {
		if g.Shot == nil {
			return "-", none
		}
		return sweep.F(g.Shot.Head) + "/" + sweep.F(g.Shot.Medium) + "/" + sweep.F(g.Shot.Tail), none
	}
	target := s.Arg
	if s.Name == "time" {
		ref := res.Find(merge(probe, s.Ref))
		if ref == nil {
			return "-", none
		}
		acc, _, _ := Stat{Name: "tail3"}.over(ref, 0)
		target = float64(s.Arg * acc)
	}
	mean, std, ok := s.over(g, target)
	switch {
	case !ok && s.Name == "rounds":
		return "never", none
	case !ok:
		return "-", none
	case len(g.Hists) > 1:
		return s.format(mean) + "±" + s.format(std), mean
	}
	return s.format(mean), mean
}

// over reduces each of g's histories and returns the mean over its seeds
// and their sample std (0 for one seed), summed in seed order; ok is false
// when a seed has no value.
func (s Stat) over(g *sweep.Group, target float64) (mean, std float64, ok bool) {
	vals := make([]float64, len(g.Hists))
	for i, h := range g.Hists {
		if vals[i], ok = s.value(h, target); !ok {
			return 0, 0, false
		}
		mean += vals[i]
	}
	mean /= float64(len(vals))
	if len(vals) > 1 {
		for _, x := range vals {
			std += float64((x - mean) * (x - mean))
		}
		std = math.Sqrt(std / float64(len(vals)-1))
	}
	return mean, std, len(vals) > 0
}

// value reduces one history; ok is false when it has no value.
func (s Stat) value(h *fl.History, target float64) (float64, bool) {
	switch s.Name {
	case "tail3":
		return h.TailMeanAcc(3), true
	case "final":
		return h.FinalAcc(), true
	case "best":
		return h.BestAcc(), true
	case "rounds", "time":
		if s.Name == "time" && (len(h.Stats) == 0 || h.Stats[len(h.Stats)-1].Time == 0) {
			return 0, false // a clock-free run records no time
		}
		for _, st := range h.Stats {
			if st.TestAcc >= target {
				if s.Name == "rounds" {
					return float64(st.Round), true
				}
				return st.Time, true
			}
		}
		return 0, false
	}
	panic("experiments: unknown statistic " + s.Name)
}

func (s Stat) format(x float64) string {
	switch s.Name {
	case "rounds":
		return strconv.FormatFloat(x, 'g', -1, 64)
	case "time":
		return strconv.FormatFloat(x, 'f', 1, 64)
	}
	return sweep.F(x)
}

// seriesOf is one per-evaluation value of h, nil when h does not record
// the key.
func seriesOf(h *fl.History, key string) []float64 {
	if key != "test_acc" && (len(h.Stats) == 0 || !hasMetric(&h.Stats[0], key)) {
		return nil
	}
	out := make([]float64, len(h.Stats))
	for i := range h.Stats {
		if out[i] = h.Stats[i].Metrics[key]; key == "test_acc" {
			out[i] = h.Stats[i].TestAcc
		}
	}
	return out
}

// vectorOf is h's final vector (see View.Vector).
func vectorOf(h *fl.History, key string) []float64 {
	if len(h.Stats) == 0 {
		return nil
	}
	last := &h.Stats[len(h.Stats)-1]
	if key == "per_class" {
		return last.PerClass
	}
	var out []float64
	for i := 1; hasMetric(last, key+strconv.Itoa(i)); i++ {
		out = append(out, last.Metrics[key+strconv.Itoa(i)])
	}
	return out
}

func hasMetric(st *fl.RoundStat, key string) bool {
	_, ok := st.Metrics[key]
	return ok
}

// meanOver is the elementwise mean of vec over g's histories: each element
// summed in seed order over the histories that have it.
func meanOver(g *sweep.Group, vec func(*fl.History) []float64) []float64 {
	var sum []float64
	var n []int
	for _, h := range g.Hists {
		for i, x := range vec(h) {
			if i == len(sum) {
				sum, n = append(sum, 0), append(n, 0)
			}
			sum[i] += x
			n[i]++
		}
	}
	for i := range sum {
		sum[i] /= float64(n[i])
	}
	return sum
}

// point is one combination of axis values: how they print and the group
// probe they select.
type point struct {
	vals  []any
	probe sweep.Axes
}

// points crosses the named axes' values in grid, the first axis varying
// slowest, each probe narrowing base. No axes give base alone.
func points(grid sweep.Spec, res *sweep.Result, base sweep.Axes, axes []string) []point {
	out := []point{{probe: base}}
	for _, name := range axes {
		var next []point
		for _, p := range out {
			for _, a := range axisPoints(grid, res, name) {
				next = append(next, point{append(append([]any(nil), p.vals...), a.vals...), merge(p.probe, a.probe)})
			}
		}
		out = next
	}
	return out
}

// axisPoints lists one axis's values. A sample rate prints as a percentage
// and selects the per-round count Expand resolved it to on the grid's
// client count.
func axisPoints(grid sweep.Spec, res *sweep.Result, name string) []point {
	switch name {
	case "dataset":
		return each(grid.Datasets, func(a *sweep.Axes, v string) { a.Dataset = v })
	case "method":
		return each(grid.Methods, func(a *sweep.Axes, v string) { a.Method = v })
	case "beta":
		return each(grid.Betas, func(a *sweep.Axes, v float64) { a.Beta = v })
	case "IF":
		return each(grid.IFs, func(a *sweep.Axes, v float64) { a.IF = v })
	case "clients":
		return each(grid.Clients, func(a *sweep.Axes, v int) { a.Clients = v })
	case "epochs":
		return each(grid.LocalEpochs, func(a *sweep.Axes, v int) { a.LocalEpochs = v })
	case "scenario":
		return each(grid.Scenarios, func(a *sweep.Axes, v string) { a.Scenario = v })
	case "async":
		return each(grid.Async, func(a *sweep.Axes, v string) { a.Async = v })
	case "sample":
		clients := res.Cells[0].Axes.Clients
		out := each(grid.SampleRates, func(a *sweep.Axes, v float64) { a.SampleClients = min(sweep.SampleFor(clients, v), clients) })
		for i, v := range grid.SampleRates {
			out[i].vals[0] = fmt.Sprintf("%d%%", int(v*100))
		}
		return out
	}
	panic("experiments: unknown axis " + name)
}

// each lists one axis's values, set selecting each.
func each[T any](vals []T, set func(*sweep.Axes, T)) []point {
	out := make([]point, len(vals))
	for i, v := range vals {
		out[i].vals = []any{v}
		set(&out[i].probe, v)
	}
	return out
}

// merge returns a with b's non-zero fields set over it.
func merge(a, b sweep.Axes) sweep.Axes {
	dst, src := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < src.NumField(); i++ {
		if !src.Field(i).IsZero() {
			dst.Field(i).Set(src.Field(i))
		}
	}
	return a
}

// label formats a column label from its axis values.
func label(format string, vals []any) string {
	if format == "" {
		format = "%v"
	}
	return fmt.Sprintf(format, vals...)
}

// labels prints each axis value.
func labels(vals []any) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprint(v)
	}
	return out
}
