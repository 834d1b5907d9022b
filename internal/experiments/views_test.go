package experiments

import (
	"strings"
	"testing"

	"fedwcm/internal/fl"
	"fedwcm/internal/sweep"
)

// blocks splits rendered text into its tables, keyed by title.
func blocks(text string) map[string][]string {
	out := map[string][]string{}
	for _, b := range strings.Split(strings.TrimSpace(text), "\n\n") {
		lines := strings.Split(b, "\n")
		out[lines[0]] = lines[1:]
	}
	return out
}

// TestSeriesKeepRoundsWhenLastGroupFailed: a series takes its rounds from a
// group that has a history, so with the grid's last group failed every
// series still prints one row per evaluation, and the failed group's
// column reads "-".
func TestSeriesKeepRoundsWhenLastGroupFailed(t *testing.T) {
	for _, tc := range []struct {
		id     string
		failed []string // the series whose last column is the failed group
		whole  []string // series that do not show it
	}{
		{"fig4", []string{"Figure 4 top (FedCM mean neuron concentration)", "Figure 4 bottom (FedCM test accuracy)"}, nil},
		{"fig13", []string{"Figure 13 (IF=0.1): mean neuron concentration"}, []string{"Figure 13 (IF=1): mean neuron concentration"}},
		{"fig18", []string{"Figure 18 (train accuracy over rounds)", "Figure 19 (test accuracy over rounds)"}, nil},
	} {
		t.Run(tc.id, func(t *testing.T) {
			e, err := ByID(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			cells, err := e.grid(Options{Seed: 1, Effort: 0.05}.Defaults()).Expand()
			if err != nil {
				t.Fatal(err)
			}
			last := cells[len(cells)-1].Axes
			out := render(e, cannedResult(t, e, func(a sweep.Axes) bool { return a == last }))
			got := blocks(out)
			for _, title := range append(append([]string(nil), tc.failed...), tc.whole...) {
				rows := got[title]
				if len(rows) != 2+5 { // header, rule, five evaluations
					t.Fatalf("%q has %d lines, want a header, a rule and 5 rounds:\n%s", title, len(rows), out)
				}
				failed := false
				for _, f := range tc.failed {
					failed = failed || f == title
				}
				for _, row := range rows[2:] {
					if strings.HasSuffix(row, " -") != failed {
						t.Fatalf("%q: row %q, want the last column %s:\n%s", title, row,
							map[bool]string{true: `"-"`, false: "filled"}[failed], out)
					}
				}
			}
		})
	}
}

// TestTable3PlacesRowsByRate: each sampling row reads the groups of its own
// rate, so with every 5 % cell failed the 5 % row is "-" and the 10 % row
// holds the 10-client groups.
func TestTable3PlacesRowsByRate(t *testing.T) {
	e, err := ByID("table3")
	if err != nil {
		t.Fatal(err)
	}
	res := cannedResult(t, e, func(a sweep.Axes) bool { return a.SampleClients == 5 })
	rows := blocks(render(e, res))["Table 3 (beta=0.6, IF=0.1)"]
	want10 := []string{"10%"}
	for _, m := range []string{"fedavg", "fedcm", "fedwcm"} {
		g := res.Find(sweep.Axes{Method: m, SampleClients: 10})
		if g == nil {
			t.Fatalf("no 10-client %s group", m)
		}
		want10 = append(want10, sweep.F(g.Mean))
	}
	if got := strings.Fields(rows[2]); strings.Join(got, " ") != "5% - - -" {
		t.Errorf("5%% row %q, want every method failed", rows[2])
	}
	if got := strings.Fields(rows[3]); strings.Join(got, " ") != strings.Join(want10, " ") {
		t.Errorf("10%% row %q, want %q", rows[3], want10)
	}
}

// TestViewsAggregateSeeds: a statistic prints the mean over a group's seeds
// with their sample std, a series the pointwise mean, a vector the
// elementwise mean; one seed prints no spread.
func TestViewsAggregateSeeds(t *testing.T) {
	hist := func(accs ...float64) *fl.History {
		h := &fl.History{}
		for i, a := range accs {
			h.Stats = append(h.Stats, fl.RoundStat{Round: 5 * (i + 1), TestAcc: a, PerClass: []float64{a, 1 - a}})
		}
		return h
	}
	var cells []sweep.CellResult
	for seed, accs := range [][]float64{{0.6, 0.7}, {0.62, 0.72}, {0.64, 0.74}} {
		cells = append(cells, sweep.CellResult{
			Cell:   sweep.Cell{Axes: sweep.Axes{Method: "fedwcm", Seed: uint64(seed + 1)}},
			Status: sweep.CellComputed, Hist: hist(accs...),
		})
	}
	cells = append(cells, sweep.CellResult{
		Cell: sweep.Cell{Axes: sweep.Axes{Method: "fedavg", Seed: 1}}, Status: sweep.CellComputed, Hist: hist(0.5),
	})
	e := &Experiment{
		Grid: sweep.Spec{Methods: []string{"fedwcm", "fedavg"}},
		Views: []View{
			{Title: "S", Rows: []string{"method"}, Stats: []Stat{{Name: "tail3"}, {Name: "final"}, {Name: "rounds", Arg: 0.72}}},
			{Title: "C", Series: "test_acc", Cols: []string{"method"}},
			{Title: "V", Vector: "per_class", Cols: []string{"method"}, Heads: []string{"label"}},
		},
	}
	got := blocks(render(e, sweep.NewResult(e.Grid, cells)))
	for title, want := range map[string][]string{
		"S": {"fedwcm 0.6700±0.0200 0.7200±0.0200 never", "fedavg 0.5000 0.5000 never"},
		"C": {"5 0.6200 0.5000", "10 0.7200 -"},
		"V": {"0 0.7200 0.5000", "1 0.2800 0.5000"},
	} {
		rows := got[title][2:]
		for i, w := range want {
			if strings.Join(strings.Fields(rows[i]), " ") != w {
				t.Errorf("%s row %d: %q, want %q", title, i, rows[i], w)
			}
		}
	}
}
