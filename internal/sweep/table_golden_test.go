package sweep

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"fedwcm/internal/fl"
)

// The strings below were recorded on the commit before AggTable, Render and
// F stopped going through fmt (PR 20), and pin the text the sweep-result
// endpoint embeds and fedbench prints: which axes become columns, how each
// formats, row order, padding. One quirk is pinned on purpose: column widths
// count bytes while cells pad by runes, so a column holding a "±" cell is one
// column wider than its widest cell.

// aggCell is one terminal cell of a hand-built result: its axes and a
// history whose evaluations are accs (so TailMeanAcc(3) is the mean of the
// last three), with an optional shot split on the final one.
func aggCell(a Axes, shot *fl.ShotAcc, accs ...float64) CellResult {
	h := &fl.History{Method: a.Method}
	for i, acc := range accs {
		h.Stats = append(h.Stats, fl.RoundStat{Round: i + 1, TestAcc: acc})
	}
	h.Stats[len(h.Stats)-1].Shot = shot
	return CellResult{Cell: Cell{Axes: a}, Status: CellComputed, Hist: h}
}

func TestAggTableGolden(t *testing.T) {
	base := Axes{Dataset: "cifar10-syn", Method: "fedavg", Beta: 0.1, IF: 0.1, Clients: 100, SampleClients: 10, LocalEpochs: 5}
	with := func(edit func(*Axes)) Axes {
		a := base
		edit(&a)
		return a
	}
	cases := []struct {
		name  string
		cells []CellResult
		want  string
	}{
		{
			name: "single seed, no shot, IF via %g",
			cells: []CellResult{
				aggCell(with(func(a *Axes) { a.Method, a.IF = "fedwcm", 1 }), nil, 0.7, 0.71, 0.72),
				aggCell(with(func(a *Axes) { a.Method, a.IF = "fedwcm", 0.06 }), nil, 0.6, 0.61),
				aggCell(with(func(a *Axes) { a.Method, a.IF = "fedwcm", 1e-05 }), nil, 0.5),
				aggCell(with(func(a *Axes) { a.IF = 1 }), nil, 0.4, 0.3, 0.2, 0.1),
				aggCell(with(func(a *Axes) { a.IF = 0.06 }), nil, 0.123456),
				aggCell(with(func(a *Axes) { a.IF = 1e-05 }), nil, 0),
			},
			want: `T
method  IF     n  mean    std
---------------------------------
fedavg  0.06   1  0.1235  0.0000
fedavg  1      1  0.2000  0.0000
fedavg  1e-05  1  0.0000  0.0000
fedwcm  0.06   1  0.6050  0.0000
fedwcm  1      1  0.7100  0.0000
fedwcm  1e-05  1  0.5000  0.0000
`,
		},
		{
			name: "multi seed, shot, beta varies",
			cells: []CellResult{
				aggCell(with(func(a *Axes) { a.Method, a.Beta, a.Seed = "fedcm", 0.6, 1 }), &fl.ShotAcc{Head: 0.9, Medium: 0.5, Tail: 0.1}, 0.5),
				aggCell(with(func(a *Axes) { a.Method, a.Beta, a.Seed = "fedcm", 0.6, 2 }), &fl.ShotAcc{Head: 0.8, Medium: 0.4, Tail: 0.2}, 0.52),
				aggCell(with(func(a *Axes) { a.Method, a.Beta, a.Seed = "fedcm", 0.6, 3 }), &fl.ShotAcc{Head: 0.7, Medium: 0.6, Tail: 0.3}, 0.51),
				aggCell(with(func(a *Axes) { a.Method, a.Beta, a.Seed = "fedcm", 0.1, 1 }), &fl.ShotAcc{Head: 1, Medium: 0, Tail: 0}, 0.3),
				aggCell(with(func(a *Axes) { a.Method, a.Beta, a.Seed = "fedcm", 0.1, 2 }), &fl.ShotAcc{Head: 1, Medium: 0.5, Tail: 0}, 0.1),
				aggCell(with(func(a *Axes) { a.Method, a.Beta, a.Seed = "fedwcm", 0.6, 1 }), &fl.ShotAcc{Head: 0.9, Medium: 0.8, Tail: 0.7}, 0.8),
				aggCell(with(func(a *Axes) { a.Method, a.Beta, a.Seed = "fedwcm", 0.6, 2 }), nil, 0.82),
			},
			want: `multi
method  beta  n  mean    std     head    medium  tail
--------------------------------------------------------
fedcm   0.1   2  0.2000  0.1414  1.0000  0.2500  0.0000
fedcm   0.6   3  0.5100  0.0100  0.8000  0.5000  0.2000
fedwcm  0.6   2  0.8100  0.0141  0.9000  0.8000  0.7000
`,
		},
		{
			name: "clients, sample, epochs sort as strings",
			cells: []CellResult{
				aggCell(with(func(a *Axes) { a.Clients, a.SampleClients, a.LocalEpochs = 9, 5, 1 }), nil, 0.1),
				aggCell(with(func(a *Axes) { a.Clients, a.SampleClients, a.LocalEpochs = 100, 10, 5 }), nil, 0.2),
				aggCell(with(func(a *Axes) { a.Clients, a.SampleClients, a.LocalEpochs = 100, 5, 10 }), nil, 0.3),
				aggCell(with(func(a *Axes) { a.Clients, a.SampleClients, a.LocalEpochs = 10, 5, 1 }), nil, 0.4),
			},
			want: `T
method  clients  sample  epochs  n  mean    std
---------------------------------------------------
fedavg  10       5       1       1  0.4000  0.0000
fedavg  100      10      5       1  0.2000  0.0000
fedavg  100      5       10      1  0.3000  0.0000
fedavg  9        5       1       1  0.1000  0.0000
`,
		},
		{
			name: "scenario varies, shot on some groups only",
			cells: []CellResult{
				aggCell(with(func(a *Axes) { a.Scenario = "churn+drift" }), &fl.ShotAcc{Head: 0.6, Medium: 0.4, Tail: 0.2}, 0.4),
				aggCell(base, nil, 0.5),
			},
			want: `T
method  scenario     n  mean    std     head    medium  tail
---------------------------------------------------------------
fedavg  churn+drift  1  0.4000  0.0000  0.6000  0.4000  0.2000
fedavg  static       1  0.5000  0.0000  -       -       -
`,
		},
		{
			name: "async varies",
			cells: []CellResult{
				aggCell(base, nil, 0.5),
				aggCell(with(func(a *Axes) { a.Async = "eager" }), nil, 0.4),
				aggCell(with(func(a *Axes) { a.Async = "async" }), nil, 0.45),
			},
			want: `T
method  async  n  mean    std
---------------------------------
fedavg  async  1  0.4500  0.0000
fedavg  eager  1  0.4000  0.0000
fedavg  sync   1  0.5000  0.0000
`,
		},
		{
			name: "dataset varies, constant method still a column",
			cells: []CellResult{
				aggCell(with(func(a *Axes) { a.Dataset = "svhn-syn" }), nil, 0.5),
				aggCell(base, nil, 0.25),
				{Cell: Cell{Axes: with(func(a *Axes) { a.Dataset = "fmnist-syn" })}, Status: CellFailed, Err: "boom"},
			},
			want: `T
dataset      method  n  mean    std
---------------------------------------
cifar10-syn  fedavg  1  0.2500  0.0000
svhn-syn     fedavg  1  0.5000  0.0000
`,
		},
		{
			name:  "no groups",
			cells: nil,
			want: `T
method  n  mean  std
---------------------
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			title := strings.SplitN(tc.want, "\n", 2)[0]
			got := NewResult(Spec{}, tc.cells).AggTable(title).String()
			if got != tc.want {
				t.Fatalf("AggTable text changed\n--- got\n%s--- want\n%s", got, tc.want)
			}
		})
	}
}

func TestTableRenderGolden(t *testing.T) {
	cases := []struct {
		name string
		tab  *Table
		want string
	}{
		{
			name: "± cell is the widest in its column",
			tab: &Table{Title: "Table 1", Headers: []string{"method", "IF=1", "IF=0.1"}, Rows: [][]string{
				{"fedavg", "0.5123±0.0045", "0.4"},
				{"fedwcm", "0.6", "0.5000±0.0100"},
			}},
			want: `Table 1
method  IF=1            IF=0.1
---------------------------------------
fedavg  0.5123±0.0045   0.4
fedwcm  0.6             0.5000±0.0100
`,
		},
		{
			name: "± cell narrower than its header",
			tab: &Table{Headers: []string{"a-long-header", "b"}, Rows: [][]string{
				{"1±2", "x"},
				{"plain", "y"},
			}},
			want: `a-long-header  b
-----------------
1±2            x
plain          y
`,
		},
		{
			name: "rows longer and shorter than the headers, trailing blanks trimmed",
			tab: &Table{Title: "ragged", Headers: []string{"a", "b"}, Rows: [][]string{
				{"1", "2", "extra", "more"},
				{"only"},
				{"x", ""},
				{"", ""},
			}},
			want: `ragged
a     b
--------
1     2  extra  more
only
x

`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			tc.tab.Render(&buf)
			if got := buf.String(); got != tc.want {
				t.Fatalf("Render text changed\n--- got\n%s--- want\n%s", got, tc.want)
			}
			if got := tc.tab.String(); got != tc.want {
				t.Fatalf("String and Render disagree:\n%s", got)
			}
		})
	}
}

func TestFGolden(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{0.51234, "0.5123"},
		{0.00005, "0.0001"},
		{0.00004999, "0.0000"},
		{1, "1.0000"},
		{-0.25, "-0.2500"},
		{math.Copysign(0, -1), "-0.0000"},
		{math.NaN(), "NaN"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{1e21, "1000000000000000000000.0000"},
	} {
		if got := F(tc.v); got != tc.want {
			t.Errorf("F(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}
