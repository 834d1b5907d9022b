package experiments

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fedwcm/internal/fl"
	"fedwcm/internal/sweep"
)

// cannedHistory is a five-evaluation history derived from a cell's
// fingerprint, so every cell of every grid renders distinct, stable
// numbers. Final accuracies span 0.38–0.80, so some curves cross 0.6 and
// others never do. Each evaluation carries a 10-class PerClass, a shot
// split and the collapse and train_acc probe readings. clocked adds
// virtual time on about half the cells, so time-to-target views print
// both numbers and "-".
func cannedHistory(id string, clocked bool) *fl.History {
	b, err := hex.DecodeString(id)
	if err != nil || len(b) < 32 {
		panic("canned history needs a sha256 fingerprint: " + id)
	}
	u := func(i int) float64 { return float64(b[i]) / 255 }
	base := 0.3 + 0.4*u(0)
	h := &fl.History{Method: "canned"}
	for i := 0; i < 5; i++ {
		st := fl.RoundStat{
			Round:   5 * (i + 1),
			TestAcc: base + 0.02*float64(i) + 0.02*u(1+i),
			Metrics: map[string]float64{
				"concentration": 1 + u(6+i),
				"train_acc":     base + 0.03*float64(i) + 0.01*u(11+i),
			},
			Shot: &fl.ShotAcc{Head: u(16), Medium: u(17), Tail: u(18) * float64(i+1) / 5},
		}
		for l := 1; l <= 3; l++ {
			st.Metrics[fmt.Sprintf("concentration/act%d", l)] = 1 + u(18+l)*float64(l)
		}
		for c := 0; c < 10; c++ {
			st.PerClass = append(st.PerClass, u(22+c)*float64(i+1)/5)
		}
		if clocked && b[31]%2 == 0 {
			st.Time = float64(i+1) * (1 + u(30))
		}
		h.Stats = append(h.Stats, st)
	}
	return h
}

// cannedResult expands e's grid at seed 1, effort 0.05 and gives every cell
// its canned history; fail marks the cells whose axes it returns true for
// as failed instead.
func cannedResult(t *testing.T, e *Experiment, fail func(sweep.Axes) bool) *sweep.Result {
	t.Helper()
	sp := e.grid(Options{Seed: 1, Effort: 0.05}.Defaults())
	cells, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	results := make([]sweep.CellResult, len(cells))
	for i, c := range cells {
		results[i] = sweep.CellResult{Cell: c, Status: sweep.CellComputed}
		if fail != nil && fail(c.Axes) {
			results[i].Status, results[i].Err = sweep.CellFailed, "canned failure"
			continue
		}
		results[i].Hist = cannedHistory(c.ID, len(sp.Async) > 0)
	}
	return sweep.NewResult(sp, results)
}

// render returns what e prints for res.
func render(e *Experiment, res *sweep.Result) string {
	var buf bytes.Buffer
	e.render(&buf, res)
	return buf.String()
}

// TestRenderGolden pins the text every training experiment prints for a
// canned result of its own grid against testdata/render/<id>.txt.
func TestRenderGolden(t *testing.T) {
	n := 0
	for _, e := range All() {
		if e.Run != nil {
			continue
		}
		n++
		t.Run(e.ID, func(t *testing.T) {
			got := render(e, cannedResult(t, e, nil))
			want, err := os.ReadFile(filepath.Join("testdata", "render", e.ID+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("rendered text moved:\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
	if n != 19 {
		t.Errorf("%d training experiments, want 19", n)
	}
}
