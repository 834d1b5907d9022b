package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"fedwcm/internal/data"
	"fedwcm/internal/fl"
	"fedwcm/internal/store"
	"fedwcm/internal/sweep"
)

func TestRunSpecDefaults(t *testing.T) {
	s := sweep.RunSpec{}.Defaults()
	if s.Dataset == "" || s.Method == "" || s.Partition == "" || s.Clients == 0 || s.Scale == 0 {
		t.Fatalf("defaults not filled: %+v", s)
	}
	s2 := sweep.RunSpec{Dataset: "fmnist-syn", Clients: 7}.Defaults()
	if s2.Dataset != "fmnist-syn" || s2.Clients != 7 {
		t.Fatal("explicit values must be preserved")
	}
}

func TestBuildEnvPartitions(t *testing.T) {
	for _, p := range []string{"equal", "fedgrab"} {
		s := sweep.RunSpec{Partition: p, Scale: 0.1, Cfg: fl.Config{Seed: 3}}.Defaults()
		s.Partition = p
		env, err := s.BuildEnv()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(env.Clients) != s.Clients {
			t.Fatalf("%s: %d clients, want %d", p, len(env.Clients), s.Clients)
		}
	}
	s := sweep.RunSpec{Partition: "nope", Scale: 0.1}.Defaults()
	s.Partition = "nope"
	if _, err := s.BuildEnv(); err == nil {
		t.Fatal("unknown partition must error")
	}
}

func TestBuildEnvUnknownDataset(t *testing.T) {
	s := sweep.RunSpec{Dataset: "nope"}.Defaults()
	if _, err := s.BuildEnv(); err == nil {
		t.Fatal("unknown dataset must error")
	}
}

func TestModelFor(t *testing.T) {
	spec, _ := data.Lookup("cifar10-syn")
	for _, m := range []string{"auto", "linear", "mlp", "mlpbn"} {
		b, err := sweep.ModelFor(spec, m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		net := b(1)
		if net.Classes != spec.Classes || net.InDim != spec.Dim() {
			t.Fatalf("%s: model shape mismatch", m)
		}
	}
	if _, err := sweep.ModelFor(spec, "resnet"); err == nil {
		t.Fatal("resnet on a feature dataset must error")
	}
	img, _ := data.Lookup("svhn-img")
	if _, err := sweep.ModelFor(img, "resnet"); err != nil {
		t.Fatalf("resnet on image dataset: %v", err)
	}
	if _, err := sweep.ModelFor(spec, "alexnet"); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestRunSpecTinyRun(t *testing.T) {
	s := sweep.RunSpec{
		Method: "fedavg",
		Scale:  0.1,
		Cfg:    fl.Config{Rounds: 3, SampleClients: 3, LocalEpochs: 1, BatchSize: 20, Seed: 5, EvalEvery: 3},
	}
	hist, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Stats) == 0 {
		t.Fatal("no evaluations recorded")
	}
}

// TestRunSpecProbes: named probes record their readings into every
// evaluation's Metrics through the ordinary Run path.
func TestRunSpecProbes(t *testing.T) {
	s := sweep.RunSpec{
		Method: "fedavg",
		Scale:  0.1,
		Cfg:    fl.Config{Rounds: 2, SampleClients: 2, LocalEpochs: 1, BatchSize: 20, Seed: 6, EvalEvery: 1},
		Probes: []string{"train_acc", "collapse"},
	}
	hist, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Stats) != 2 {
		t.Fatalf("%d evaluations, want 2", len(hist.Stats))
	}
	for _, key := range []string{"concentration", "concentration/act1", "train_acc"} {
		for _, st := range hist.Stats {
			if _, ok := st.Metrics[key]; !ok {
				t.Fatalf("metric %q missing at round %d, want both evaluations", key, st.Round)
			}
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.Defaults()
	if o.Seed == 0 || o.Effort != 1 || o.CellWorkers == 0 || o.Out == nil {
		t.Fatalf("defaults not filled: %+v", o)
	}
	o2 := Options{Effort: 2}.Defaults()
	if o2.Effort != 1 {
		t.Fatal("effort must clamp to 1")
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every experiment in DESIGN.md's index must be registered.
	want := []string{
		"fig3", "fig4", "table1", "table1-cifar10", "table2", "fig7", "fig8",
		"table3", "fig9", "fig10", "table4", "table5", "fig11", "fig12",
		"fig13", "table6", "fig18", "abl_score", "abl_parts",
	}
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Errorf("experiment %s not registered: %v", id, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id must error")
	}
	if len(All()) != len(IDs()) {
		t.Fatal("All and IDs disagree")
	}
}

// TestRegistryShape: training experiments are sweeps and Run is for the
// experiments that train nothing — exactly fig11 (the partitioner) and
// table6 (the HE protocol). Every declared grid expands and validates at
// benchmark effort.
func TestRegistryShape(t *testing.T) {
	var handRolled []string
	for _, e := range All() {
		if (len(e.Views) == 0) == (e.Run == nil) {
			t.Errorf("%s: must set exactly one of Views and Run", e.ID)
		}
		if e.Run != nil {
			handRolled = append(handRolled, e.ID)
			continue
		}
		sp := e.grid(Options{Seed: 1, Effort: 0.1}.Defaults())
		if _, err := sp.ExpandValidated(); err != nil {
			t.Errorf("%s: grid does not validate: %v", e.ID, err)
		}
	}
	if got := strings.Join(handRolled, ","); got != "fig11,table6" {
		t.Errorf("experiments with a Run: %s; want exactly fig11,table6 (anything that trains is a sweep)", got)
	}
}

// TestDeclaredCellFingerprintsUnchanged pins the cell ids, in order, of
// every declarative experiment at benchmark effort, plus one spelled-out
// Table 1 cell. The three figures whose grids gained probes (fig4, fig13,
// fig18) hash into a digest of their own, recorded later than the first.
func TestDeclaredCellFingerprintsUnchanged(t *testing.T) {
	h, probed := sha256.New(), sha256.New()
	for _, e := range All() {
		if e.Run != nil {
			continue
		}
		cells, err := e.grid(Options{Seed: 1, Effort: 0.1}.Defaults()).Expand()
		if err != nil {
			t.Fatal(err)
		}
		w := h
		if e.ID == "fig4" || e.ID == "fig13" || e.ID == "fig18" {
			w = probed
		}
		for _, c := range cells {
			fmt.Fprintf(w, "%s %s\n", e.ID, c.ID)
		}
		if e.ID == "table1" {
			const first = "076f333dd3fd7ee9e7e25919deb8a5e9404a7ff4767567d883860b8d86758afe" // fmnist-syn/fedavg beta=0.6 IF=1 seed=1
			if len(cells) != 350 || cells[0].ID != first {
				t.Errorf("table1: %d cells, first %s; want 350, %s", len(cells), cells[0].ID, first)
			}
		}
	}
	const want = "35fbb3f6e2ff06215e671fe5a0b3fe1991f5a50577a849565a54eef1c00a4578"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("declared cell ids moved: digest %s, want %s", got, want)
	}
	const wantProbed = "d5550a0d31889b8b98e211b33e45c9ac94f42134a51429616c9bb9e9febcde4c"
	if got := hex.EncodeToString(probed.Sum(nil)); got != wantProbed {
		t.Errorf("fig4, fig13 or fig18 cell ids moved: digest %s, want %s", got, wantProbed)
	}
}

// TestSmallExperimentsEndToEnd runs the cheap experiments at minimum effort
// to ensure every registered pipeline executes, and that re-running a
// declarative experiment against the same store recomputes nothing. Every
// engine runs its cells on a dispatch.Local, so fig4's probed cells ship as
// spec JSON and come back with their readings, like any other cell.
func TestSmallExperimentsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs skipped in -short mode")
	}
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig11", "abl_parts", "fig8", "fig4"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			opt := Options{Seed: 2, Effort: 0.08, CellWorkers: 4, Store: st, Out: &buf}
			if _, err := e.Execute(opt); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("experiment produced no output")
			}
			if e.Run != nil {
				return
			}
			// Second execution: every cell must be a store hit.
			first := buf.String()
			buf.Reset()
			if _, err := e.Execute(opt); err != nil {
				t.Fatal(err)
			}
			second := buf.String()
			if !strings.Contains(second, "0 computed;") {
				t.Fatalf("repeat run recomputed cells:\n%s", second)
			}
			// And the rendered tables must be identical (modulo the sweep
			// status line, which reports cached vs computed).
			if tail(first) != tail(second) {
				t.Fatalf("cached rerun rendered differently:\nfirst:\n%s\nsecond:\n%s", first, second)
			}
		})
	}
}

// TestExecuteOwnsItsBackend: an in-process Execute starts its own
// dispatch.Local over Options.Store and closes it when the grid is done, so
// two runs of a one-cell experiment over one store compute the cell once
// and render the same text. It is the -short cover of that path.
func TestExecuteOwnsItsBackend(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e := &Experiment{
		ID: "one-cell",
		Grid: sweep.Spec{Methods: []string{"fedavg"}, Clients: []int{4}, SampleRates: []float64{0.5},
			LocalEpochs: []int{1}, Model: "linear", Rounds: 8},
		Views: []View{{Title: "one cell", Cols: []string{"method"}}},
	}
	run := func() string {
		t.Helper()
		var buf bytes.Buffer
		if _, err := e.Execute(Options{Effort: 0.01, Store: st, Out: &buf}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first, second := run(), run()
	if !strings.Contains(first, "1 cells — 0 cached, 1 computed") {
		t.Fatalf("first run:\n%s", first)
	}
	if !strings.Contains(second, "1 cells — 1 cached, 0 computed") {
		t.Fatalf("second run:\n%s", second)
	}
	if tail(first) == "" || tail(first) != tail(second) {
		t.Fatalf("cached rerun rendered differently:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}

// TestProbedFiguresShareTheStore is the path a closure could never take:
// fig4's probed cells are content-addressed, so a rerun is all store hits,
// and fig13 — whose two FedCM cells are fig4's IF=1 and IF=0.1 cells —
// computes only the other four of its six.
func TestProbedFiguresShareTheStore(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs skipped in -short mode")
	}
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	status := func(id string) string {
		t.Helper()
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := e.Execute(Options{Seed: 3, Effort: 0.05, Store: st, Out: &buf}); err != nil {
			t.Fatal(err)
		}
		line, rest, _ := strings.Cut(buf.String(), "\n")
		if !strings.Contains(rest, "1.") { // concentration is ≥ 1 by construction
			t.Fatalf("%s rendered no concentration series:\n%s", id, rest)
		}
		return line
	}
	for _, step := range []struct{ id, want string }{
		{"fig4", "6 cells — 0 cached, 6 computed"},
		{"fig4", "6 cells — 6 cached, 0 computed"},
		{"fig13", "6 cells — 2 cached, 4 computed"},
	} {
		if got := status(step.id); !strings.Contains(got, step.want) {
			t.Fatalf("%s: %q, want %q", step.id, got, step.want)
		}
	}
}

// tail strips the leading "[sweep ...]" status line.
func tail(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 && strings.HasPrefix(s, "[sweep ") {
		return s[i+1:]
	}
	return s
}
