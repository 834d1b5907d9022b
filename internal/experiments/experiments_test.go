package experiments

import (
	"bytes"
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

func TestRunSpecModHook(t *testing.T) {
	called := false
	s := sweep.RunSpec{
		Method: "fedavg",
		Scale:  0.1,
		Cfg:    fl.Config{Rounds: 2, SampleClients: 2, LocalEpochs: 1, BatchSize: 20, Seed: 6, EvalEvery: 2},
		Mod:    func(env *fl.Env) { called = true },
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("Mod hook not invoked")
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

// TestRegistryShape: every registered experiment is exactly one of
// declarative (Sweep+Render) or hand-rolled (Run), and every declared grid
// expands and validates at benchmark effort.
func TestRegistryShape(t *testing.T) {
	for _, e := range All() {
		if (e.Sweep == nil) == (e.Run == nil) {
			t.Errorf("%s: must set exactly one of Sweep and Run", e.ID)
		}
		if e.Sweep == nil {
			continue
		}
		if e.Render == nil {
			t.Errorf("%s: sweep without renderer", e.ID)
		}
		sp := e.Sweep(Options{Seed: 1, Effort: 0.1}.Defaults())
		if err := sp.Validate(); err != nil {
			t.Errorf("%s: grid does not validate: %v", e.ID, err)
		}
	}
}

// TestSmallExperimentsEndToEnd runs the cheap experiments at minimum effort
// to ensure every registered pipeline executes, and that re-running a
// declarative experiment against the same store recomputes nothing.
func TestSmallExperimentsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs skipped in -short mode")
	}
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig11", "abl_parts", "fig8"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			opt := Options{Seed: 2, Effort: 0.08, CellWorkers: 4, Store: st, Out: &buf}
			if err := e.Execute(opt); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("experiment produced no output")
			}
			if e.Sweep == nil {
				return
			}
			// Second execution: every cell must be a store hit.
			first := buf.String()
			buf.Reset()
			if err := e.Execute(opt); err != nil {
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

// tail strips the leading "[sweep ...]" status line.
func tail(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 && strings.HasPrefix(s, "[sweep ") {
		return s[i+1:]
	}
	return s
}
