package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke is `bench -smoke --trace 1` (one plain lap, one traced lap and
// the probes of every workload at tiny sizes) plus one end-to-end report, so
// tier-1 keeps every workload, the verification and the tracing wrappers
// runnable.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("brings up the whole system four times")
	}
	b := loadBenchmarkJSON(t)
	declaredE2E, declaredLayers := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		declaredE2E[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		declaredLayers[m.Name] = m.Unit
	}
	dir := t.TempDir()
	for _, trace := range []bool{false, true} {
		opt := options{seed: 1, laps: 1, trace: trace, sz: smokeSizes,
			root: dir, outDir: filepath.Join(dir, "out"), logf: t.Logf}
		for _, w := range workloads() {
			if !trace && w.name != "ctl_drain" {
				continue // the traced run below already runs a plain lap of each
			}
			rep, err := runWorkload(opt, w)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			if !trace {
				checkDeclared(t, w.name+" end-to-end", rep, declaredE2E)
				continue
			}
			checkDeclared(t, w.name+" per-layer", rep, declaredLayers)
			if fi, err := os.Stat(filepath.Join(opt.outDir, "trace-"+w.name+".jsonl")); err != nil || fi.Size() == 0 {
				t.Errorf("%s: trace file missing or empty: %v", w.name, err)
			}
		}
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// checkDeclared fails when a report's metrics are not exactly the declared
// ones, unit for unit: the driver refuses a run that prints any other set.
func checkDeclared(t *testing.T, what string, rep report, declared map[string]string) {
	t.Helper()
	for name, unit := range declared {
		if got, ok := rep.Metrics[name]; !ok || got.Unit != unit {
			t.Errorf("%s: BENCHMARK.json declares %s in %q, the run reported %q (present: %v)", what, name, unit, got.Unit, ok)
		}
	}
	for name := range rep.Metrics {
		if _, ok := declared[name]; !ok {
			t.Errorf("%s: the run reported %s, which BENCHMARK.json does not declare", what, name)
		}
	}
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and the program declare the same workloads, end-to-end
// metrics, units, directions and bounds.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := loadBenchmarkJSON(t)
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := b.EndToEnd[i]
		better := "lower"
		if m.higher {
			better = "higher"
		}
		if got.Name != m.name || got.Unit != m.unit || got.Better != better || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, got, m)
		}
	}
}
