package sweep

import (
	"strings"
	"testing"

	"fedwcm/internal/fl"
)

// TestScenarioAxisExpansion: the scenarios axis multiplies the grid, static
// cells keep their pre-scenario fingerprints (so existing store artifacts
// stay hits), and dynamic cells get distinct addresses.
func TestScenarioAxisExpansion(t *testing.T) {
	base := Spec{Methods: []string{"fedavg"}, Effort: 0.1}
	withAxis := base
	withAxis.Scenarios = []string{"static", "churn+drift"}

	baseCells, err := base.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := withAxis.ExpandValidated()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*len(baseCells) {
		t.Fatalf("axis of 2 scenarios should double the grid: %d vs %d", len(cells), len(baseCells))
	}
	baseFPs := map[string]bool{}
	for _, c := range baseCells {
		baseFPs[c.ID] = true
	}
	static, dynamic := 0, 0
	for _, c := range cells {
		switch c.Axes.Scenario {
		case "":
			static++
			if !baseFPs[c.ID] {
				t.Fatalf("static cell %s does not match the pre-scenario fingerprint", c.ID)
			}
			if c.Spec.Cfg.Scenario != nil {
				t.Fatal("static cell must carry no scenario")
			}
		case "churn+drift":
			dynamic++
			if baseFPs[c.ID] {
				t.Fatal("scenario cell collides with a static fingerprint")
			}
			if c.Spec.Cfg.Scenario == nil {
				t.Fatal("dynamic cell lost its resolved scenario")
			}
		default:
			t.Fatalf("unexpected scenario axis value %q", c.Axes.Scenario)
		}
	}
	if static != len(baseCells) || dynamic != len(baseCells) {
		t.Fatalf("static=%d dynamic=%d, want %d each", static, dynamic, len(baseCells))
	}
}

// TestScenarioAxisCanonicalises: a scenarios axis that only spells out the
// static default must not change the sweep fingerprint, and "static" / ""
// are the same name.
func TestScenarioAxisCanonicalises(t *testing.T) {
	fpPlain, err := Spec{Methods: []string{"fedavg"}}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	for _, names := range [][]string{{"static"}, {""}, {"static", ""}} {
		fp, err := Spec{Methods: []string{"fedavg"}, Scenarios: names}.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp != fpPlain {
			t.Fatalf("scenarios axis %v must canonicalise away", names)
		}
	}
	fpDyn, err := Spec{Methods: []string{"fedavg"}, Scenarios: []string{"churn"}}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpDyn == fpPlain {
		t.Fatal("a dynamic scenarios axis must change the sweep fingerprint")
	}
	fpAlias, err := Spec{Methods: []string{"fedavg"}, Scenarios: []string{"static", "churn"}}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpAlias2, err := Spec{Methods: []string{"fedavg"}, Scenarios: []string{"", "churn"}}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpAlias != fpAlias2 {
		t.Fatal(`"static" and "" must canonicalise to the same axis value`)
	}
}

// TestScenarioAxisRejectsUnknownNames: a typo'd scenario must fail
// validation, not silently run static.
func TestScenarioAxisRejectsUnknownNames(t *testing.T) {
	sp := Spec{Scenarios: []string{"chrun"}}
	if _, err := sp.ExpandValidated(); err == nil {
		t.Fatal("unknown scenario name must fail validation")
	}
	if _, err := sp.Expand(); err == nil {
		t.Fatal("unknown scenario name must fail expansion")
	}
}

// TestScenarioGroupsAndShotColumns: groups split by scenario, Find resolves
// them (including the explicit "static" probe), and the aggregate table
// renders scenario and head/medium/tail columns when shot data exists.
func TestScenarioGroupsAndShotColumns(t *testing.T) {
	sp := Spec{Methods: []string{"fedavg"}, Scenarios: []string{"static", "stragglers"}, Effort: 0.1}
	cells, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	results := make([]CellResult, len(cells))
	for i, c := range cells {
		h := &fl.History{Method: "fedavg", Stats: []fl.RoundStat{{
			Round: 8, TestAcc: 0.5, Shot: &fl.ShotAcc{Head: 0.8, Medium: 0.5, Tail: 0.2},
		}}}
		results[i] = CellResult{Cell: c, Status: CellComputed, Hist: h}
	}
	res := NewResult(sp, results)
	if len(res.Groups) != 2 {
		t.Fatalf("expected one group per scenario, got %d", len(res.Groups))
	}
	gStatic := res.Find(Axes{Scenario: "static"})
	if gStatic == nil || gStatic.Axes.Scenario != "" {
		t.Fatalf("explicit static probe failed: %+v", gStatic)
	}
	gDyn := res.Find(Axes{Scenario: "stragglers"})
	if gDyn == nil || gDyn.Axes.Scenario != "stragglers" {
		t.Fatalf("stragglers probe failed: %+v", gDyn)
	}
	if gDyn.Shot == nil || gDyn.Shot.Head != 0.8 || gDyn.Shot.Tail != 0.2 {
		t.Fatalf("group shot aggregation wrong: %+v", gDyn.Shot)
	}
	table := res.AggTable("t").String()
	for _, col := range []string{"scenario", "head", "medium", "tail", "stragglers", "static"} {
		if !strings.Contains(table, col) {
			t.Fatalf("aggregate table missing %q:\n%s", col, table)
		}
	}
}
