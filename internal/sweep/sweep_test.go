package sweep

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fedwcm/internal/fl"
	"fedwcm/internal/store"
)

func TestSpecDefaults(t *testing.T) {
	sp := Spec{}.Defaults()
	if len(sp.Datasets) != 1 || len(sp.Methods) != 1 || len(sp.Betas) != 1 ||
		len(sp.IFs) != 1 || len(sp.Seeds) != 1 {
		t.Fatalf("defaults not filled: %+v", sp)
	}
	if sp.Partition != "equal" || sp.Model != "auto" || sp.Effort != 1 {
		t.Fatalf("defaults not filled: %+v", sp)
	}
	seeds := Spec{SeedBase: 5, SeedCount: 3}.Defaults().Seeds
	if len(seeds) != 3 || seeds[0] != 5 || seeds[2] != 7 {
		t.Fatalf("seed range expansion: %v", seeds)
	}
}

func TestExpandCrossProductAndAxes(t *testing.T) {
	sp := Spec{
		Methods:     []string{"fedavg", "fedwcm"},
		IFs:         []float64{1, 0.1},
		Seeds:       []uint64{1, 2},
		SampleRates: []float64{0.2},
		LocalEpochs: []int{2},
		Effort:      0.1,
	}
	cells, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("expanded %d cells, want 8", len(cells))
	}
	for _, c := range cells {
		// cifar10-syn preset: 100 clients → 20% participation = 20.
		if c.Axes.Clients != 100 || c.Axes.SampleClients != 20 || c.Axes.LocalEpochs != 2 {
			t.Fatalf("axes not resolved against preset: %+v", c.Axes)
		}
		if c.Spec.Cfg.SampleClients != 20 || c.Spec.Cfg.LocalEpochs != 2 {
			t.Fatalf("spec overrides not applied: %+v", c.Spec.Cfg)
		}
		if err := c.Spec.Validate(); err != nil {
			t.Fatalf("expanded cell invalid: %v", err)
		}
	}
}

// TestExpandDedupsEquivalentCoordinates: a listed override equal to the
// preset value collapses with the no-override coordinate grid-wide.
func TestExpandDedupsEquivalentCoordinates(t *testing.T) {
	// cifar10-syn preset has 100 clients; listing 100 explicitly must not
	// produce different fingerprints than an unlisted Clients axis.
	a, err := Spec{Clients: []int{100}, Effort: 0.1}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Spec{Effort: 0.1}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 1 || len(b) != 1 || a[0].ID != b[0].ID {
		t.Fatalf("preset-equal override changed the fingerprint: %v vs %v", a[0].ID, b[0].ID)
	}
	// And duplicated axis values dedup within one grid.
	c, err := Spec{Methods: []string{"fedwcm", "fedwcm"}, Effort: 0.1}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 1 {
		t.Fatalf("duplicate axis values not deduplicated: %d cells", len(c))
	}
}

func TestValidateRejectsBadGrids(t *testing.T) {
	for _, sp := range []Spec{
		{Methods: []string{"nope"}},
		{Datasets: []string{"nope"}},
		{IFs: []float64{2}},
		{Partition: "nope"},
		{SeedCount: MaxCells + 1},
		// Non-positive entries in the optional axes would silently resolve
		// to the preset instead of what the caller asked for.
		{Clients: []int{-5}},
		{SampleRates: []float64{-0.1}},
		{SampleRates: []float64{1.5}},
		{LocalEpochs: []int{0}},
	} {
		if _, err := sp.ExpandValidated(); err == nil {
			t.Errorf("grid %+v must not validate", sp)
		}
	}
	if _, err := (Spec{Effort: 0.1}).ExpandValidated(); err != nil {
		t.Fatalf("zero grid must validate: %v", err)
	}
}

// TestOverflowingAxisProductRejected: axis lengths whose product wraps a
// 64-bit int must still fail the cell bound (and fail fast, before any
// cross-product work).
func TestOverflowingAxisProductRejected(t *testing.T) {
	big := make([]float64, 65536)
	for i := range big {
		big[i] = 0.0001 * float64(i+1)
	}
	bigInts := make([]int, 65536)
	for i := range bigInts {
		bigInts[i] = i + 1
	}
	sp := Spec{Betas: big, IFs: big, SampleRates: big, LocalEpochs: bigInts} // 65536^4 wraps to 0
	done := make(chan error, 1)
	go func() {
		_, err := sp.ExpandValidated()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("overflowing grid must not validate")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("validation did not fail fast — the guard was bypassed into expansion")
	}
}

// TestExpandCanonicalizesResolvedCells: an overridden client count below
// the preset's participation clamps the sample (matching what the engine
// actually runs), and axes report defaults-applied values so renderer
// probes match.
func TestExpandCanonicalizesResolvedCells(t *testing.T) {
	cells, err := Spec{Clients: []int{5}, Effort: 0.1}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Axes.SampleClients != 5 || cells[0].Spec.Cfg.SampleClients != 5 {
		t.Fatalf("preset sample not clamped to overridden clients: %+v", cells[0].Axes)
	}
	// The clamped cell must share its fingerprint with the spec that names
	// the clamp explicitly — same computation, one cache entry.
	explicit := cells[0].Spec
	explicit.Cfg.SampleClients = 5
	if fp, _ := explicit.Fingerprint(); fp != cells[0].ID {
		t.Fatal("clamped cell cached under a different fingerprint than its explicit twin")
	}
	// A listed zero means the default, and the axes must say so.
	zeroBeta, err := Spec{Betas: []float64{0}, Effort: 0.1}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if zeroBeta[0].Axes.Beta != 0.1 {
		t.Fatalf("axes carry unresolved beta: %+v", zeroBeta[0].Axes)
	}
	dflt, err := Spec{Effort: 0.1}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if zeroBeta[0].ID != dflt[0].ID {
		t.Fatal("beta 0 and defaulted beta expand to different cells")
	}
}

// TestHugeSeedCountRejectedCheaply: a tiny request naming billions of
// seeds must fail the cell bound without materialising the seed list (the
// allocation, not the rejection, is the hazard for a serving deployment).
func TestHugeSeedCountRejectedCheaply(t *testing.T) {
	sp := Spec{SeedCount: 2_000_000_000}
	if _, err := sp.ExpandValidated(); err == nil {
		t.Fatal("huge seed_count must not validate")
	}
	if got := len(sp.Defaults().Seeds); got > MaxCells+1 {
		t.Fatalf("Defaults materialised %d seeds; must clamp near MaxCells", got)
	}
}

// cannedRunner returns a fixed-shape history and counts executions.
func cannedRunner(execs *atomic.Int64) Runner {
	return func(_ context.Context, spec RunSpec, onRound func(fl.RoundStat)) (*fl.History, error) {
		execs.Add(1)
		acc := 0.5
		if spec.Method == "fedwcm" {
			acc = 0.7
		}
		// Two eval points so TailMeanAcc and curves have shape; vary by seed
		// so std is non-zero.
		jitter := float64(spec.Cfg.Seed) / 100
		return &fl.History{Method: spec.Method, Stats: []fl.RoundStat{
			{Round: 1, TestAcc: acc - 0.1 + jitter, PerClass: []float64{acc, acc / 2}},
			{Round: 2, TestAcc: acc + jitter, PerClass: []float64{acc, acc / 2}},
		}}, nil
	}
}

// TestEngineOverlappingSweepsRecomputeOnlyMisses is the acceptance path:
// the second grid re-executes only the cells the first one didn't cover.
func TestEngineOverlappingSweepsRecomputeOnlyMisses(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	eng := &Engine{Store: st, Workers: 4, Runner: cannedRunner(&execs)}

	first := Spec{Methods: []string{"fedavg", "fedwcm"}, IFs: []float64{1, 0.1}, Effort: 0.1}
	res1, err := eng.RunSweep(first)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Computed != 4 || res1.Cached != 0 {
		t.Fatalf("first sweep: %d computed %d cached, want 4/0", res1.Computed, res1.Cached)
	}

	// Overlap: shares (fedavg, 1), (fedavg, 0.1), (fedwcm, 1), (fedwcm, 0.1)
	// is the full first grid; add one new IF per method → 2 misses.
	second := Spec{Methods: []string{"fedavg", "fedwcm"}, IFs: []float64{1, 0.1, 0.05}, Effort: 0.1}
	res2, err := eng.RunSweep(second)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cached != 4 || res2.Computed != 2 {
		t.Fatalf("second sweep: %d cached %d computed, want 4 cached 2 computed", res2.Cached, res2.Computed)
	}
	if got := execs.Load(); got != 6 {
		t.Fatalf("runner executed %d times, want 6 (union of distinct cells)", got)
	}

	// A verbatim repeat is all hits, zero executions.
	res3, err := eng.RunSweep(second)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Cached != 6 || res3.Computed != 0 || execs.Load() != 6 {
		t.Fatalf("repeat sweep recomputed: %d cached %d computed, %d execs", res3.Cached, res3.Computed, execs.Load())
	}
}

func TestEngineWithoutStore(t *testing.T) {
	var execs atomic.Int64
	eng := &Engine{Workers: 2, Runner: cannedRunner(&execs)}
	res, err := eng.RunSweep(Spec{Methods: []string{"fedavg"}, Effort: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Computed != 1 || execs.Load() != 1 {
		t.Fatalf("storeless sweep: %+v", res)
	}
}

func TestEngineReportsFailures(t *testing.T) {
	eng := &Engine{Workers: 2, Runner: func(_ context.Context, spec RunSpec, _ func(fl.RoundStat)) (*fl.History, error) {
		if spec.Method == "fedcm" {
			return nil, fmt.Errorf("diverged")
		}
		var n atomic.Int64
		return cannedRunner(&n)(context.Background(), spec, nil)
	}}
	res, err := eng.RunSweep(Spec{Methods: []string{"fedavg", "fedcm"}, Effort: 0.1})
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("expected failure error, got %v", err)
	}
	if res == nil || res.Failed != 1 || res.Computed != 1 {
		t.Fatalf("partial result: %+v", res)
	}
	// The surviving cell still aggregates.
	if g := res.Find(Axes{Method: "fedavg"}); g == nil {
		t.Fatal("surviving cell missing from groups")
	}
	if g := res.Find(Axes{Method: "fedcm"}); g != nil {
		t.Fatal("failed cell must not aggregate")
	}
}

// TestAggregationMeanStd: cells differing only in seed collapse into one
// group with sample statistics over TailMeanAcc.
func TestAggregationMeanStd(t *testing.T) {
	var execs atomic.Int64
	eng := &Engine{Workers: 4, Runner: cannedRunner(&execs)}
	res, err := eng.RunSweep(Spec{Methods: []string{"fedavg", "fedwcm"}, Seeds: []uint64{1, 2, 3}, Effort: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("%d groups, want 2", len(res.Groups))
	}
	g := res.Find(Axes{Method: "fedwcm"})
	if g == nil || g.N != 3 {
		t.Fatalf("fedwcm group: %+v", g)
	}
	// Canned accs for fedwcm: tail-mean over both points per seed s is
	// 0.65 + s/100 → mean 0.67, sample std of {0.66,0.67,0.68} = 0.01.
	if diff := g.Mean - 0.67; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("mean %v, want 0.67", g.Mean)
	}
	if diff := g.Std - 0.01; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("std %v, want 0.01", g.Std)
	}
	if len(g.Hists) != 3 {
		t.Fatalf("group keeps %d histories, want one per seed", len(g.Hists))
	}
}

func TestAggTableRendersVaryingAxes(t *testing.T) {
	var execs atomic.Int64
	eng := &Engine{Workers: 4, Runner: cannedRunner(&execs)}
	res, err := eng.RunSweep(Spec{Methods: []string{"fedavg", "fedwcm"}, IFs: []float64{1, 0.1}, Effort: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.AggTable("T").Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "method") || !strings.Contains(out, "IF") {
		t.Fatalf("varying axes missing from table:\n%s", out)
	}
	if strings.Contains(out, "dataset") {
		t.Fatalf("constant axis rendered as column:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 2+4 { // title, header+rule is 2 lines... recount below
		// title + header + rule + 4 rows = 7 lines
		if n := len(strings.Split(strings.TrimSpace(out), "\n")); n != 7 {
			t.Fatalf("unexpected table shape (%d lines):\n%s", n, out)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Headers: []string{"a", "bbbb"}}
	tab.AddRow("xx", "1")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "bbbb") || !strings.Contains(out, "xx") {
		t.Fatalf("render output:\n%s", out)
	}
	if tab.String() != out {
		t.Fatal("String and Render disagree")
	}
}

func TestScaleHelpers(t *testing.T) {
	if ScaleRounds(100, 0.5) != 50 {
		t.Fatal("ScaleRounds")
	}
	if ScaleRounds(10, 0.01) != 8 {
		t.Fatal("ScaleRounds floor")
	}
	if ScaleData(5, 0.5) != 2.5 {
		t.Fatal("ScaleData")
	}
	if ScaleData(1, 0.01) != 0.08 {
		t.Fatal("ScaleData floor")
	}
	if SampleFor(100, 0.05) != 5 || SampleFor(10, 0.01) != 1 {
		t.Fatal("SampleFor")
	}
}
