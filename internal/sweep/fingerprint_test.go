package sweep

import (
	"encoding/json"
	"sync"
	"testing"

	"fedwcm/internal/fl"
)

func fpOf(t *testing.T, s RunSpec) string {
	t.Helper()
	fp, err := s.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestFingerprintFieldOrderIndependence: the canonical encoding re-marshals
// from the struct, so the field order of incoming JSON cannot change the
// content address.
func TestFingerprintFieldOrderIndependence(t *testing.T) {
	docs := []string{
		`{"dataset":"cifar10-syn","method":"fedavg","beta":0.5,"cfg":{"rounds":20,"seed":3}}`,
		`{"cfg":{"seed":3,"rounds":20},"beta":0.5,"method":"fedavg","dataset":"cifar10-syn"}`,
	}
	var fps []string
	for _, doc := range docs {
		var s RunSpec
		if err := json.Unmarshal([]byte(doc), &s); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fpOf(t, s))
	}
	if fps[0] != fps[1] {
		t.Fatalf("field order changed the fingerprint: %s vs %s", fps[0], fps[1])
	}
}

// TestFingerprintCanonicalisesDefaults: a zero field and its spelled-out
// default are the same cell.
func TestFingerprintCanonicalisesDefaults(t *testing.T) {
	empty := fpOf(t, RunSpec{})
	spelled := fpOf(t, RunSpec{}.Defaults())
	if empty != spelled {
		t.Fatal("zero spec and spelled-out defaults must share a fingerprint")
	}
	// Partially-defaulted: only one field spelled out, still the default.
	partial := fpOf(t, RunSpec{Method: "fedwcm"})
	if partial != empty {
		t.Fatal("spelled-out default method must not change the fingerprint")
	}
	other := fpOf(t, RunSpec{Method: "fedavg"})
	if other == empty {
		t.Fatal("different specs must not collide")
	}
}

// TestFingerprintExcludesWorkers: Workers changes scheduling, never the
// result (fl.Run is deterministic for any worker count), so it must not
// split the cache.
func TestFingerprintExcludesWorkers(t *testing.T) {
	w1 := fpOf(t, RunSpec{Cfg: fl.Config{Workers: 1}})
	w4 := fpOf(t, RunSpec{Cfg: fl.Config{Workers: 4}})
	if w1 != w4 {
		t.Fatal("Workers must not affect the fingerprint")
	}
	w0 := fpOf(t, RunSpec{})
	if w1 != w0 {
		t.Fatal("explicit and defaulted Workers must agree")
	}
}

// TestProbesCanonicalise: probes are part of a cell's identity, but an empty
// list is no probes at all — nil, [] and an absent key produce the bytes and
// the fingerprint the spec had before the field existed — and order and
// repeats never split the cache.
func TestProbesCanonicalise(t *testing.T) {
	// Recorded on the parent commit, where RunSpec had no Probes field.
	const preProbes = "ed23c2f4a1d9a1790b467a61c8b237d871a7d80194524ebe7635a1b5355a866e"
	base := goldenSpec("fedcm")
	want, err := base.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if fp := fpOf(t, base); fp != preProbes {
		t.Fatalf("probe-less fingerprint moved: %s, want %s", fp, preProbes)
	}
	for name, probes := range map[string]string{"absent": "", "null": `,"probes":null`, "empty": `,"probes":[]`} {
		var s RunSpec
		doc := string(want[:len(want)-1]) + probes + "}" // the canonical object plus one trailing key
		if err := json.Unmarshal([]byte(doc), &s); err != nil {
			t.Fatal(err)
		}
		got, err := s.CanonicalJSON()
		if err != nil || string(got) != string(want) {
			t.Fatalf("%s probes changed the canonical bytes (%v):\n got  %s\n want %s", name, err, got, want)
		}
	}
	empty := base
	empty.Probes = []string{}
	if fpOf(t, empty) != preProbes {
		t.Fatal("an empty probe list must fingerprint like none")
	}

	a, b := base, base
	a.Probes = []string{"train_acc", "collapse", "collapse"}
	b.Probes = []string{"collapse", "train_acc"}
	if fpOf(t, a) != fpOf(t, b) {
		t.Fatal("probe order and repeats must not change the fingerprint")
	}
	if fpOf(t, a) == preProbes {
		t.Fatal("probes are part of the identity: a probed spec must not collide with the bare one")
	}
	if got := a.Defaults().Probes; len(got) != 2 || got[0] != "collapse" || got[1] != "train_acc" {
		t.Fatalf("canonical probe list = %v", got)
	}
	if a.Probes[0] != "train_acc" {
		t.Fatalf("Defaults sorted the caller's slice in place: %v", a.Probes)
	}

	if err := b.Validate(); err != nil {
		t.Fatalf("known probes must validate: %v", err)
	}
	b.Probes = []string{"collapse", "gradient_noise"}
	if err := b.Validate(); err == nil {
		t.Fatal("unknown probe name must fail validation")
	}
	if _, err := (Spec{Probes: []string{"gradient_noise"}, Effort: 0.1}).ExpandValidated(); err == nil {
		t.Fatal("unknown probe name must fail sweep validation")
	}
}

// TestGridProbesAreSharedNotSorted: every cell of a grid receives the Spec's
// one probe slice, and cells are defaulted and fingerprinted concurrently by
// the engine — so canonicalisation must copy, never sort in place (run under
// -race). The grid mirror canonicalises exactly like the cell field.
func TestGridProbesAreSharedNotSorted(t *testing.T) {
	shared := []string{"train_acc", "collapse"}
	sp := Spec{Methods: []string{"fedavg", "fedcm"}, Probes: shared, Effort: 0.1}
	cells, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, c := range cells {
		spec := c.Spec
		spec.Probes = shared // the un-canonicalised slice, as a hand-built grid would share it
		wg.Add(1)
		go func() {
			defer wg.Done()
			if fp := fpOf(t, spec); fp != c.ID {
				t.Errorf("cell %s re-fingerprints as %s", c.ID, fp)
			}
		}()
	}
	wg.Wait()
	if shared[0] != "train_acc" {
		t.Fatalf("the shared slice was reordered: %v", shared)
	}
	swapped, _ := Spec{Methods: sp.Methods, Probes: []string{"collapse", "train_acc", "collapse"}, Effort: 0.1}.Fingerprint()
	if id, _ := sp.Fingerprint(); id != swapped {
		t.Fatal("sweep ids must ignore probe order and repeats")
	}
	bare, _ := Spec{Methods: sp.Methods, Effort: 0.1}.Fingerprint()
	none, _ := Spec{Methods: sp.Methods, Probes: []string{}, Effort: 0.1}.Fingerprint()
	if bare != none || bare == swapped {
		t.Fatalf("empty grid probes must canonicalise away (and real ones must not): %s %s %s", bare, none, swapped)
	}
	// Pre-probe sweep id, recorded on the parent commit.
	old, _ := Spec{Datasets: []string{"cifar10-syn"}, Methods: []string{"fedwcm"}, Betas: []float64{0.1}, IFs: []float64{0.1}, Seeds: []uint64{1}, Effort: 0.1}.Fingerprint()
	if old != "ffc179ef9841a6a500c3980f27edca5f00ad284c32297ff39f8ed13dc0a28e2d" {
		t.Fatalf("probe-less sweep id moved: %s", old)
	}
}

// TestOverlappingSweepsShareCellFingerprints: the acceptance property that
// makes O(miss) recompute work — two grids that intersect expand the shared
// coordinates to identical fingerprints.
func TestOverlappingSweepsShareCellFingerprints(t *testing.T) {
	a := Spec{Methods: []string{"fedavg", "fedwcm"}, IFs: []float64{1, 0.1}, Effort: 0.1}
	b := Spec{Methods: []string{"fedwcm", "fedcm"}, IFs: []float64{0.1, 0.05}, Effort: 0.1}
	cellsA, err := a.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cellsB, err := b.Expand()
	if err != nil {
		t.Fatal(err)
	}
	fpsA := map[string]Axes{}
	for _, c := range cellsA {
		fpsA[c.ID] = c.Axes
	}
	shared := 0
	for _, c := range cellsB {
		if ax, ok := fpsA[c.ID]; ok {
			shared++
			if ax != c.Axes {
				t.Fatalf("shared fingerprint %s with different axes: %+v vs %+v", c.ID, ax, c.Axes)
			}
			if ax.Method != "fedwcm" || ax.IF != 0.1 {
				t.Fatalf("unexpected shared cell %+v", ax)
			}
		}
	}
	// Exactly the (fedwcm, IF=0.1) coordinate is common to both grids.
	if shared != 1 {
		t.Fatalf("expected exactly 1 shared cell, got %d", shared)
	}
}

// TestSweepFingerprintCanonicalises: sweep ids ignore labelling and
// seed-range spelling, but track the grid itself.
func TestSweepFingerprintCanonicalises(t *testing.T) {
	spellings := []Spec{
		{Name: "pretty name", Seeds: []uint64{1, 2, 3}},
		{SeedCount: 3},
		{SeedBase: 1, SeedCount: 3},
	}
	var fps []string
	for _, sp := range spellings {
		fp, err := sp.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp)
	}
	if fps[0] != fps[1] || fps[1] != fps[2] {
		t.Fatalf("equivalent grids fingerprint differently: %v", fps)
	}
	other, _ := Spec{SeedCount: 4}.Fingerprint()
	if other == fps[0] {
		t.Fatal("different grids must not collide")
	}
}
