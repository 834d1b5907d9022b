package main

import (
	"reflect"
	"testing"
)

// The warm_reads generator is a function of the seed alone, its grids are
// pairwise distinct, and every cell of every grid is one setup pre-filled.
func TestWarmSubgridsSeedDeterminism(t *testing.T) {
	const n = 300
	a, b := warmSubgrids(7, n, 0.1), warmSubgrids(7, n, 0.1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different sub-grids")
	}
	if reflect.DeepEqual(a, warmSubgrids(8, n, 0.1)) {
		t.Fatal("different seeds generated the same sub-grids")
	}
	// A longer run of the same seed extends the shorter one: the warm-up
	// takes the tail, so it never repeats a timed grid.
	if long := warmSubgrids(7, n+20, 0.1); !reflect.DeepEqual(a, long[:n]) {
		t.Fatal("a longer permutation does not extend the shorter one")
	}

	w, err := workloadByName("warm_reads")
	if err != nil {
		t.Fatal(err)
	}
	prefilled := make(map[string]bool)
	cells, err := w.prefill(7, fullSizes).Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		prefilled[c.ID] = true
	}
	if len(prefilled) != 140 {
		t.Fatalf("pre-fill expands to %d cells, want 140", len(prefilled))
	}
	seen := make(map[string]bool)
	for i, sp := range a {
		id, err := sp.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("sub-grid %d repeats an earlier one", i)
		}
		seen[id] = true
		cells, err := sp.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) == 0 {
			t.Fatalf("sub-grid %d is empty", i)
		}
		for _, c := range cells {
			if !prefilled[c.ID] {
				t.Fatalf("sub-grid %d has a cell outside the pre-filled blocks: %+v", i, c.Axes)
			}
		}
	}
}

// Every workload generates the same specs for the same seed, and its
// warm-up shares no cell with its timed part.
func TestWorkloadsSeedDeterminism(t *testing.T) {
	for _, w := range workloads() {
		if !reflect.DeepEqual(w.timed(3, smokeSizes), w.timed(3, smokeSizes)) {
			t.Errorf("%s: same seed generated different timed specs", w.name)
		}
		if w.prefill != nil {
			continue // warm_reads: warm-up and timed grids overlap by design (all cached)
		}
		timed := make(map[string]bool)
		for _, sp := range w.timed(3, smokeSizes) {
			cells, err := sp.Expand()
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cells {
				timed[c.ID] = true
			}
		}
		for _, sp := range w.warmup(3, smokeSizes) {
			cells, err := sp.Expand()
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cells {
				if timed[c.ID] {
					t.Errorf("%s: warm-up computes timed cell %+v", w.name, c.Axes)
				}
			}
		}
	}
}
