package main

import "testing"

func segCells(segs []segment) []int {
	out := make([]int, len(segs))
	for i, g := range segs {
		out[i] = g.cells
	}
	return out
}

func TestMeterSegments(t *testing.T) {
	for _, c := range []struct {
		every, cells int
		want         []int
	}{
		{0, 7, []int{7}},           // unsegmented: the whole timed part
		{4, 12, []int{4, 4, 4}},    // the closing cut has no cells of its own
		{4, 13, []int{4, 4, 5}},    // a short tail joins the segment before it
		{4, 14, []int{4, 4, 4, 2}}, // half a segment stands alone
		{4, 1, []int{1}},
	} {
		m := &meter{every: c.every}
		m.start()
		for i := 0; i < c.cells; i++ {
			m.cell()
		}
		got := segCells(m.finish())
		if len(got) != len(c.want) {
			t.Fatalf("every %d, %d cells: segments %v, want %v", c.every, c.cells, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("every %d, %d cells: segments %v, want %v", c.every, c.cells, got, c.want)
			}
		}
	}
}
