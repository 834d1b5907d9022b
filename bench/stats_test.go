package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 9}, 5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// A percentile is reportable only with at least ten samples beyond it.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(n - i) // descending: percentile must sort
		}
		return vs
	}
	for _, c := range []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{100, 0.50, 50, true},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false}, // 9 beyond
		{200, 0.95, 190, true},
		{199, 0.95, 190, false}, // 9 beyond
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{5, 0.95, 5, false},
	} {
		got, ok := percentile(ramp(c.n), c.q)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.wantOK)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of nothing must not be reportable")
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{10, 12, 11}); math.Abs(got-2.0/11) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, 2.0/11)
	}
	if got := spread([]float64{0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v, want 0", got)
	}
}

func TestQuietMedian(t *testing.T) {
	// Quiet run: every sample counts.
	quiet := []sample{{10, 0}, {12, 0.01}, {11, 0.02}, {13, 0}}
	if med, kept := quietMedian(quiet); med != 11.5 || kept != 4 {
		t.Fatalf("quiet run: median %v over %d samples, want 11.5 over 4", med, kept)
	}
	// Some disturbed samples: they are set aside.
	mixed := []sample{{10, 0}, {5, 0.2}, {11, 0.01}, {4, 0.3}, {12, 0}, {6, 0.08}, {10.5, 0}, {3, 0.4}}
	if med, kept := quietMedian(mixed); med != 10.75 || kept != 4 {
		t.Fatalf("mixed run: median %v over %d samples, want 10.75 over 4", med, kept)
	}
	// Disturbed throughout: the least-stolen quarter (nearest rank) stands in.
	loud := []sample{{5, 0.2}, {6, 0.1}, {4, 0.3}, {7, 0.05}, {3, 0.4}}
	if med, kept := quietMedian(loud); med != 6.5 || kept != 2 {
		t.Fatalf("disturbed run: median %v over %d samples, want 6.5 over 2", med, kept)
	}
	if med, kept := quietMedian(nil); med != 0 || kept != 0 {
		t.Fatalf("empty: %v, %d", med, kept)
	}
}
