package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestReseed(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("reseed mismatch at %d: %d vs %d", i, got, first[i])
		}
	}
}

func TestDeriveSeedDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for r := uint64(0); r < 50; r++ {
		for c := uint64(0); c < 50; c++ {
			s := DeriveSeed(99, r, c)
			if seen[s] {
				t.Fatalf("DeriveSeed collision at round=%d client=%d", r, c)
			}
			seen[s] = true
		}
	}
}

func TestDeriveSeedOrderSensitive(t *testing.T) {
	if DeriveSeed(1, 2) == DeriveSeed(2, 1) {
		t.Fatal("DeriveSeed should be order sensitive")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n < 40; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d far from expected %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance %v too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for n := 0; n < 50; n++ {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		r.ShuffleInts(p)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("ShuffleInts of %d elements invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		m := int(n%64) + 1
		r := New(seed)
		s := make([]int, m)
		for i := range s {
			s[i] = i * 3
		}
		r.ShuffleInts(s)
		// multiset preserved
		sum := 0
		for _, v := range s {
			sum += v
		}
		return sum == 3*m*(m-1)/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSplitStreamsIndependent: streams split off one seed by tag, the way
// per-goroutine generators are derived, are uncorrelated.
func TestSplitStreamsIndependent(t *testing.T) {
	a := New(DeriveSeed(23, 1))
	b := New(DeriveSeed(23, 2))
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams correlated: %d/100 equal", same)
	}
}
