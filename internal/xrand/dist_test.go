package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGammaMoments(t *testing.T) {
	r := New(101)
	for _, shape := range []float64{0.3, 0.5, 1, 2, 5.5} {
		const n = 60000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := r.Gamma(shape)
			if v < 0 {
				t.Fatalf("Gamma(%v) produced negative %v", shape, v)
			}
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-shape) > 0.08*math.Max(1, shape) {
			t.Errorf("Gamma(%v) mean %v, want ~%v", shape, mean, shape)
		}
		if math.Abs(variance-shape) > 0.15*math.Max(1, shape) {
			t.Errorf("Gamma(%v) variance %v, want ~%v", shape, variance, shape)
		}
	}
}

func TestGammaPanicsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Gamma(0) should panic")
		}
	}()
	New(1).Gamma(0)
}

func TestDirichletSimplex(t *testing.T) {
	f := func(seed uint64, dimRaw uint8, alphaRaw uint8) bool {
		dim := int(dimRaw%20) + 1
		alpha := 0.05 + float64(alphaRaw%100)/10
		p := New(seed).Dirichlet(alpha, dim)
		if len(p) != dim {
			return false
		}
		sum := 0.0
		for _, v := range p {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDirichletConcentration(t *testing.T) {
	// Small alpha should produce spikier vectors (higher max component)
	// than large alpha, on average. This is the knob the paper's Dir(beta)
	// partition relies on.
	r := New(7)
	avgMax := func(alpha float64) float64 {
		total := 0.0
		const trials = 2000
		for i := 0; i < trials; i++ {
			p := r.Dirichlet(alpha, 10)
			m := 0.0
			for _, v := range p {
				if v > m {
					m = v
				}
			}
			total += m
		}
		return total / trials
	}
	spiky := avgMax(0.1)
	flat := avgMax(10)
	if spiky <= flat+0.2 {
		t.Fatalf("Dirichlet(0.1) avg max %v should be much larger than Dirichlet(10) %v", spiky, flat)
	}
}

func TestCategoricalRespectsWeights(t *testing.T) {
	r := New(31)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 60000
	for i := 0; i < n; i++ {
		counts[r.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight category drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Errorf("weight ratio %v, want ~3", ratio)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(37)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(60)
		k := r.Intn(n + 1)
		s := r.SampleWithoutReplacement(n, k)
		if len(s) != k {
			t.Fatalf("got %d samples, want %d", len(s), k)
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("invalid sample %v from [0,%d)", s, n)
			}
			seen[v] = true
		}
	}
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	r := New(41)
	counts := make([]int, 10)
	const trials = 30000
	for i := 0; i < trials; i++ {
		for _, v := range r.SampleWithoutReplacement(10, 3) {
			counts[v]++
		}
	}
	want := float64(trials) * 3 / 10
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("index %d chosen %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestFillHelpers(t *testing.T) {
	r := New(53)
	buf := make([]float64, 10000)
	r.FillNorm(buf, 3, 0.5)
	sum := 0.0
	for _, v := range buf {
		sum += v
	}
	if math.Abs(sum/float64(len(buf))-3) > 0.05 {
		t.Errorf("FillNorm mean %v, want ~3", sum/float64(len(buf)))
	}
}
