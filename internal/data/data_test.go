package data

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"fedwcm/internal/tensor"
	"fedwcm/internal/xrand"
)

func TestLongTailCountsShape(t *testing.T) {
	counts := LongTailCounts(1000, 10, 0.1)
	if counts[0] != 1000 {
		t.Fatalf("head count %d, want 1000", counts[0])
	}
	if counts[9] != 100 {
		t.Fatalf("tail count %d, want 100", counts[9])
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Fatalf("counts must be non-increasing: %v", counts)
		}
	}
}

func TestLongTailCountsBalanced(t *testing.T) {
	counts := LongTailCounts(500, 7, 1)
	for _, c := range counts {
		if c != 500 {
			t.Fatalf("IF=1 must be balanced, got %v", counts)
		}
	}
}

func TestLongTailCountsFloor(t *testing.T) {
	counts := LongTailCounts(50, 10, 0.01)
	for _, c := range counts {
		if c < 1 {
			t.Fatalf("classes must keep at least one sample: %v", counts)
		}
	}
}

func TestImbalanceFactorRoundTrip(t *testing.T) {
	f := func(ifRaw uint8) bool {
		imb := 0.01 + float64(ifRaw%100)/100
		if imb > 1 {
			imb = 1
		}
		counts := LongTailCounts(10000, 10, imb)
		got := ImbalanceFactor(counts)
		return math.Abs(got-imb) < 0.01
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLongTailPanics(t *testing.T) {
	for _, bad := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LongTailCounts should panic for IF=%v", bad)
				}
			}()
			LongTailCounts(10, 5, bad)
		}()
	}
}

func TestL1DeviationAndTarget(t *testing.T) {
	u := UniformTarget(4)
	if L1Deviation(u, u) != 0 {
		t.Fatal("self deviation must be 0")
	}
	p := []float64{1, 0, 0, 0}
	// |1-0.25| + 3·|0-0.25| = 1.5
	if d := L1Deviation(p, u); math.Abs(d-1.5) > 1e-12 {
		t.Fatalf("L1Deviation = %v, want 1.5", d)
	}
}

func TestGaussianGenerateCounts(t *testing.T) {
	spec := GaussianSpec{Classes: 3, Dim: 8, Sep: 2, Noise: 1}
	counts := []int{5, 3, 7}
	ds := spec.Generate(1, 1, counts)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	got := ds.ClassCounts()
	for c, want := range counts {
		if got[c] != want {
			t.Fatalf("class %d count %d, want %d", c, got[c], want)
		}
	}
}

func TestGaussianDeterminism(t *testing.T) {
	spec := GaussianSpec{Classes: 2, Dim: 4, Sep: 2, Noise: 1}
	a := spec.Generate(9, 1, []int{3, 3})
	b := spec.Generate(9, 1, []int{3, 3})
	if !tensor.Equal(a.X, b.X, 0) {
		t.Fatal("same seed must generate identical data")
	}
	c := spec.Generate(10, 1, []int{3, 3})
	if tensor.Equal(a.X, c.X, 0) {
		t.Fatal("different seeds should differ")
	}
}

func TestGaussianSplitsShareStructureButNotNoise(t *testing.T) {
	spec := GaussianSpec{Classes: 2, Dim: 16, Sep: 5, Noise: 0.1}
	train := spec.Generate(3, 1, []int{50, 50})
	test := spec.Generate(3, 2, []int{50, 50})
	if tensor.Equal(train.X, test.X, 1e-9) {
		t.Fatal("train and test streams must differ")
	}
	// but class means should be close (shared prototypes)
	meanOf := func(d *Dataset, cls int) []float64 {
		m := make([]float64, d.Dim())
		n := 0
		for i, y := range d.Y {
			if y == cls {
				tensor.AddVec(m, d.X.Row(i))
				n++
			}
		}
		tensor.Scale(m, 1/float64(n))
		return m
	}
	for cls := 0; cls < 2; cls++ {
		d := tensor.L2Dist(meanOf(train, cls), meanOf(test, cls))
		if d > 0.5 {
			t.Fatalf("class %d prototype drift %v between splits", cls, d)
		}
	}
}

func TestGaussianSeparationIsLearnable(t *testing.T) {
	// Nearest-prototype classification on well-separated data should be
	// nearly perfect; this guards against degenerate generators.
	spec := GaussianSpec{Classes: 4, Dim: 16, Sep: 6, Noise: 0.5}
	train := spec.Generate(5, 1, UniformCounts(50, 4))
	test := spec.Generate(5, 2, UniformCounts(30, 4))
	centroids := make([][]float64, 4)
	for c := range centroids {
		centroids[c] = make([]float64, train.Dim())
	}
	counts := make([]float64, 4)
	for i, y := range train.Y {
		tensor.AddVec(centroids[y], train.X.Row(i))
		counts[y]++
	}
	for c := range centroids {
		tensor.Scale(centroids[c], 1/counts[c])
	}
	correct := 0
	for i, y := range test.Y {
		best, bi := math.Inf(1), -1
		for c := range centroids {
			d := tensor.L2Dist(test.X.Row(i), centroids[c])
			if d < best {
				best, bi = d, c
			}
		}
		if bi == y {
			correct++
		}
	}
	acc := float64(correct) / float64(test.Len())
	if acc < 0.95 {
		t.Fatalf("nearest-centroid accuracy %v on separable data", acc)
	}
}

func TestImageGenerate(t *testing.T) {
	spec := ImageSpec{Classes: 3, Chans: 2, H: 6, W: 5, Contrast: 1, Noise: 0.2}
	ds := spec.Generate(7, 1, []int{4, 4, 4})
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.Dim() != 2*6*5 {
		t.Fatalf("image dim %d", ds.Dim())
	}
	if ds.Chans != 2 || ds.H != 6 || ds.W != 5 {
		t.Fatal("geometry not recorded")
	}
}

func TestSubsetAndGather(t *testing.T) {
	spec := GaussianSpec{Classes: 2, Dim: 3, Sep: 1, Noise: 1}
	ds := spec.Generate(11, 1, []int{4, 4})
	sub := ds.Subset([]int{1, 5, 7})
	if sub.Len() != 3 {
		t.Fatalf("subset len %d", sub.Len())
	}
	if tensor.L2Dist(sub.X.Row(0), ds.X.Row(1)) != 0 {
		t.Fatal("subset row mismatch")
	}
	x, y := ds.Gather([]int{0, 2}, nil, nil)
	if x.R != 2 || y[0] != ds.Y[0] || y[1] != ds.Y[2] {
		t.Fatal("gather mismatch")
	}
	// reuse path
	x2, _ := ds.Gather([]int{3}, x, y)
	if x2.R != 1 || tensor.L2Dist(x2.Row(0), ds.X.Row(3)) != 0 {
		t.Fatal("gather reuse mismatch")
	}
}

func TestIndicesByClass(t *testing.T) {
	ds := &Dataset{X: tensor.NewDense(5, 1), Y: []int{0, 1, 0, 2, 1}, Classes: 3}
	byc := ds.IndicesByClass()
	if len(byc[0]) != 2 || len(byc[1]) != 2 || len(byc[2]) != 1 {
		t.Fatalf("IndicesByClass got %v", byc)
	}
	if byc[0][0] != 0 || byc[0][1] != 2 {
		t.Fatalf("class 0 indices %v", byc[0])
	}
}

func TestRegistryLookup(t *testing.T) {
	for _, name := range Names() {
		s, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Dim() <= 0 || s.Classes <= 0 {
			t.Fatalf("%s: bad spec", name)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown dataset should error")
	}
}

func TestSpecMakeProfiles(t *testing.T) {
	s, err := Lookup("cifar10-syn")
	if err != nil {
		t.Fatal(err)
	}
	train, test := s.MakeTrain(1, 0.1, 1), s.MakeTest(1, 1)
	if err := train.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := ImbalanceFactor(train.ClassCounts()); math.Abs(got-0.1) > 0.01 {
		t.Fatalf("train imbalance %v, want 0.1", got)
	}
	if got := ImbalanceFactor(test.ClassCounts()); got != 1 {
		t.Fatalf("test must be balanced, got IF=%v", got)
	}
}

func TestMakeScaledShrinks(t *testing.T) {
	s, _ := Lookup("cifar10-syn")
	full := s.MakeTrain(1, 0.5, 1)
	small, smallTest := s.MakeTrain(1, 0.5, 0.2), s.MakeTest(1, 0.2)
	if small.Len() >= full.Len()/3 {
		t.Fatalf("scaled train %d not much smaller than %d", small.Len(), full.Len())
	}
	if got := ImbalanceFactor(small.ClassCounts()); math.Abs(got-0.5) > 0.05 {
		t.Fatalf("scaled imbalance %v, want ~0.5", got)
	}
	if smallTest.Len() == 0 {
		t.Fatal("scaled test empty")
	}
}

func TestShuffleSamplerCoversEpoch(t *testing.T) {
	var s ShuffleSampler
	s.Reset(xrand.New(1), 10, 3)
	if s.BatchesPerEpoch() != 4 {
		t.Fatalf("BatchesPerEpoch = %d, want 4", s.BatchesPerEpoch())
	}
	seen := map[int]int{}
	for b := 0; b < s.BatchesPerEpoch(); b++ {
		for _, i := range s.NextBatch() {
			seen[i]++
		}
	}
	if len(seen) != 10 {
		t.Fatalf("epoch covered %d/10 samples", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("sample %d seen %d times in one epoch", i, c)
		}
	}
}

func TestShuffleSamplerReshuffles(t *testing.T) {
	var s ShuffleSampler
	s.Reset(xrand.New(2), 100, 100)
	first := append([]int(nil), s.NextBatch()...)
	second := s.NextBatch()
	diff := 0
	for i := range first {
		if first[i] != second[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("epochs should be differently shuffled")
	}
}

func TestBalancedSamplerOversamplesRareClasses(t *testing.T) {
	// shard: 90 of class 0, 10 of class 1
	labels := make([]int, 100)
	for i := 90; i < 100; i++ {
		labels[i] = 1
	}
	var s BalancedSampler
	s.Reset(xrand.New(3), labels, 2, 20)
	counts := [2]int{}
	for b := 0; b < 200; b++ {
		for _, pos := range s.NextBatch() {
			counts[labels[pos]]++
		}
	}
	ratio := float64(counts[1]) / float64(counts[0]+counts[1])
	if math.Abs(ratio-0.5) > 0.05 {
		t.Fatalf("balanced sampler class-1 share %v, want ~0.5", ratio)
	}
}

func TestBalancedSamplerSkipsAbsentClasses(t *testing.T) {
	labels := []int{2, 2, 2} // only class 2 present out of 5
	var s BalancedSampler
	s.Reset(xrand.New(4), labels, 5, 2)
	for b := 0; b < 10; b++ {
		for _, pos := range s.NextBatch() {
			if labels[pos] != 2 {
				t.Fatal("sampled an absent class")
			}
		}
	}
}

// freshShuffle and freshBalanced are the samplers as built from nothing —
// a new identity permutation, per-class lists appended in label order — the
// reference a re-armed sampler must match draw for draw.
func freshShuffle(rng *xrand.RNG, n, batch, batches int) []int {
	if batch > n {
		batch = n
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	rng.ShuffleInts(perm)
	var out []int
	pos := 0
	for b := 0; b < batches; b++ {
		if pos >= n {
			rng.ShuffleInts(perm)
			pos = 0
		}
		end := min(pos+batch, n)
		out = append(out, perm[pos:end]...)
		pos = end
	}
	return out
}

func freshBalanced(rng *xrand.RNG, labels []int, classes, batch, batches int) []int {
	batch = min(batch, len(labels))
	byClass := make([][]int, classes)
	for pos, y := range labels {
		byClass[y] = append(byClass[y], pos)
	}
	var present []int
	for c, idx := range byClass {
		if len(idx) > 0 {
			present = append(present, c)
		}
	}
	var out []int
	for b := 0; b < batches; b++ {
		for i := 0; i < batch; i++ {
			pool := byClass[present[rng.Intn(len(present))]]
			out = append(out, pool[rng.Intn(len(pool))])
		}
	}
	return out
}

// TestRearmedSamplersDrawLikeFresh: one sampler of each kind is re-armed
// over shards of changing size and class mix — larger, then smaller, than
// what its buffers last held — and every batch equals the reference
// sampler's on the same seed.
func TestRearmedSamplersDrawLikeFresh(t *testing.T) {
	var sh ShuffleSampler
	var bal BalancedSampler
	for i, shard := range []struct{ n, classes, batch int }{
		{37, 5, 8}, {120, 10, 16}, {9, 3, 50}, {64, 10, 10}, {1, 2, 4},
	} {
		seed := uint64(100 + i)
		labels := make([]int, shard.n)
		lr := xrand.New(seed + 50)
		for j := range labels {
			labels[j] = lr.Intn(shard.classes) * lr.Intn(2) // skewed toward class 0
		}
		batches := 3*shard.n/shard.batch + 2 // crosses epoch boundaries

		sh.Reset(xrand.New(seed), shard.n, shard.batch)
		var got []int
		for b := 0; b < batches; b++ {
			got = append(got, sh.NextBatch()...)
		}
		if want := freshShuffle(xrand.New(seed), shard.n, shard.batch, batches); !slices.Equal(got, want) {
			t.Fatalf("shard %d: re-armed shuffle sampler drew %v, fresh %v", i, got, want)
		}

		bal.Reset(xrand.New(seed), labels, shard.classes, shard.batch)
		got = got[:0]
		for b := 0; b < batches; b++ {
			got = append(got, bal.NextBatch()...)
		}
		if want := freshBalanced(xrand.New(seed), labels, shard.classes, shard.batch, batches); !slices.Equal(got, want) {
			t.Fatalf("shard %d: re-armed balanced sampler drew %v, fresh %v", i, got, want)
		}
	}
}

// TestRearmedSamplersAllocateNothing: once their buffers have grown, re-arming
// and drawing a round's batches allocates nothing.
func TestRearmedSamplersAllocateNothing(t *testing.T) {
	labels := make([]int, 200)
	for i := range labels {
		labels[i] = i % 7
	}
	rng := xrand.New(1)
	var sh ShuffleSampler
	var bal BalancedSampler
	round := func() {
		sh.Reset(rng, len(labels), 32)
		bal.Reset(rng, labels, 10, 32)
		for b := 0; b < 20; b++ {
			sh.NextBatch()
			bal.NextBatch()
		}
	}
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("a warm round of re-armed samplers allocates %v times, want 0", allocs)
	}
}

func TestValidateCatchesBadLabels(t *testing.T) {
	ds := &Dataset{X: tensor.NewDense(2, 1), Y: []int{0, 5}, Classes: 3}
	if ds.Validate() == nil {
		t.Fatal("Validate should reject out-of-range labels")
	}
}

// Validate checks the dataset's internal consistency.
func (d *Dataset) Validate() error {
	if d.X.R != len(d.Y) {
		return fmt.Errorf("data: %d rows but %d labels", d.X.R, len(d.Y))
	}
	if d.Classes <= 0 {
		return fmt.Errorf("data: non-positive class count %d", d.Classes)
	}
	for i, y := range d.Y {
		if y < 0 || y >= d.Classes {
			return fmt.Errorf("data: label %d out of range at row %d", y, i)
		}
	}
	if d.Chans != 0 && d.Chans*d.H*d.W != d.Dim() {
		return fmt.Errorf("data: image geometry %dx%dx%d does not match dim %d", d.Chans, d.H, d.W, d.Dim())
	}
	return nil
}
