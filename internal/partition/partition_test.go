package partition

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"fedwcm/internal/data"
	"fedwcm/internal/xrand"
)

func makeDataset(seed uint64, classes, perClass int) *data.Dataset {
	spec := data.GaussianSpec{Classes: classes, Dim: 4, Sep: 1, Noise: 1}
	return spec.Generate(seed, 1, data.UniformCounts(perClass, classes))
}

func makeLongTail(seed uint64, classes, head int, imb float64) *data.Dataset {
	spec := data.GaussianSpec{Classes: classes, Dim: 4, Sep: 1, Noise: 1}
	return spec.Generate(seed, 1, data.LongTailCounts(head, classes, imb))
}

func TestEqualQuantityInvariants(t *testing.T) {
	ds := makeLongTail(1, 10, 200, 0.1)
	p := EqualQuantity(xrand.New(2), ds, 20, 0.1)
	if err := p.Validate(ds.Len()); err != nil {
		t.Fatal(err)
	}
	sizes := p.Sizes()
	minS, maxS := sizes[0], sizes[0]
	for _, s := range sizes {
		if s < minS {
			minS = s
		}
		if s > maxS {
			maxS = s
		}
	}
	if maxS-minS > 1 {
		t.Fatalf("equal-quantity sizes spread too wide: min=%d max=%d", minS, maxS)
	}
}

func TestEqualQuantityPreservesClassMarginals(t *testing.T) {
	ds := makeLongTail(3, 5, 300, 0.5)
	p := EqualQuantity(xrand.New(4), ds, 10, 0.3)
	global := ds.ClassCounts()
	agg := make([]int, ds.Classes)
	for _, counts := range p.Counts {
		for c, n := range counts {
			agg[c] += n
		}
	}
	for c := range global {
		if agg[c] != global[c] {
			t.Fatalf("class %d: partition holds %d, dataset has %d", c, agg[c], global[c])
		}
	}
}

func TestEqualQuantitySkewIncreasesAsBetaDecreases(t *testing.T) {
	ds := makeDataset(5, 10, 300)
	global := ds.ClassProportions()
	skew := func(beta float64) float64 {
		p := EqualQuantity(xrand.New(6), ds, 30, beta)
		return ComputeStats(p, global).MeanLabelSkew
	}
	low := skew(100) // near-IID
	high := skew(0.1)
	if high <= low+0.2 {
		t.Fatalf("beta=0.1 skew %v should far exceed beta=100 skew %v", high, low)
	}
}

func TestEqualQuantityDeterminism(t *testing.T) {
	ds := makeDataset(7, 4, 50)
	a := EqualQuantity(xrand.New(8), ds, 7, 0.5)
	b := EqualQuantity(xrand.New(8), ds, 7, 0.5)
	for k := range a.ClientIndices {
		if len(a.ClientIndices[k]) != len(b.ClientIndices[k]) {
			t.Fatal("partition not deterministic")
		}
		for i := range a.ClientIndices[k] {
			if a.ClientIndices[k][i] != b.ClientIndices[k][i] {
				t.Fatal("partition not deterministic")
			}
		}
	}
}

func TestEqualQuantityPropertyCover(t *testing.T) {
	f := func(seed uint64, clientsRaw, betaRaw uint8) bool {
		clients := int(clientsRaw%20) + 1
		beta := 0.05 + float64(betaRaw)/64
		ds := makeDataset(seed, 3, 40)
		p := EqualQuantity(xrand.New(seed+1), ds, clients, beta)
		return p.Validate(ds.Len()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFedGraBStyleInvariants(t *testing.T) {
	ds := makeLongTail(9, 10, 200, 0.1)
	p := FedGraBStyle(xrand.New(10), ds, 20, 0.1)
	if err := p.Validate(ds.Len()); err != nil {
		t.Fatal(err)
	}
	for k, idx := range p.ClientIndices {
		if len(idx) == 0 {
			t.Fatalf("client %d left empty", k)
		}
	}
}

func TestFedGraBStyleQuantitySkew(t *testing.T) {
	ds := makeDataset(11, 10, 300)
	global := ds.ClassProportions()
	eq := ComputeStats(EqualQuantity(xrand.New(12), ds, 30, 0.1), global)
	fg := ComputeStats(FedGraBStyle(xrand.New(12), ds, 30, 0.1), global)
	if fg.GiniQuantity <= eq.GiniQuantity+0.1 {
		t.Fatalf("FedGraB-style partition should have much higher quantity Gini: %v vs %v",
			fg.GiniQuantity, eq.GiniQuantity)
	}
	// With many clients relative to classes and a long tail, a handful of
	// clients should hold a disproportionate share (Appendix A's setting).
	lt := makeLongTail(17, 10, 200, 0.1)
	fgLT := ComputeStats(FedGraBStyle(xrand.New(18), lt, 50, 0.1), lt.ClassProportions())
	if fgLT.Top10PctShare < 0.25 {
		t.Fatalf("top-10%% share %v too equal for beta=0.1 long-tail", fgLT.Top10PctShare)
	}
}

func TestFedGraBStylePropertyCover(t *testing.T) {
	f := func(seed uint64, clientsRaw uint8) bool {
		clients := int(clientsRaw%15) + 2
		ds := makeDataset(seed, 4, 30)
		p := FedGraBStyle(xrand.New(seed+2), ds, clients, 0.3)
		return p.Validate(ds.Len()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLargestRemainderExact(t *testing.T) {
	f := func(seed uint64, totalRaw uint16) bool {
		total := int(totalRaw % 1000)
		r := xrand.New(seed)
		share := r.Dirichlet(0.5, 7)
		counts := largestRemainder(share, total)
		sum := 0
		for _, c := range counts {
			if c < 0 {
				return false
			}
			sum += c
		}
		return sum == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLargestRemainderProportional(t *testing.T) {
	counts := largestRemainder([]float64{0.5, 0.25, 0.25}, 100)
	if counts[0] != 50 || counts[1] != 25 || counts[2] != 25 {
		t.Fatalf("largestRemainder got %v", counts)
	}
}

func TestGiniBounds(t *testing.T) {
	if g := gini([]int{10, 10, 10, 10}); math.Abs(g) > 1e-9 {
		t.Fatalf("equal sizes should give gini 0, got %v", g)
	}
	g := gini([]int{0, 0, 0, 100})
	if g < 0.7 {
		t.Fatalf("extreme concentration should give high gini, got %v", g)
	}
}

func TestComputeStatsSaneRanges(t *testing.T) {
	ds := makeLongTail(13, 10, 100, 0.1)
	p := EqualQuantity(xrand.New(14), ds, 10, 0.5)
	st := ComputeStats(p, ds.ClassProportions())
	if st.TotalSamples != ds.Len() {
		t.Fatalf("stats total %d, want %d", st.TotalSamples, ds.Len())
	}
	if st.Top10PctShare < 0 || st.Top10PctShare > 1 {
		t.Fatalf("top10 share out of range: %v", st.Top10PctShare)
	}
	if st.MeanLabelSkew < 0 || st.MeanLabelSkew > 2 {
		t.Fatalf("label skew out of range: %v", st.MeanLabelSkew)
	}
	if st.String() == "" {
		t.Fatal("String should render")
	}
	if Histogram(p, 5) == "" {
		t.Fatal("Histogram should render")
	}
}

func TestProportionsRowsSumToOne(t *testing.T) {
	ds := makeDataset(15, 6, 40)
	p := EqualQuantity(xrand.New(16), ds, 8, 0.2)
	for k, row := range p.Proportions() {
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("client %d proportions sum %v", k, sum)
		}
	}
}

// Validate checks the partition is a disjoint cover of [0, n).
func (p *Partition) Validate(n int) error {
	seen := make([]bool, n)
	total := 0
	for k, idx := range p.ClientIndices {
		for _, i := range idx {
			if i < 0 || i >= n {
				return fmt.Errorf("partition: client %d has out-of-range index %d", k, i)
			}
			if seen[i] {
				return fmt.Errorf("partition: index %d assigned twice", i)
			}
			seen[i] = true
			total++
		}
	}
	if total != n {
		return fmt.Errorf("partition: covers %d of %d samples", total, n)
	}
	return nil
}
