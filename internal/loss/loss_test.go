package loss

import (
	"math"
	"testing"
	"testing/quick"

	"fedwcm/internal/tensor"
	"fedwcm/internal/xrand"
)

// lossAndGrad is LossAndGradInto into a fresh matrix.
func lossAndGrad(l Loss, logits *tensor.Dense, labels []int) (float64, *tensor.Dense) {
	grad := tensor.NewDense(logits.R, logits.C)
	return l.LossAndGradInto(grad, logits, labels), grad
}

// numericGrad checks d(loss)/d(logits) by central differences.
func numericGrad(t *testing.T, l Loss, logits *tensor.Dense, labels []int, tol float64) {
	t.Helper()
	_, grad := lossAndGrad(l, logits, labels)
	const eps = 1e-6
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := lossAndGrad(l, logits, labels)
		logits.Data[i] = orig - eps
		lm, _ := lossAndGrad(l, logits, labels)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		denom := math.Max(math.Max(math.Abs(num), math.Abs(grad.Data[i])), 1e-4)
		if math.Abs(num-grad.Data[i])/denom > tol {
			t.Fatalf("%s: grad mismatch at %d: numeric %v analytic %v", l.Name(), i, num, grad.Data[i])
		}
	}
}

func randomBatch(seed uint64, n, c int) (*tensor.Dense, []int) {
	r := xrand.New(seed)
	logits := tensor.NewDense(n, c)
	r.FillNorm(logits.Data, 0, 2)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = r.Intn(c)
	}
	return logits, labels
}

func TestCrossEntropyGradient(t *testing.T) {
	logits, labels := randomBatch(1, 6, 5)
	numericGrad(t, CrossEntropy{}, logits, labels, 1e-5)
}

func TestFocalGradient(t *testing.T) {
	for _, gamma := range []float64{0, 0.5, 1, 2} {
		logits, labels := randomBatch(2, 5, 4)
		numericGrad(t, Focal{Gamma: gamma}, logits, labels, 1e-4)
	}
}

func TestPriorCEGradient(t *testing.T) {
	l := NewPriorCE(1.0, []float64{100, 50, 10, 5})
	logits, labels := randomBatch(3, 6, 4)
	numericGrad(t, l, logits, labels, 1e-5)
}

func TestFocalZeroGammaEqualsCE(t *testing.T) {
	f := func(seed uint64) bool {
		logits, labels := randomBatch(seed, 4, 3)
		lce, gce := CrossEntropy{}.LossAndGrad(logits, labels)
		lf, gf := lossAndGrad(Focal{Gamma: 0}, logits, labels)
		if math.Abs(lce-lf) > 1e-10 {
			return false
		}
		return tensor.Equal(gce, gf, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFocalDownweightsEasyExamples(t *testing.T) {
	// A confidently correct example should contribute much less focal loss
	// than CE loss, while a hard example keeps most of its weight.
	easy := tensor.FromSlice(1, 3, []float64{8, 0, 0})
	hard := tensor.FromSlice(1, 3, []float64{0.1, 0, 0})
	labels := []int{0}
	ceEasy, _ := CrossEntropy{}.LossAndGrad(easy, labels)
	fEasy, _ := lossAndGrad(Focal{Gamma: 2}, easy, labels)
	ceHard, _ := CrossEntropy{}.LossAndGrad(hard, labels)
	fHard, _ := lossAndGrad(Focal{Gamma: 2}, hard, labels)
	if fEasy >= ceEasy*0.01 {
		t.Errorf("focal should crush easy-example loss: ce=%v focal=%v", ceEasy, fEasy)
	}
	if fHard < ceHard*0.2 {
		t.Errorf("focal should keep hard-example loss: ce=%v focal=%v", ceHard, fHard)
	}
}

func TestPriorCEBoostsTailClasses(t *testing.T) {
	// With equal logits, PriorCE gradient should push tail-class scores up
	// harder than CE does (the adjusted softmax gives head classes more
	// probability mass, so the correction on the tail label is stronger).
	counts := []float64{1000, 10}
	l := NewPriorCE(1, counts)
	logits := tensor.FromSlice(1, 2, []float64{0, 0})
	_, g := lossAndGrad(l, logits, []int{1})
	_, gce := CrossEntropy{}.LossAndGrad(tensor.FromSlice(1, 2, []float64{0, 0}), []int{1})
	if g.Data[1] >= gce.Data[1] {
		t.Errorf("PriorCE tail gradient %v should be more negative than CE %v", g.Data[1], gce.Data[1])
	}
}

func TestCELossValueKnownCase(t *testing.T) {
	// Uniform logits over C classes give loss log(C).
	logits := tensor.NewDense(1, 4)
	got, _ := CrossEntropy{}.LossAndGrad(logits, []int{2})
	if math.Abs(got-math.Log(4)) > 1e-12 {
		t.Fatalf("uniform CE loss %v, want log(4)=%v", got, math.Log(4))
	}
}

func TestCEGradientRowsSumToZero(t *testing.T) {
	f := func(seed uint64) bool {
		logits, labels := randomBatch(seed, 3, 5)
		_, g := CrossEntropy{}.LossAndGrad(logits, labels)
		for s := 0; s < g.R; s++ {
			if math.Abs(tensor.Sum(g.Row(s))) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLogPriors(t *testing.T) {
	lp := LogPriors([]float64{3, 1})
	if math.Abs(lp[0]-math.Log(0.75)) > 1e-12 || math.Abs(lp[1]-math.Log(0.25)) > 1e-12 {
		t.Fatalf("LogPriors got %v", lp)
	}
	// zero counts floored
	lp = LogPriors([]float64{0, 1})
	if math.IsInf(lp[0], -1) {
		t.Fatal("LogPriors must floor empty classes")
	}
}

func TestLossNumericalStability(t *testing.T) {
	logits := tensor.FromSlice(1, 3, []float64{1e4, -1e4, 0})
	for _, l := range []Loss{CrossEntropy{}, Focal{Gamma: 2}, NewPriorCE(1, []float64{1, 1, 1})} {
		v, g := lossAndGrad(l, logits, []int{1})
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: loss not finite on extreme logits: %v", l.Name(), v)
		}
		for _, x := range g.Data {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Errorf("%s: grad not finite on extreme logits", l.Name())
				break
			}
		}
	}
}

func TestLabelOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad label")
		}
	}()
	CrossEntropy{}.LossAndGrad(tensor.NewDense(1, 3), []int{3})
}

// TestSoftmaxRowMatchesScalar holds the batch softmax the losses call,
// tensor.SoftmaxRows, to the per-row loop it replaced — math.Exp per
// class, summed as it goes — bit for bit, at every class count from 1 to
// 128, on batches of 1 and 7 rows whose spread passes the exp kernel's
// range, so both of its paths run.
func TestSoftmaxRowMatchesScalar(t *testing.T) {
	r := xrand.New(61)
	for c := 1; c <= 128; c++ {
		for _, rows := range []int{1, 7} {
			for _, spread := range []float64{1, 30, 2000} {
				z := make([]float64, rows*c)
				for i := range z {
					z[i] = spread * r.NormFloat64()
				}
				want := make([]float64, len(z))
				for o := 0; o < len(z); o += c {
					row := z[o : o+c]
					m := tensor.Max(row)
					sum := 0.0
					for i, v := range row {
						e := math.Exp(v - m)
						want[o+i] = e
						sum += e
					}
					inv := 1 / sum
					for i := range row {
						want[o+i] *= inv
					}
				}
				got := make([]float64, len(z))
				tensor.SoftmaxRows(got, z, c)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("C=%d rows=%d spread=%v: p[%d] = %v, want %v", c, rows, spread, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestPriorCEIsCEOnAdjustedLogits holds PriorCE, which builds the adjusted
// logits z_j + τ·log(π_j) in its gradient rows and takes their softmax in
// place, to cross-entropy over those logits computed apart, bit for bit —
// also for rows whose spread passes the exp kernel's range, where the
// batch falls back to math.Exp.
func TestPriorCEIsCEOnAdjustedLogits(t *testing.T) {
	counts := []float64{500, 120, 40, 9, 3, 1, 0, 70, 8, 200, 15}
	for _, c := range []int{3, 8, 11} {
		l := NewPriorCE(1, counts[:c])
		for _, spread := range []float64{1, 30, 2000} {
			logits, labels := randomBatch(uint64(c), 7, c)
			tensor.Scale(logits.Data, spread)
			adj := tensor.NewDense(logits.R, c)
			for s := 0; s < logits.R; s++ {
				for j, z := range logits.Row(s) {
					adj.Row(s)[j] = z + float64(l.Tau*l.LogPrior[j])
				}
			}
			lp, gp := lossAndGrad(l, logits, labels)
			lce, gce := CrossEntropy{}.LossAndGrad(adj, labels)
			if math.Float64bits(lp) != math.Float64bits(lce) {
				t.Fatalf("C=%d spread=%v: loss %v, want %v", c, spread, lp, lce)
			}
			for i := range gce.Data {
				if math.Float64bits(gp.Data[i]) != math.Float64bits(gce.Data[i]) {
					t.Fatalf("C=%d spread=%v: grad[%d] = %v, want %v", c, spread, i, gp.Data[i], gce.Data[i])
				}
			}
		}
	}
}
