package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"fedwcm/internal/xrand"
)

// Lerp computes dst = a*x + (1-a)*y elementwise into dst, which may alias
// x or y: each element is read before it is written. It is the momentum
// mix local SGD once ran as its own pass over the gradient, kept as the
// reference SGDStep's momentum term is held to (TestSGDStepMatchesPasses).
func Lerp(dst []float64, a float64, x, y []float64) {
	if len(dst) != len(x) || len(dst) != len(y) {
		panic("tensor: Lerp length mismatch")
	}
	b := 1 - a
	i := 0
	if hasAVX && len(dst) >= simdMinLen {
		blocks := len(dst) >> 2
		lerpBlocksAVX(&dst[0], &x[0], &y[0], a, b, int64(blocks))
		i = blocks << 2
	}
	for ; i < len(dst); i++ {
		dst[i] = float64(a*x[i]) + float64(b*y[i])
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAxpy(t *testing.T) {
	dst := []float64{1, 2, 3}
	Axpy(dst, 2, []float64{10, 20, 30})
	want := []float64{21, 42, 63}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Axpy got %v want %v", dst, want)
		}
	}
}

func TestAxpyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Axpy([]float64{1}, 1, []float64{1, 2})
}

func TestLerpMatchesManual(t *testing.T) {
	f := func(seed uint64, aRaw uint8) bool {
		r := xrand.New(seed)
		a := float64(aRaw) / 255
		n := 17
		x := make([]float64, n)
		y := make([]float64, n)
		r.FillNorm(x, 0, 1)
		r.FillNorm(y, 0, 1)
		dst := make([]float64, n)
		Lerp(dst, a, x, y)
		for i := range dst {
			want := a*x[i] + (1-a)*y[i]
			if !almostEq(dst[i], want, 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLerpEndpoints(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{10, 20}
	dst := make([]float64, 2)
	Lerp(dst, 1, x, y)
	if dst[0] != 1 || dst[1] != 2 {
		t.Errorf("Lerp(1) should return x, got %v", dst)
	}
	Lerp(dst, 0, x, y)
	if dst[0] != 10 || dst[1] != 20 {
		t.Errorf("Lerp(0) should return y, got %v", dst)
	}
}

// TestLerpMatchesScalarBits holds the AVX block kernel to the scalar
// expression a*x + (1-a)*y bit for bit: every length around the 4-wide
// blocks and the simdMinLen cut, values that include zeros of both signs,
// NaN and both infinities, and the endpoint mixes whose zero coefficient
// meets them.
func TestLerpMatchesScalarBits(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1.5}
	r := xrand.New(12)
	for n := 0; n <= 21; n++ {
		x, y, dst := make([]float64, n), make([]float64, n), make([]float64, n)
		for _, a := range []float64{0, 0.1, 0.5, 1} {
			r.FillNorm(x, 0, 1)
			r.FillNorm(y, 0, 1)
			for i := 0; i < n; i++ {
				if r.Intn(2) == 0 {
					x[i] = special[r.Intn(len(special))]
				}
				if r.Intn(2) == 0 {
					y[i] = special[r.Intn(len(special))]
				}
			}
			Lerp(dst, a, x, y)
			b := 1 - a
			for i := range dst {
				want := a*x[i] + b*y[i]
				if math.Float64bits(dst[i]) != math.Float64bits(want) {
					t.Fatalf("n=%d a=%v: Lerp(%v, %v) = %v (bits %#x), want %v (bits %#x)", n, a, x[i], y[i],
						dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestLerpInPlaceMatchesOutOfPlace: with dst aliasing x, as local SGD's
// momentum mixing runs it on the gradient vector, or aliasing y, Lerp gives
// the out-of-place bits — at lengths below simdMinLen, at multiples of the
// 4-wide blocks and with a 1–3 element scalar tail after them.
func TestLerpInPlaceMatchesOutOfPlace(t *testing.T) {
	r := xrand.New(13)
	for _, n := range []int{1, 3, 5, 7, 8, 12, 16, 20, 9, 10, 11, 13, 14, 15, 33, 34, 35} {
		x, y, want := make([]float64, n), make([]float64, n), make([]float64, n)
		r.FillNorm(x, 0, 1)
		r.FillNorm(y, 0, 1)
		const a = 0.1
		Lerp(want, a, x, y)
		for _, alias := range []string{"x", "y"} {
			got := CopyVec(x)
			if alias == "x" {
				Lerp(got, a, got, y)
			} else {
				copy(got, y)
				Lerp(got, a, x, got)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d dst=%s: [%d] = %v, want %v", n, alias, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDotNormRelations(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		v := make([]float64, 31)
		r.FillNorm(v, 0, 2)
		return almostEq(Norm2(v)*Norm2(v), Dot(v, v), 1e-9*Dot(v, v)+1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSumMeanMaxArgMax(t *testing.T) {
	v := []float64{3, -1, 7, 7, 0}
	if Sum(v) != 16 {
		t.Errorf("Sum = %v", Sum(v))
	}
	if Mean(v) != 3.2 {
		t.Errorf("Mean = %v", Mean(v))
	}
	if Max(v) != 7 {
		t.Errorf("Max = %v", Max(v))
	}
	if ArgMax(v) != 2 {
		t.Errorf("ArgMax = %v, want first max index 2", ArgMax(v))
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(seed uint64, tempRaw uint8) bool {
		r := xrand.New(seed)
		temp := 0.1 + float64(tempRaw)/64
		x := make([]float64, 9)
		r.FillNorm(x, 0, 3)
		dst := make([]float64, 9)
		Softmax(dst, x, temp)
		sum := 0.0
		for _, p := range dst {
			if p < 0 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		if !almostEq(sum, 1, 1e-9) {
			return false
		}
		// order preserved: argmax of softmax equals argmax of x
		return ArgMax(dst) == ArgMax(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxTemperatureSharpness(t *testing.T) {
	x := []float64{1, 2, 3}
	hot := make([]float64, 3)
	cold := make([]float64, 3)
	Softmax(hot, x, 10)   // high temperature → flat
	Softmax(cold, x, 0.1) // low temperature → sharp
	if cold[2] <= hot[2] {
		t.Errorf("low temperature should sharpen: cold max %v vs hot max %v", cold[2], hot[2])
	}
	if hot[0] <= cold[0] {
		t.Errorf("high temperature should flatten: hot min %v vs cold min %v", hot[0], cold[0])
	}
}

func TestSoftmaxLargeValuesStable(t *testing.T) {
	dst := make([]float64, 3)
	Softmax(dst, []float64{1000, 1001, 1002}, 1)
	sum := 0.0
	for _, p := range dst {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("softmax overflow: %v", dst)
		}
		sum += p
	}
	if !almostEq(sum, 1, 1e-9) {
		t.Fatalf("softmax sum %v", sum)
	}
}

func TestL2Dist(t *testing.T) {
	if !almostEq(L2Dist([]float64{0, 0}, []float64{3, 4}), 5, 1e-12) {
		t.Error("L2Dist(origin, (3,4)) should be 5")
	}
}

func TestElementwiseOps(t *testing.T) {
	dst := []float64{1, 2, 3}
	AddVec(dst, []float64{1, 1, 1})
	Scale(dst, 2)
	want := []float64{4, 6, 8}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("elementwise chain got %v want %v", dst, want)
		}
	}
}
