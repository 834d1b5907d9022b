//go:build amd64

package tensor

import (
	"fmt"
	"math"
	"testing"

	"fedwcm/internal/xrand"
)

// TestRowKernelsMatchScalarBits holds every fused row kernel of simd.go to
// the per-element expression its doc states, bit for bit, as simd.go's
// header promises (TestMatrixKernelsMatchScalarBits holds the whole-matrix
// ones): every length around the 4-wide blocks and the simdMinLen cut plus
// a feature map's 144, inputs (constants included) that mix zeros of both
// signs, NaN and both infinities into normals, at each kernel level the
// host has — AVX, and the scalar loops non-AVX builds run for everything.
// SubInto and Axpy (the latter with a negated factor, as fl's server update
// uses it) ride along. A NaN must meet a NaN; its bits are free (see
// simd.go).
// Every other result, ±0 and ±Inf included, must match bit for bit.
func TestRowKernelsMatchScalarBits(t *testing.T) {
	avx, avx512 := hasAVX, hasAVX512
	defer func() { hasAVX, hasAVX512 = avx, avx512 }()
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1.5}
	r := xrand.New(21)
	value := func() float64 {
		if r.Intn(3) == 0 {
			return special[r.Intn(len(special))]
		}
		return r.NormFloat64()
	}
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = value()
		}
		return v
	}
	lengths := []int{144}
	for n := 0; n <= 21; n++ {
		lengths = append(lengths, n)
	}

	for _, lvl := range []struct {
		name string
		avx  bool
	}{{"AVX", true}, {"Go only", false}} {
		t.Run(lvl.name, func(t *testing.T) {
			if lvl.avx && !avx {
				t.Skip("the host lacks this level")
			}
			hasAVX, hasAVX512 = lvl.avx, lvl.avx && avx512
			for _, n := range lengths {
				for rep := 0; rep < 4; rep++ {
					check := func(kernel string, got, want []float64) {
						t.Helper()
						for i := range want {
							if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
								continue // see simd.go on NaN payloads
							}
							if g, w := math.Float64bits(got[i]), math.Float64bits(want[i]); g != w {
								t.Fatalf("%s n=%d [%d] = %v (bits %#x), want %v (bits %#x)",
									kernel, n, i, got[i], g, want[i], w)
							}
						}
					}
					x, y := vec(n), vec(n)
					got, got2 := make([]float64, n), make([]float64, n)
					want, want2 := make([]float64, n), make([]float64, n)

					ReLUFwdInto(got, x)
					for i, v := range x {
						if v <= 0 {
							want[i] = 0
						} else {
							want[i] = v
						}
					}
					check("ReLUFwdInto", got, want)

					ReLUBwdInto(got, y, x)
					for i, v := range x {
						if v <= 0 {
							want[i] = 0
						} else {
							want[i] = y[i]
						}
					}
					check("ReLUBwdInto", got, want)

					mean, g, beta, inv := value(), value(), value(), value()
					BNNormScalarInto(got, got2, x, mean, g, beta, inv)
					for i := range x {
						d := x[i] - mean
						want2[i] = d
						want[i] = float64(g*d*inv) + beta
					}
					name := fmt.Sprintf("BNNormScalarInto(mean=%v g=%v b=%v inv=%v)", mean, g, beta, inv)
					check(name+" out", got, want)
					check(name+" xmu", got2, want2)

					k1, k2, k3 := value(), value(), value()
					BNBwdDxScalar(got, x, y, k1, k2, k3)
					for i := range x {
						want[i] = float64(k1*x[i]) - k2 - float64(k3*y[i])
					}
					check(fmt.Sprintf("BNBwdDxScalar(k1=%v k2=%v k3=%v)", k1, k2, k3), got, want)

					SubInto(got, x, y)
					for i := range x {
						want[i] = x[i] - y[i]
					}
					check("SubInto", got, want)

					// fl's server update: Axpy with a negated factor is
					// the scalar dst −= s·x.
					s := value()
					copy(got, y)
					Axpy(got, -s, x)
					for i := range x {
						want[i] = y[i] - float64(s*x[i])
					}
					check(fmt.Sprintf("Axpy(-%v)", s), got, want)
				}
			}
		})
	}
}
