//go:build amd64

package tensor

import (
	"fmt"
	"math"
	"testing"

	"fedwcm/internal/xrand"
)

// forEachLevel runs fn once per dispatch arm an amd64 host can take and
// has — the AVX-512 whole-matrix kernels, the AVX row kernels with
// hasAVX512 cleared, and the scalar loops non-AVX builds run — with the
// package's CPU flags set to that arm, and restores them.
func forEachLevel(t *testing.T, fn func(t *testing.T)) {
	avx, avx512 := hasAVX, hasAVX512
	defer func() { hasAVX, hasAVX512 = avx, avx512 }()
	for _, lvl := range []struct {
		name        string
		avx, avx512 bool
	}{{"AVX-512", true, true}, {"AVX only", true, false}, {"Go only", false, false}} {
		t.Run(lvl.name, func(t *testing.T) {
			if lvl.avx && !avx || lvl.avx512 && !avx512 {
				t.Skip("the host lacks this level")
			}
			hasAVX, hasAVX512 = lvl.avx, lvl.avx512
			fn(t)
		})
	}
}

// sameBits fails unless got and want hold the same bits element by
// element, a NaN matching any NaN (see simd.go on NaN payloads).
func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if g, w := math.Float64bits(got[i]), math.Float64bits(want[i]); g != w {
			t.Fatalf("%s [%d] = %v (bits %#x), want %v (bits %#x)", name, i, got[i], g, want[i], w)
		}
	}
}

// mixedValues returns a generator of normals with zeros of both signs and,
// one draw in every rare, NaN or an infinity.
func mixedValues(seed uint64, rare int) func() float64 {
	r := xrand.New(seed)
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	return func() float64 {
		switch {
		case r.Intn(rare) == 0:
			return special[r.Intn(len(special))]
		case r.Intn(8) == 0:
			return math.Copysign(0, float64(r.Intn(2)*2-1))
		}
		return r.NormFloat64()
	}
}

// TestMatrixKernelsMatchScalarBits holds each whole-matrix kernel — the
// 1-D BatchNorm passes, AddRowVec and ColSumsInto — to its per-element
// scalar expression, bit for bit, on every shape of 1–9 rows by 1–40
// columns (so every masked tail of a 16-column chunk, and the AVX blocks
// with their scalar tails), with ±0, ±Inf and NaN among the inputs, at
// each dispatch arm the host has. Reductions must also overwrite, not add
// to, what their output held.
func TestMatrixKernelsMatchScalarBits(t *testing.T) {
	forEachLevel(t, func(t *testing.T) {
		value := mixedValues(47, 6)
		vec := func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = value()
			}
			return v
		}
		for n := 1; n <= 9; n++ {
			for C := 1; C <= 40; C++ {
				x, y := vec(n*C), vec(n*C)
				mean, g, b, inv := vec(C), vec(C), vec(C), vec(C)
				got, got2 := make([]float64, n*C), make([]float64, n*C)
				want, want2 := make([]float64, n*C), make([]float64, n*C)
				col, col2 := make([]float64, C), make([]float64, C)
				wcol, wcol2 := make([]float64, C), make([]float64, C)
				shape := fmt.Sprintf("%dx%d", n, C)

				copy(got, x)
				FromSlice(n, C, got).AddRowVec(mean)
				for i := range x {
					want[i] = x[i] + mean[i%C]
				}
				sameBits(t, "AddRowVec "+shape, got, want)

				Fill(col, math.NaN())
				FromSlice(n, C, x).ColSumsInto(col)
				for c := range wcol {
					s := 0.0
					for r := 0; r < n; r++ {
						s += x[r*C+c]
					}
					wcol[c] = s
				}
				sameBits(t, "ColSumsInto "+shape, col, wcol)

				BNNormRows(got, got2, x, mean, g, b, inv)
				for i := range x {
					c := i % C
					d := x[i] - mean[c]
					want2[i] = d
					want[i] = float64(g[c]*d*inv[c]) + b[c]
				}
				sameBits(t, "BNNormRows out "+shape, got, want)
				sameBits(t, "BNNormRows xmu "+shape, got2, want2)

				Fill(col, math.NaN())
				BNSqDevRows(col, x, mean)
				for c := range wcol {
					q := 0.0
					for r := 0; r < n; r++ {
						d := x[r*C+c] - mean[c]
						q += float64(d * d)
					}
					wcol[c] = q
				}
				sameBits(t, "BNSqDevRows "+shape, col, wcol)

				Fill(col, math.NaN())
				Fill(col2, math.NaN())
				BNBwdSumsRows(col, col2, x, y)
				for c := range wcol {
					var sd, sdx float64
					for r := 0; r < n; r++ {
						d := x[r*C+c]
						sd += d
						sdx += float64(d * y[r*C+c])
					}
					wcol[c], wcol2[c] = sd, sdx
				}
				sameBits(t, "BNBwdSumsRows sumD "+shape, col, wcol)
				sameBits(t, "BNBwdSumsRows sumDXmu "+shape, col2, wcol2)

				BNBwdDxRows(got, x, y, g, b, inv)
				for i := range x {
					c := i % C
					want[i] = float64(g[c]*x[i]) - b[c] - float64(inv[c]*y[i])
				}
				sameBits(t, "BNBwdDxRows "+shape, got, want)
			}
		}
	})
}

// TestGemmMaskedTileMatchesScalar holds GemmAcc to the per-element scalar
// sum — dst plus the k products in ascending order — on every shape of
// 1–17 rows by 1–40 columns at k ∈ {0, 1, 7, 50}, for a row-major A and a
// strided one (astep ≠ 1, the Aᵀ·B addressing), with ±0, ±Inf and NaN
// among the inputs, at each dispatch arm the host has. The row counts run
// every mix of 8-row strip, 4-row strip and padded tail. dst and B rows
// are wider than the product, and the columns past it must keep their
// bits: a masked lane is neither read into a sum nor written. GemmInto is
// held to the same sum from +0 with dst's product elements NaN and ±Inf
// beforehand, so a start that read dst would show.
func TestGemmMaskedTileMatchesScalar(t *testing.T) {
	forEachLevel(t, func(t *testing.T) {
		value := mixedValues(53, 200)
		special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		for _, k := range []int{0, 1, 7, 50} {
			for n := 1; n <= 17; n++ {
				for m := 1; m <= 40; m++ {
					for _, strided := range []bool{false, true} {
						lda, astep := k, 1
						if strided {
							lda, astep = 1, n
						}
						ldb, ldc := m+3, m+5
						a, b := make([]float64, n*k), make([]float64, k*ldb)
						dst := make([]float64, n*ldc)
						for _, v := range [][]float64{a, b, dst} {
							for i := range v {
								v[i] = value()
							}
						}
						// scalar returns dst with each product element
						// replaced by from(its old value) plus the k
						// products in ascending order.
						scalar := func(dst []float64, from func(float64) float64) []float64 {
							want := make([]float64, len(dst))
							copy(want, dst)
							for i := 0; i < n; i++ {
								for j := 0; j < m; j++ {
									c := from(want[i*ldc+j])
									for p := 0; p < k; p++ {
										c += float64(a[i*lda+p*astep] * b[p*ldb+j])
									}
									want[i*ldc+j] = c
								}
							}
							return want
						}
						shape := fmt.Sprintf("n=%d k=%d m=%d strided=%v", n, k, m, strided)

						want := scalar(dst, func(c float64) float64 { return c })
						GemmAcc(dst, ldc, a, lda, astep, b, ldb, n, k, m)
						sameBits(t, "GemmAcc "+shape, dst, want)

						for i := 0; i < n; i++ {
							for j := 0; j < m; j++ {
								dst[i*ldc+j] = special[(i+j)%len(special)]
							}
						}
						want = scalar(dst, func(float64) float64 { return 0 })
						GemmInto(dst, ldc, a, lda, astep, b, ldb, n, k, m)
						sameBits(t, "GemmInto "+shape, dst, want)
					}
				}
			}
		}
	})
}

// TestPackTranspose holds TransposeInto to an element-by-element copy, bit
// for bit, on every shape of 1–19 rows by 1–19 columns — full 8×8 blocks,
// with and without ragged edges on either side — and on the shapes the
// workloads transpose, at each dispatch arm the host has.
func TestPackTranspose(t *testing.T) {
	forEachLevel(t, func(t *testing.T) {
		value := mixedValues(7, 20)
		shapes := [][2]int{{64, 32}, {32, 10}, {8, 144}, {16, 36}, {72, 8}}
		for r := 1; r <= 19; r++ {
			for c := 1; c <= 19; c++ {
				shapes = append(shapes, [2]int{r, c})
			}
		}
		for _, s := range shapes {
			r, c := s[0], s[1]
			src, dst, want := make([]float64, r*c), make([]float64, r*c), make([]float64, r*c)
			for i := range src {
				src[i] = value()
			}
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					want[j*r+i] = src[i*c+j]
				}
			}
			TransposeInto(dst, src, r, c)
			for i := range want {
				if g, w := math.Float64bits(dst[i]), math.Float64bits(want[i]); g != w {
					t.Fatalf("TransposeInto(%d,%d) [%d] bits %#x, want %#x", r, c, i, g, w)
				}
			}
		}
	})
}

// TestExpRowMatchesMathExp holds the exp kernel to math.Exp bit for bit
// over 2²⁰ inputs drawn across [-708, 0], the range's ends and zeros of
// both signs, at every length whose last block is masked (1–7 lanes past
// a multiple of 8), and with a non-zero shift m. Out-of-range, NaN and
// infinite arguments must make it report false, and so must any row once
// hasAVX512 is cleared.
func TestExpRowMatchesMathExp(t *testing.T) {
	if !hasAVX512 || !hasFMA {
		t.Skip("the host lacks AVX-512 or FMA")
	}
	r := xrand.New(59)
	x := make([]float64, 1<<20)
	for i := range x {
		x[i] = -708 * r.Float64()
	}
	copy(x, []float64{0, math.Copysign(0, -1), -708, -707.9999999999999, -1e-300, -0.5 * math.Ln2, -math.Ln2})
	check := func(name string, x []float64, m float64) {
		t.Helper()
		got := make([]float64, len(x))
		if !ExpRow(got, x, m) {
			t.Fatalf("%s: ExpRow refused in-range input", name)
		}
		for i, v := range x {
			if g, w := math.Float64bits(got[i]), math.Float64bits(math.Exp(v-m)); g != w {
				t.Fatalf("%s: exp(%v - %v) = %v (bits %#x), want %v (bits %#x)", name, v, m, got[i], g, math.Exp(v-m), w)
			}
		}
	}
	check("sweep", x, 0)
	for n := 1; n <= 23; n++ {
		check(fmt.Sprintf("n=%d", n), x[len(x)-n:], 0)
	}
	shifted := make([]float64, 100)
	for i := range shifted {
		shifted[i] = 3.25 + x[i]
	}
	check("m=3.25", shifted, 3.25)

	for _, bad := range []float64{-708.0000000000001, 1e-300, 1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, n := range []int{1, 5, 8, 13} {
			row := make([]float64, n)
			copy(row, x[:n])
			row[n-1] = bad
			if ExpRow(make([]float64, n), row, 0) {
				t.Fatalf("ExpRow accepted %v at lane %d of %d", bad, n-1, n)
			}
		}
	}

	hasAVX512 = false
	defer func() { hasAVX512 = true }()
	if ExpRow(make([]float64, 8), x[:8], 0) {
		t.Fatal("ExpRow ran its kernel with hasAVX512 cleared")
	}
}
