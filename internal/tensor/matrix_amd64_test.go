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
// every mix of 8-, 4-, 2- and 1-row strip (and, without AVX-512, of 4-row
// strip and the in-place loop over the last 1–3 rows). A's rows are
// longer than k, and dst and B are wider than the product and dst two
// rows longer: the rows below the product and the columns past it must
// keep their bits, so a masked lane is neither read into a sum nor
// written, and a strip touches only its own rows. GemmInto is held to the
// same sum from +0 with dst's product elements NaN and ±Inf beforehand,
// so a start that read dst would show.
func TestGemmMaskedTileMatchesScalar(t *testing.T) {
	forEachLevel(t, func(t *testing.T) {
		value := mixedValues(53, 200)
		special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		for _, k := range []int{0, 1, 7, 50} {
			for n := 1; n <= 17; n++ {
				for m := 1; m <= 40; m++ {
					for _, strided := range []bool{false, true} {
						lda, astep := k+2, 1
						if strided {
							lda, astep = 1, n
						}
						ldb, ldc := m+3, m+5
						a, b := make([]float64, n*(k+2)), make([]float64, k*ldb)
						dst := make([]float64, (n+2)*ldc)
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
// both signs, and at every length whose last block is masked (1–7 lanes
// past a multiple of 8). Out-of-range, NaN and infinite arguments must
// make it report false, and so must any row once hasAVX512 is cleared.
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
	check := func(name string, x []float64) {
		t.Helper()
		got := make([]float64, len(x))
		if !ExpRow(got, x) {
			t.Fatalf("%s: ExpRow refused in-range input", name)
		}
		for i, v := range x {
			if g, w := math.Float64bits(got[i]), math.Float64bits(math.Exp(v)); g != w {
				t.Fatalf("%s: exp(%v) = %v (bits %#x), want %v (bits %#x)", name, v, got[i], g, math.Exp(v), w)
			}
		}
	}
	check("sweep", x)
	for n := 1; n <= 23; n++ {
		check(fmt.Sprintf("n=%d", n), x[len(x)-n:])
	}

	for _, bad := range []float64{-708.0000000000001, 1e-300, 1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, n := range []int{1, 5, 8, 13} {
			row := make([]float64, n)
			copy(row, x[:n])
			row[n-1] = bad
			if ExpRow(make([]float64, n), row) {
				t.Fatalf("ExpRow accepted %v at lane %d of %d", bad, n-1, n)
			}
		}
	}

	hasAVX512 = false
	defer func() { hasAVX512 = true }()
	if ExpRow(make([]float64, 8), x[:8]) {
		t.Fatal("ExpRow ran its kernel with hasAVX512 cleared")
	}
}

// TestSoftmaxRowsMatchesPerRow holds the batch softmax to the per-row code
// the losses ran before it — Max, math.Exp(x − m) summed left to right,
// 1/sum, one product per class — bit for bit, on every batch of 1–17 rows
// by 1–20 classes, at each dispatch arm the host has. The rows mix in
// zeros of both signs (so the maximum ties on ±0), NaN as a row's first
// element and elsewhere, ±Inf, and spreads whose x − m falls below −708,
// where the exp kernel gives up and math.Exp takes the whole batch. p is
// written in place of x as well as beside it.
func TestSoftmaxRowsMatchesPerRow(t *testing.T) {
	forEachLevel(t, func(t *testing.T) {
		// Finite rows keep the exp kernel's path open; a NaN or an infinity
		// anywhere in the batch, or a spread of 1000, closes it.
		finite, mixed := mixedValues(67, 1<<30), mixedValues(69, 40)
		r := xrand.New(71)
		for n := 1; n <= 17; n++ {
			for C := 1; C <= 20; C++ {
				for _, v := range []struct {
					spread float64
					value  func() float64
				}{{1, finite}, {1, mixed}, {1000, finite}} {
					spread := v.spread
					x := make([]float64, n*C)
					for i := range x {
						x[i] = spread * v.value()
					}
					switch r.Intn(4) {
					case 0: // a ±0 tie for the maximum
						row := r.Intn(n) * C
						for j := 0; j < C; j++ {
							x[row+j] = -1 - float64(j)
						}
						x[row] = math.Copysign(0, -1)
						x[row+r.Intn(C)] = 0
					case 1: // NaN first in a row
						x[r.Intn(n)*C] = math.NaN()
					}
					want := make([]float64, len(x))
					for o := 0; o < len(x); o += C {
						row := x[o : o+C]
						m := row[0]
						for _, v := range row[1:] {
							if v > m {
								m = v
							}
						}
						sum := 0.0
						for j, v := range row {
							e := math.Exp(v - m)
							want[o+j] = e
							sum += e
						}
						inv := 1 / sum
						for j := range row {
							want[o+j] *= inv
						}
					}
					shape := fmt.Sprintf("%dx%d spread=%v", n, C, spread)
					got := make([]float64, len(x))
					SoftmaxRows(got, x, C)
					sameBits(t, "SoftmaxRows "+shape, got, want)
					SoftmaxRows(x, x, C)
					sameBits(t, "SoftmaxRows in place "+shape, x, want)
				}
			}
		}
	})
}

// TestSGDStepMatchesPasses holds the one-pass local step to the passes it
// replaced — the prox loop, AddVec, Lerp, then Axpy(w, −lr, g) — bit for
// bit, with every combination of the three optional terms, on every length
// of 0–40 and a network's 5930, with ±0, ±Inf and NaN among the inputs, at
// each dispatch arm the host has. g must keep its bits.
func TestSGDStepMatchesPasses(t *testing.T) {
	forEachLevel(t, func(t *testing.T) {
		value := mixedValues(73, 50)
		vec := func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = value()
			}
			return v
		}
		const mu, lr, alpha = 0.01, 0.05, 0.1
		lengths := []int{5930}
		for n := 0; n <= 40; n++ {
			lengths = append(lengths, n)
		}
		for _, n := range lengths {
			for terms := 0; terms < 8; terms++ {
				w, g, ref, corr, mom := vec(n), vec(n), vec(n), vec(n), vec(n)
				var st StepTerms
				want, gref := CopyVec(w), CopyVec(g)
				if terms&1 != 0 {
					st.ProxMu, st.ProxRef = mu, ref
					for j := range gref {
						gref[j] += float64(mu * (w[j] - ref[j]))
					}
				}
				if terms&2 != 0 {
					st.Correction = corr
					AddVec(gref, corr)
				}
				if terms&4 != 0 {
					st.Alpha, st.Momentum = alpha, mom
					Lerp(gref, alpha, gref, mom)
				}
				Axpy(want, -lr, gref)
				g0 := CopyVec(g)
				SGDStep(w, g, lr, st)
				name := fmt.Sprintf("n=%d terms=%03b", n, terms)
				sameBits(t, "SGDStep w "+name, w, want)
				sameBits(t, "SGDStep g "+name, g, g0)
			}
		}
	})
}

// TestBatchNormChannelKernelsMatchScalarBits holds the per-channel steps
// of a BatchNorm — the mean's division, the running-stat update with
// 1/√(var+ε), 1/√(var+ε) alone, and the backward's gradient sums and dx
// constants — to their scalar expressions, bit for bit, on 0–40 channels
// with ±0, ±Inf and NaN among the inputs, at each dispatch arm the host
// has.
func TestBatchNormChannelKernelsMatchScalarBits(t *testing.T) {
	forEachLevel(t, func(t *testing.T) {
		value := mixedValues(83, 8)
		vec := func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = math.Abs(value())
			}
			return v
		}
		const m, mom, eps = 50, 0.1, 1e-5
		for C := 0; C <= 40; C++ {
			mean, sq, rm, rv := vec(C), vec(C), vec(C), vec(C)
			want := CopyVec(mean)
			for c := range want {
				want[c] /= m
			}
			DivScalar(mean, m)
			sameBits(t, fmt.Sprintf("DivScalar C=%d", C), mean, want)

			wrm, wrv, winv := CopyVec(rm), CopyVec(rv), make([]float64, C)
			for c := 0; c < C; c++ {
				variance := sq[c] / m
				wrm[c] = float64((1-mom)*wrm[c]) + float64(mom*mean[c])
				wrv[c] = float64((1-mom)*wrv[c]) + float64(mom*variance)
				winv[c] = 1 / math.Sqrt(variance+eps)
			}
			inv := make([]float64, C)
			BNRunStats(rm, rv, inv, mean, sq, m, mom, eps)
			sameBits(t, fmt.Sprintf("BNRunStats runMean C=%d", C), rm, wrm)
			sameBits(t, fmt.Sprintf("BNRunStats runVar C=%d", C), rv, wrv)
			sameBits(t, fmt.Sprintf("BNRunStats inv C=%d", C), inv, winv)

			for c := range winv {
				winv[c] = 1 / math.Sqrt(rv[c]+eps)
			}
			InvSqrtInto(inv, rv, eps)
			sameBits(t, fmt.Sprintf("InvSqrtInto C=%d", C), inv, winv)

			sd, sdx, bg, gg, g := vec(C), vec(C), vec(C), vec(C), vec(C)
			for _, v := range [][]float64{sd, sdx, bg, g} {
				for c := range v {
					v[c] = math.Copysign(v[c], value())
				}
			}
			wkg, wsd, wsdx, wbg, wgg := make([]float64, C), CopyVec(sd), CopyVec(sdx), CopyVec(bg), CopyVec(gg)
			for c := 0; c < C; c++ {
				wbg[c] += wsd[c]
				wgg[c] += float64(wsdx[c] * inv[c])
				wkg[c] = g[c] * inv[c]
				wsd[c] = g[c] * inv[c] / m * wsd[c]
				wsdx[c] = g[c] * inv[c] * inv[c] * inv[c] / m * wsdx[c]
			}
			kg := make([]float64, C)
			BNBwdConsts(kg, sd, sdx, bg, gg, g, inv, m)
			name := fmt.Sprintf("BNBwdConsts C=%d", C)
			sameBits(t, name+" kg", kg, wkg)
			sameBits(t, name+" sumD", sd, wsd)
			sameBits(t, name+" sumDXmu", sdx, wsdx)
			sameBits(t, name+" betaGrad", bg, wbg)
			sameBits(t, name+" gammaGrad", gg, wgg)
		}
	})
}
