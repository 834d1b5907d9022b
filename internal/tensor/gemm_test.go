package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The tiled GEMM path promises bit-identical results to the retained
// reference kernels (matmulRange / matmulBTRange / matmulATRange). These
// tests check exact float64 bit equality on random shapes, deliberately
// including dimensions that are not multiples of the 4×8 micro-tile so
// every edge-tile path runs. CI runs this package under -race as well.

func randDenseMixed(rng *rand.Rand, r, c int) *Dense {
	d := NewDense(r, c)
	for i := range d.Data {
		switch rng.Intn(10) {
		case 0:
			d.Data[i] = 0 // exercise the reference kernels' zero-skip
		case 1:
			d.Data[i] = math.Copysign(0, -1) // negative zero
		default:
			d.Data[i] = rng.NormFloat64()
		}
	}
	return d
}

func bitsEqual(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	if got.R != want.R || got.C != want.C {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.R, got.C, want.R, want.C)
	}
	for i := range want.Data {
		g, w := math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i])
		if g != w {
			t.Fatalf("%s: element %d = %v (bits %#x), want %v (bits %#x)",
				name, i, got.Data[i], g, want.Data[i], w)
		}
	}
}

// gemmShapes mixes exact multiples of the micro-tile with ragged edges,
// tiny shapes below one tile, and the real layer shapes used by the models.
var gemmShapes = [][3]int{
	{4, 4, 8}, {8, 16, 8}, {12, 8, 16}, // exact tiles
	{1, 1, 1}, {3, 5, 7}, {2, 9, 3}, // below one tile
	{5, 13, 9}, {7, 31, 17}, {13, 6, 29}, {33, 12, 41}, // ragged edges
	{32, 48, 64}, {32, 64, 32}, {32, 32, 10}, // MLP layers
	{16, 27, 144}, {10, 64, 1}, // conv im2col, matvec-like
}

// Column counts ≡ 4…7 (mod 8) take the 4×4 remainder tile and then leave
// 0…3 columns to the scalar edge (without AVX-512; with it, every remainder
// of 1–15 takes the masked tile); inner sizes 1, 27 and 144 are the
// shortest sum and the conv layers' own. Each pair appears with the inner
// size second (MatMul, MatMulBT) and first (MatMulAT), over 6 rows: one
// 4-row strip plus two leftover rows (a 2-row strip on AVX-512 hosts).
//
// Then the leftover rows themselves: every remainder below, around and
// far past one strip (50 is the preset batch) against the k×m of the MLP's
// own products — forward and Aᵀ·B as (48,64) (64,32) (32,10), A·Bᵀ as their
// mirrors — and against the widths at which a strip hands over from the
// 16-wide tile to the 8-wide, the 4-wide and the scalar edge. The last two
// shapes are large enough to split into four row chunks.
func init() {
	for _, m := range []int{4, 5, 6, 7, 12, 13, 14, 15, 36, 39} {
		for _, k := range []int{1, 27, 144} {
			gemmShapes = append(gemmShapes, [3]int{6, k, m}, [3]int{k, 6, m})
		}
	}
	for _, n := range []int{1, 2, 3, 5, 6, 7, 49, 50, 51} {
		for _, km := range [][2]int{{48, 64}, {64, 32}, {32, 10}, {64, 48}, {32, 64}, {10, 32}} {
			gemmShapes = append(gemmShapes, [3]int{n, km[0], km[1]}, [3]int{km[0], n, km[1]})
		}
		for _, m := range []int{16, 17, 24, 31, 36, 144} {
			gemmShapes = append(gemmShapes, [3]int{n, 9, m}, [3]int{9, n, m})
		}
	}
	gemmShapes = append(gemmShapes, [3]int{51, 144, 144}, [3]int{144, 51, 144})
}

// nanDense returns an r×c matrix of NaN: an *Into call that leaves a row
// unwritten — a tail strip not copied back — cannot pass for zero.
func nanDense(r, c int) *Dense {
	d := NewDense(r, c)
	Fill(d.Data, math.NaN())
	return d
}

func TestMatMulIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range gemmShapes {
		n, k, m := s[0], s[1], s[2]
		a, b := randDenseMixed(rng, n, k), randDenseMixed(rng, k, m)
		want := NewDense(n, m)
		matmulRange(want, a, b, 0, n)
		got := nanDense(n, m)
		MatMulInto(got, a, b)
		bitsEqual(t, "MatMulInto", got, want)
	}
}

func TestMatMulBTIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, s := range gemmShapes {
		n, k, m := s[0], s[1], s[2]
		a, b := randDenseMixed(rng, n, k), randDenseMixed(rng, m, k)
		want := NewDense(n, m)
		matmulBTRange(want, a, b, 0, n)
		got := nanDense(n, m)
		MatMulBTInto(got, a, b)
		bitsEqual(t, "MatMulBTInto", got, want)
	}
}

func TestMatMulATIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, s := range gemmShapes {
		n, r, c := s[0], s[1], s[2]
		a, b := randDenseMixed(rng, n, r), randDenseMixed(rng, n, c)
		want := NewDense(r, c)
		matmulATRange(want, a, b, 0, r)
		got := nanDense(r, c)
		MatMulATInto(got, a, b)
		bitsEqual(t, "MatMulATInto", got, want)
	}
}

// TestGemmBlockAccumulatesIntoDst pins GemmAcc's own contract on shapes
// with leftover rows: dst holds the caller's starting partial sums, and
// each element continues from its own — in the leftover rows' strips too,
// for both A addressings. The reference is the scalar loop from the same start.
func TestGemmBlockAccumulatesIntoDst(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, s := range [][3]int{{3, 5, 7}, {6, 27, 36}, {50, 48, 64}, {51, 32, 10}, {7, 9, 31}} {
		n, k, m := s[0], s[1], s[2]
		a, at, b := randDenseMixed(rng, n, k), NewDense(k, n), randDenseMixed(rng, k, m)
		TransposeInto(at.Data, a.Data, n, k)
		start := randDenseMixed(rng, n, m)
		want := NewDense(n, m)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				sum := start.Data[i*m+j]
				for p := 0; p < k; p++ {
					sum += a.Data[i*k+p] * b.Data[p*m+j]
				}
				want.Data[i*m+j] = sum
			}
		}
		got := NewDense(n, m)
		copy(got.Data, start.Data)
		GemmAcc(got.Data, m, a.Data, k, 1, b.Data, m, n, k, m)
		bitsEqual(t, "GemmAcc row-major A", got, want)
		copy(got.Data, start.Data)
		GemmAcc(got.Data, m, at.Data, 1, n, b.Data, m, n, k, m)
		bitsEqual(t, "GemmAcc transposed A", got, want)
	}
}

// TestMatMulBTSwappedIsTranspose pins the identity Conv2D.Backward rests on:
// dOut·colsᵀ accumulated into dW equals (cols·dOutᵀ)ᵀ accumulated into dW,
// bit for bit — the products commute, the sums ascend the same index, and
// each element is followed by the same single add. Shapes are the per-sample
// ones ResNetLite runs at width 8 (OutC, p, k).
func TestMatMulBTSwappedIsTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, s := range [][3]int{{8, 144, 27}, {8, 144, 72}, {16, 36, 72}, {16, 36, 144}, {3, 35, 50}} {
		outC, p, k := s[0], s[1], s[2]
		dout, cols := randDenseMixed(rng, outC, p), randDenseMixed(rng, k, p)
		want, got := randDenseMixed(rng, outC, k), NewDense(outC, k)
		copy(got.Data, want.Data)

		dw := NewDense(outC, k)
		matmulBTRange(dw, dout, cols, 0, outC)
		AddVec(want.Data, dw.Data)

		dwT := NewDense(k, outC)
		MatMulBTInto(dwT, cols, dout)
		for oc := 0; oc < outC; oc++ {
			for i := 0; i < k; i++ {
				got.Data[oc*k+i] += dwT.Data[i*outC+oc]
			}
		}
		bitsEqual(t, "dW via dWᵀ", got, want)
	}
}

// TestMatMulIntoAllocFree: the *Into variants must not allocate at any
// size — a conv layer calls them three times per sample, and the MLP's
// 50-row batch sends its A·B and A·Bᵀ products through the pooled tail
// strip.
func TestMatMulIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the panel pool allocates under -race")
	}
	for _, s := range [][3]int{
		{8, 72, 144},   // ResNetLite stage-1 body conv, per sample
		{50, 64, 32},   // MLP second layer at the preset batch: 48 rows + 2
		{51, 144, 144}, // the largest gemm test shape, leftover rows included
	} {
		n, k, m := s[0], s[1], s[2]
		a, b, bt, c := NewDense(n, k), NewDense(k, m), NewDense(m, k), NewDense(n, m)
		dst, dstAT := NewDense(n, m), NewDense(k, m)
		for name, fn := range map[string]func(){
			"MatMulInto":   func() { MatMulInto(dst, a, b) },
			"MatMulBTInto": func() { MatMulBTInto(dst, a, bt) },
			"MatMulATInto": func() { MatMulATInto(dstAT, a, c) },
		} {
			if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
				t.Errorf("%s %dx%dx%d allocates %v times per call, want 0", name, n, k, m, allocs)
			}
		}
	}
}

// TestMatVecIntoMatchesMatVec pins the matrix-vector shape (a one-row B) of
// the tiled MatMulBTInto against the BT reference kernel.
func TestMatVecIntoMatchesMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randDenseMixed(rng, 13, 29)
	x := randDenseMixed(rng, 1, 29)
	got := NewDense(13, 1)
	MatMulBTInto(got, a, x)
	want := NewDense(13, 1)
	matmulBTRange(want, a, x, 0, 13)
	bitsEqual(t, "A·x", got, want)
}

func TestMatVecIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the panel pool allocates under -race")
	}
	a := NewDense(32, 48)
	x := NewDense(1, 48)
	dst := NewDense(32, 1)
	MatMulBTInto(dst, a, x) // warm the panel pool
	allocs := testing.AllocsPerRun(100, func() { MatMulBTInto(dst, a, x) })
	if allocs != 0 {
		t.Fatalf("A·x through MatMulBTInto allocates %v times per call, want 0", allocs)
	}
}

// TestGemmSpecialValues documents the one intentional divergence class: the
// reference kernels skip zero A elements while the tiled path multiplies
// them through. For finite B that is a bit-exact no-op (checked above with
// injected ±0); with non-finite B opposite a zero A element the paths may
// differ (0·Inf = NaN is skipped by the reference). This test pins the
// equivalence for finite data containing zeros of both signs at scale.
func TestGemmZeroHeavyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a, b := NewDense(17, 23), randDenseMixed(rng, 23, 19)
	for i := range a.Data {
		// 70% zeros to hammer the skip path.
		if rng.Intn(10) < 7 {
			a.Data[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		} else {
			a.Data[i] = rng.NormFloat64()
		}
	}
	got := NewDense(17, 19)
	MatMulInto(got, a, b)
	want := NewDense(17, 19)
	matmulRange(want, a, b, 0, 17)
	bitsEqual(t, "zero-heavy MatMul", got, want)
}
