package tensor

import "sync"

// Register-tiled GEMM shared by the three matmul variants.
//
// The kernel contract that keeps golden histories bit-identical: every
// output element accumulates its k products in ascending-k order, exactly
// like the naive triple loop. Tiling and SIMD change which elements are
// computed together — never the order of additions within one element —
// so the float64 bit patterns match the reference kernels on all finite
// inputs. (The only observable difference is that the reference kernels
// skip av == 0 rows while the tiled path multiplies them through; since a
// running sum that starts at +0 can never become -0, adding the resulting
// ±0 products is a bit-exact no-op. See DESIGN.md "Kernels & wire format".)
//
// Layout: GemmAcc computes dst[r][c] += Σ_p a[r][p]·b[p][c] over
// row-major operands with explicit element strides, a strip of rows at a
// time, each strip split into micro-tiles whose accumulators live in
// registers. Nothing is cache-blocked (the operands of every product the
// models run fit in L2) and only A·Bᵀ packs an operand. On amd64 the
// micro-kernels are hand-written assembly. With AVX-512 the driver walks
// the rows 8 at a time, then takes at most one strip each of 4, 2 and 1
// rows for the remainder, so every row is computed where it lies. A strip
// is one assembly call that walks its own columns: tiles of 16 columns of
// float64, and a remainder of 1–15 columns in one tile with the missing
// lanes masked off, so no column runs scalar code. An 8-row strip loads
// each B row once for eight rows of A, half the B traffic of two 4-row
// strips. With AVX only, the strips are 4 rows of 4×8 tiles, one 4×4 tile
// for a column remainder of four or more, and a scalar loop over the same
// four rows for the last 0–3 columns. Elsewhere a pure-Go register-tiled
// 4×8 kernel with the same accumulation order runs, then the scalar loop.
// Without AVX-512 the last 1–3 rows run gemmRows, a scalar loop in place.
//
// GemmInto computes dst = A·B. Its AVX-512 strips start every accumulator
// at +0 instead of loading dst — the bits a Zero pass would have left there
// — and then add every product as GemmAcc does; the other arms zero dst and
// run GemmAcc.

// gemmMR×gemmNR is the micro-tile shape of the AVX and Go arms: 4×8
// doubles = 8 YMM accumulators. A column remainder of gemmNRHalf or more
// takes one half-width AVX tile (4×4, one YMM per row) before the scalar
// edge loop: the 6×6 feature maps (36 columns) would otherwise leave a
// ninth of every product to it. The AVX-512 strips are gemmMRWide rows
// and fewer, their tiles 16 columns wide.
const (
	gemmMR     = 4
	gemmMRWide = 8
	gemmNR     = 8
	gemmNRHalf = 4
)

// GemmAcc computes dst += A·B for rows [0, n): B is k×m with row stride
// ldb, dst is n×m with row stride ldc, and A is addressed generally — row i,
// element p lives at a[i*lda + p*astep]. A natural row-major operand uses
// (lda = its width, astep = 1); a transposed view uses (lda = 1, astep =
// its width), which lets the Aᵀ·B product stream A without packing. Any
// other spacing works the same way: Conv2D multiplies one kernel tap's
// column of its weights (lda = KH·KW, astep = the weight row width) and a
// sample's shifted channels (lda = H·W) where they lie. dst rows hold the
// caller's starting partial sums; GemmInto is the product from zero.
// Slices must cover the strided extents: the assembly kernels do not check
// bounds, so the last element of each operand is indexed once here, and a
// short slice panics instead of being read or written past its end.
func GemmAcc(dst []float64, ldc int, a []float64, lda, astep int, b []float64, ldb int, n, k, m int) {
	if k == 0 || n == 0 || m == 0 {
		return
	}
	gemm(dst, ldc, a, lda, astep, b, ldb, n, k, m, true)
}

// GemmInto computes dst = A·B over GemmAcc's operands, overwriting the n×m
// elements of dst whatever they held. Every element is the ascending-k sum
// from +0, bit for bit what Zero followed by GemmAcc gives; k = 0 leaves
// them zeroed.
func GemmInto(dst []float64, ldc int, a []float64, lda, astep int, b []float64, ldb int, n, k, m int) {
	if n == 0 || m == 0 {
		return
	}
	if k == 0 || !hasAVX512 {
		for i := 0; i < n; i++ {
			Zero(dst[i*ldc : i*ldc+m])
		}
		GemmAcc(dst, ldc, a, lda, astep, b, ldb, n, k, m)
		return
	}
	gemm(dst, ldc, a, lda, astep, b, ldb, n, k, m, false)
}

// gemm is GemmAcc (load) or, on AVX-512 hosts, GemmInto (!load) for
// n, k, m ≥ 1.
func gemm(dst []float64, ldc int, a []float64, lda, astep int, b []float64, ldb int, n, k, m int, load bool) {
	_, _, _ = dst[(n-1)*ldc+m-1], a[(n-1)*lda+(k-1)*astep], b[(k-1)*ldb+m-1]
	if hasAVX512 {
		gemmStripsAVX512(dst, ldc, a, lda, astep, b, ldb, n, k, m, load)
		return
	}
	i := 0
	for ; n-i >= gemmMR; i += gemmMR {
		gemmStrip(dst[i*ldc:], ldc, a[i*lda:], lda, astep, b, ldb, k, m)
	}
	if i < n {
		gemmRows(dst[i*ldc:], ldc, a[i*lda:], lda, astep, b, ldb, n-i, k, m)
	}
}

// gemmStripsAVX512 walks the rows in strips of 8, then one each of 4, 2
// and 1 rows as the remainder needs. A strip of r rows touches C through
// (r-1)·ldc+m, A through (r-1)·lda+(k-1)·astep+1 and B through
// (k-1)·ldb+m — inside the slices gemm checked, because the strip's rows
// exist and its last tile is masked to the columns left (a masked lane is
// neither read nor written).
func gemmStripsAVX512(dst []float64, ldc int, a []float64, lda, astep int, b []float64, ldb int, n, k, m int, load bool) {
	c, l, s, lb, kk, mm := int64(ldc), int64(lda), int64(astep), int64(ldb), int64(k), int64(m)
	i := 0
	for ; n-i >= gemmMRWide; i += gemmMRWide {
		gemmStrip8AVX512(&dst[i*ldc], &a[i*lda], &b[0], c, l, s, lb, kk, mm, load)
	}
	if n-i >= 4 {
		gemmStrip4AVX512(&dst[i*ldc], &a[i*lda], &b[0], c, l, s, lb, kk, mm, load)
		i += 4
	}
	if n-i >= 2 {
		gemmStrip2AVX512(&dst[i*ldc], &a[i*lda], &b[0], c, l, s, lb, kk, mm, load)
		i += 2
	}
	if i < n {
		gemmStrip1AVX512(&dst[i*ldc], &a[i*lda], &b[0], c, l, s, lb, kk, mm, load)
	}
}

// gemmStrip computes one full gemmMR-row strip on a host without AVX-512:
// 8 columns at a time, then one 4×4 tile (AVX), then the scalar edge.
// Columns are independent elements, so the width cannot change a bit. The
// assembly kernels touch C through 3·ldc+width, A through
// 3·lda+(k-1)·astep+1 and B through (k-1)·ldb+width.
func gemmStrip(dst []float64, ldc int, a []float64, lda, astep int, b []float64, ldb int, k, m int) {
	j := 0
	for ; m-j >= gemmNR; j += gemmNR {
		gemmKernel(dst[j:], ldc, a, lda, astep, b[j:], ldb, k)
	}
	if hasAVX && m-j >= gemmNRHalf {
		gemmKernel4x4AVX(&dst[j], &a[0], &b[j], int64(ldc), int64(lda), int64(astep), int64(ldb), int64(k))
		j += gemmNRHalf
	}
	if j < m {
		gemmEdge(dst[j:], ldc, a, lda, astep, b[j:], ldb, k, m-j)
	}
}

// gemmRows computes the 1–3 rows past the last full strip on a host
// without AVX-512, in place: per row, four columns at a time with their
// sums in locals, so four independent chains overlap, then the last 0–3
// columns one at a time. Each element adds its k products to what dst
// held in ascending k, as the tiles do.
func gemmRows(dst []float64, ldc int, a []float64, lda, astep int, b []float64, ldb int, rows, k, m int) {
	for r := 0; r < rows; r++ {
		arow, crow := a[r*lda:], dst[r*ldc:r*ldc+m]
		j := 0
		for ; j+4 <= m; j += 4 {
			c0, c1, c2, c3 := crow[j], crow[j+1], crow[j+2], crow[j+3]
			bi, ai := j, 0
			for p := 0; p < k; p++ {
				av, bp := arow[ai], b[bi:bi+4]
				c0 += float64(av * bp[0])
				c1 += float64(av * bp[1])
				c2 += float64(av * bp[2])
				c3 += float64(av * bp[3])
				bi += ldb
				ai += astep
			}
			crow[j], crow[j+1], crow[j+2], crow[j+3] = c0, c1, c2, c3
		}
		for ; j < m; j++ {
			c, bi, ai := crow[j], j, 0
			for p := 0; p < k; p++ {
				c += float64(arow[ai] * b[bi])
				bi += ldb
				ai += astep
			}
			crow[j] = c
		}
	}
}

// gemmEdge handles the columns of a strip past its last tile on hosts
// without AVX-512 (fewer than gemmNRHalf with AVX, than gemmNR without) with the same per-element
// ascending-k accumulation as the micro-kernels: four accumulators in
// locals, each B element shared across the strip's rows.
func gemmEdge(dst []float64, ldc int, a []float64, lda, astep int, b []float64, ldb int, k, cols int) {
	a0 := a
	a1 := a[lda:]
	a2 := a[2*lda:]
	a3 := a[3*lda:]
	for j := 0; j < cols; j++ {
		c0, c1, c2, c3 := dst[j], dst[ldc+j], dst[2*ldc+j], dst[3*ldc+j]
		bi, ai := j, 0
		for p := 0; p < k; p++ {
			bv := b[bi]
			c0 += float64(a0[ai] * bv)
			c1 += float64(a1[ai] * bv)
			c2 += float64(a2[ai] * bv)
			c3 += float64(a3[ai] * bv)
			bi += ldb
			ai += astep
		}
		dst[j], dst[ldc+j], dst[2*ldc+j], dst[3*ldc+j] = c0, c1, c2, c3
	}
}

// gemmKernelGo is the portable micro-kernel: a full gemmMR×gemmNR tile with
// accumulators in locals so C traffic happens once per tile instead of once
// per k step. Per-element accumulation ascends k, matching the assembly
// kernel and the naive loops bit for bit.
func gemmKernelGo(dst []float64, ldc int, a []float64, lda, astep int, b []float64, ldb int, k int) {
	var (
		c00, c01, c02, c03, c04, c05, c06, c07 float64
		c10, c11, c12, c13, c14, c15, c16, c17 float64
		c20, c21, c22, c23, c24, c25, c26, c27 float64
		c30, c31, c32, c33, c34, c35, c36, c37 float64
	)
	r0 := dst[0:gemmNR]
	r1 := dst[ldc : ldc+gemmNR]
	r2 := dst[2*ldc : 2*ldc+gemmNR]
	r3 := dst[3*ldc : 3*ldc+gemmNR]
	c00, c01, c02, c03, c04, c05, c06, c07 = r0[0], r0[1], r0[2], r0[3], r0[4], r0[5], r0[6], r0[7]
	c10, c11, c12, c13, c14, c15, c16, c17 = r1[0], r1[1], r1[2], r1[3], r1[4], r1[5], r1[6], r1[7]
	c20, c21, c22, c23, c24, c25, c26, c27 = r2[0], r2[1], r2[2], r2[3], r2[4], r2[5], r2[6], r2[7]
	c30, c31, c32, c33, c34, c35, c36, c37 = r3[0], r3[1], r3[2], r3[3], r3[4], r3[5], r3[6], r3[7]
	a0 := a[0:]
	a1 := a[lda:]
	a2 := a[2*lda:]
	a3 := a[3*lda:]
	ai := 0
	for p := 0; p < k; p++ {
		brow := b[p*ldb : p*ldb+gemmNR]
		b0, b1, b2, b3, b4, b5, b6, b7 := brow[0], brow[1], brow[2], brow[3], brow[4], brow[5], brow[6], brow[7]
		av := a0[ai]
		c00 += float64(av * b0)
		c01 += float64(av * b1)
		c02 += float64(av * b2)
		c03 += float64(av * b3)
		c04 += float64(av * b4)
		c05 += float64(av * b5)
		c06 += float64(av * b6)
		c07 += float64(av * b7)
		av = a1[ai]
		c10 += float64(av * b0)
		c11 += float64(av * b1)
		c12 += float64(av * b2)
		c13 += float64(av * b3)
		c14 += float64(av * b4)
		c15 += float64(av * b5)
		c16 += float64(av * b6)
		c17 += float64(av * b7)
		av = a2[ai]
		c20 += float64(av * b0)
		c21 += float64(av * b1)
		c22 += float64(av * b2)
		c23 += float64(av * b3)
		c24 += float64(av * b4)
		c25 += float64(av * b5)
		c26 += float64(av * b6)
		c27 += float64(av * b7)
		av = a3[ai]
		c30 += float64(av * b0)
		c31 += float64(av * b1)
		c32 += float64(av * b2)
		c33 += float64(av * b3)
		c34 += float64(av * b4)
		c35 += float64(av * b5)
		c36 += float64(av * b6)
		c37 += float64(av * b7)
		ai += astep
	}
	r0[0], r0[1], r0[2], r0[3], r0[4], r0[5], r0[6], r0[7] = c00, c01, c02, c03, c04, c05, c06, c07
	r1[0], r1[1], r1[2], r1[3], r1[4], r1[5], r1[6], r1[7] = c10, c11, c12, c13, c14, c15, c16, c17
	r2[0], r2[1], r2[2], r2[3], r2[4], r2[5], r2[6], r2[7] = c20, c21, c22, c23, c24, c25, c26, c27
	r3[0], r3[1], r3[2], r3[3], r3[4], r3[5], r3[6], r3[7] = c30, c31, c32, c33, c34, c35, c36, c37
}

// packPool recycles the A·Bᵀ transpose panels and the softmax's transposed
// batches so the kernels stay allocation-free in steady state.
var packPool = sync.Pool{New: func() any { s := make([]float64, 0, 4096); return &s }}

func getPanel(n int) *[]float64 {
	p := packPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

func putPanel(p *[]float64) { packPool.Put(p) }

// TransposeInto writes srcᵀ into dst: src is r×c row-major, dst becomes
// c×r row-major. On AVX-512 hosts the 8×8 blocks that fit go through ZMM
// registers; the rest, and every element elsewhere, takes transposeRows.
// Pure data movement: every value keeps its bits.
func TransposeInto(dst, src []float64, r, c int) {
	_, _ = dst[:r*c], src[:r*c]
	rb, cb := 0, 0
	if hasAVX512 && r >= 8 && c >= 8 {
		rb, cb = r&^7, c&^7
		transposeAVX512(&dst[0], &src[0], int64(r), int64(c), int64(rb), int64(cb))
	}
	transposeRows(dst, src, r, c, 0, rb, cb)
	transposeRows(dst, src, r, c, rb, r, 0)
}

// transposeRows transposes columns [j0, c) of src rows [lo, hi) into dst
// (see TransposeInto). Four source rows at a time, so each pass reads four
// rows in order and writes four adjacent elements of every dst row; a
// leftover row is written element by element.
func transposeRows(dst, src []float64, r, c, lo, hi, j0 int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		s0 := src[i*c+j0 : i*c+c]
		s1 := src[(i+1)*c+j0:][:len(s0)]
		s2 := src[(i+2)*c+j0:][:len(s0)]
		s3 := src[(i+3)*c+j0:][:len(s0)]
		for j := range s0 {
			d := dst[(j0+j)*r+i:][:4]
			d[0], d[1], d[2], d[3] = s0[j], s1[j], s2[j], s3[j]
		}
	}
	for ; i < hi; i++ {
		for j, v := range src[i*c+j0 : i*c+c] {
			dst[(j0+j)*r+i] = v
		}
	}
}
