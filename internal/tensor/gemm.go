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
// Layout: gemmBlock computes dst[r][c] += Σ_p a[r][p]·b[p][c] over
// row-major operands with explicit element strides, four rows at a time,
// each strip split into micro-tiles whose accumulators live in registers.
// Nothing is cache-blocked (the operands of every product the models run
// fit in L2) and only A·Bᵀ packs an operand. On amd64 the micro-kernels
// are hand-written assembly — 4 rows × 16 columns of float64 with AVX-512,
// 4×8 with AVX, and a 4×4 one for a column remainder of four or more;
// elsewhere a pure-Go register-tiled 4×8 kernel with the same accumulation
// order runs instead. Columns past the last tile take a scalar loop over
// the same four rows, and rows past the last full strip are padded to a
// strip of their own (gemmTailRows), so no row count runs scalar code.

// gemmMR×gemmNR is the micro-tile shape: 4×8 doubles = 8 YMM accumulators.
// With AVX-512 a strip takes its columns gemmNRWide at a time first (the
// same tile in 8 ZMM accumulators). A column remainder of gemmNRHalf or
// more takes one half-width AVX tile (4×4, one YMM per row) before the
// scalar edge loop: the 6×6 feature maps (36 columns) would otherwise leave
// a ninth of every product to it.
const (
	gemmMR     = 4
	gemmNRWide = 16
	gemmNR     = 8
	gemmNRHalf = 4
)

// gemmBlock computes dst += A·B for rows [0, n): B is k×m with row stride
// ldb, dst is n×m with row stride ldc, and A is addressed generally — row i,
// element p lives at a[i*lda + p*astep]. A natural row-major operand uses
// (lda = its width, astep = 1); a transposed view uses (lda = 1, astep =
// its width), which lets the Aᵀ·B product stream A without packing. dst
// rows must hold the caller's intended starting partial sums (usually
// zero). Slices must cover the strided extents.
func gemmBlock(dst []float64, ldc int, a []float64, lda, astep int, b []float64, ldb int, n, k, m int) {
	if k == 0 || n == 0 || m == 0 {
		return
	}
	nFull := n - n%gemmMR
	for i := 0; i < nFull; i += gemmMR {
		gemmStrip(dst[i*ldc:], ldc, a[i*lda:], lda, astep, b, ldb, k, m)
	}
	if nFull < n {
		gemmTailRows(dst[nFull*ldc:], ldc, a[nFull*lda:], lda, astep, b, ldb, n-nFull, k, m)
	}
}

// gemmStrip computes one full gemmMR-row strip of gemmBlock. The tile width
// is chosen by the columns that remain and the CPU alone: 16 while at least
// 16 remain (AVX-512), then 8, then one 4×4 tile (AVX), then the scalar
// edge. Columns are independent elements, so the width cannot change a bit.
// The assembly kernels touch C through 3·ldc+width, A through
// 3·lda+(k-1)·astep+1 and B through (k-1)·ldb+width — inside the caller's
// slices because the strip is full and the tile fits the remaining columns.
func gemmStrip(dst []float64, ldc int, a []float64, lda, astep int, b []float64, ldb int, k, m int) {
	j := 0
	if hasAVX512 {
		for ; m-j >= gemmNRWide; j += gemmNRWide {
			gemmKernel4x16AVX512(&dst[j], &a[0], &b[j], int64(ldc), int64(lda), int64(astep), int64(ldb), int64(k))
		}
	}
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

// gemmTailRows computes the rows (fewer than gemmMR) past the last full
// strip: it copies them, and their dst rows, into one zero-padded strip in
// a pooled panel, runs gemmStrip on it and copies the real rows back. An
// element's sum starts from the same value and adds the same products in
// the same order as it would in place — the padded rows never enter it —
// so every bit, the sign of a zero included, is what a scalar dot gives;
// the padding costs up to 4× the arithmetic at ≈ 16× the speed.
func gemmTailRows(dst []float64, ldc int, a []float64, lda, astep int, b []float64, ldb int, rows, k, m int) {
	panel := getPanel(gemmMR * (k + m))
	ap, cp := (*panel)[:gemmMR*k], (*panel)[gemmMR*k:]
	for r := 0; r < rows; r++ {
		arow, prow := a[r*lda:], ap[r*k:(r+1)*k]
		for p := range prow {
			prow[p] = arow[p*astep]
		}
		copy(cp[r*m:(r+1)*m], dst[r*ldc:])
	}
	Zero(ap[rows*k:])
	Zero(cp[rows*m:])
	gemmStrip(cp, m, ap, k, 1, b, ldb, k, m)
	for r := 0; r < rows; r++ {
		copy(dst[r*ldc:r*ldc+m], cp[r*m:])
	}
	putPanel(panel)
}

// gemmEdge handles the columns of a strip past its last tile (fewer than
// gemmNRHalf with AVX, than gemmNR without) with the same per-element
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
			c0 += a0[ai] * bv
			c1 += a1[ai] * bv
			c2 += a2[ai] * bv
			c3 += a3[ai] * bv
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
		c00 += av * b0
		c01 += av * b1
		c02 += av * b2
		c03 += av * b3
		c04 += av * b4
		c05 += av * b5
		c06 += av * b6
		c07 += av * b7
		av = a1[ai]
		c10 += av * b0
		c11 += av * b1
		c12 += av * b2
		c13 += av * b3
		c14 += av * b4
		c15 += av * b5
		c16 += av * b6
		c17 += av * b7
		av = a2[ai]
		c20 += av * b0
		c21 += av * b1
		c22 += av * b2
		c23 += av * b3
		c24 += av * b4
		c25 += av * b5
		c26 += av * b6
		c27 += av * b7
		av = a3[ai]
		c30 += av * b0
		c31 += av * b1
		c32 += av * b2
		c33 += av * b3
		c34 += av * b4
		c35 += av * b5
		c36 += av * b6
		c37 += av * b7
		ai += astep
	}
	r0[0], r0[1], r0[2], r0[3], r0[4], r0[5], r0[6], r0[7] = c00, c01, c02, c03, c04, c05, c06, c07
	r1[0], r1[1], r1[2], r1[3], r1[4], r1[5], r1[6], r1[7] = c10, c11, c12, c13, c14, c15, c16, c17
	r2[0], r2[1], r2[2], r2[3], r2[4], r2[5], r2[6], r2[7] = c20, c21, c22, c23, c24, c25, c26, c27
	r3[0], r3[1], r3[2], r3[3], r3[4], r3[5], r3[6], r3[7] = c30, c31, c32, c33, c34, c35, c36, c37
}

// packPool recycles the A·Bᵀ transpose panels and the padded tail strips so
// the kernels stay allocation-free in steady state.
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

// packTranspose writes srcᵀ into dst: src is r×c row-major, dst becomes
// c×r row-major. Blocked 8×8 so both sides stream through cache lines.
func packTranspose(dst, src []float64, r, c int) {
	const bs = 8
	for i0 := 0; i0 < r; i0 += bs {
		i1 := i0 + bs
		if i1 > r {
			i1 = r
		}
		for j0 := 0; j0 < c; j0 += bs {
			j1 := j0 + bs
			if j1 > c {
				j1 = c
			}
			for i := i0; i < i1; i++ {
				row := src[i*c : i*c+c]
				for j := j0; j < j1; j++ {
					dst[j*r+i] = row[j]
				}
			}
		}
	}
}
