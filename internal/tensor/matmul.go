package tensor

// The three matmul variants below cover forward and backward passes of a
// Linear layer without materialising transposes:
//
//	forward:      Y = X·W            → MatMulInto
//	grad input:   dX = dY·Wᵀ         → MatMulBTInto
//	grad weight:  dW = Xᵀ·dY         → MatMulATInto
//
// All three route through the register-tiled GEMM in gemm.go: the transpose
// variants pack the transposed operand into a pooled panel so the kernel
// always streams row-major data, and every output element accumulates its k
// products in ascending order — the same order as the retained reference
// kernels (matmulRange / matmulBTRange / matmulATRange below), so results
// are bit-identical and golden histories stay pinned. Each variant
// parallelises over 4-row strips of the output when the work is large
// enough to pay for goroutine startup, so only the last chunk of a product
// can end in leftover rows (gemmTailRows).

// matmulMinFlops is the approximate flop count under which a matmul stays
// serial. The tiled kernels retire flops ~4× faster than the old naive
// loops, so the cut point sits 4× higher to keep the per-goroutine chunk
// wall-time (and thus the spawn-overhead ratio) where it was tuned.
const matmulMinFlops = 256 * 1024

// matmulRange computes rows [lo, hi) of dst = A·B; dst rows must be zeroed.
// Retained as the reference implementation the tiled path is tested
// against (and the equivalence oracle for the goldens).
func matmulRange(dst, a, b *Dense, lo, hi int) {
	k, m := a.C, b.C
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := dst.Data[i*m : (i+1)*m]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[p*m : (p+1)*m]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// MatMulInto computes dst = A·B, overwriting dst (which must be a.R×b.C).
func MatMulInto(dst, a, b *Dense) {
	if a.C != b.R || dst.R != a.R || dst.C != b.C {
		panic("tensor: MatMulInto dimension mismatch")
	}
	Zero(dst.Data)
	n, k, m := a.R, a.C, b.C
	// The serial branch calls gemmBlock directly: a chunk closure built
	// before the branch escapes through ParallelFor and costs every call an
	// allocation, parallel or not.
	strips, minStrips := stripsForFlops(n, k, m)
	if serialFor(strips, minStrips) {
		gemmBlock(dst.Data, m, a.Data, k, 1, b.Data, m, n, k, m)
		return
	}
	ParallelFor(strips, minStrips, func(lo, hi int) {
		lo, hi = lo*gemmMR, min(hi*gemmMR, n)
		gemmBlock(dst.Data[lo*m:], m, a.Data[lo*k:], k, 1, b.Data, m, hi-lo, k, m)
	})
}

// matmulBTRange computes rows [lo, hi) of dst = A·Bᵀ. Retained as the
// reference implementation for the tiled path.
func matmulBTRange(dst, a, b *Dense, lo, hi int) {
	k, m := a.C, b.R
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := dst.Data[i*m : (i+1)*m]
		for j := 0; j < m; j++ {
			crow[j] = Dot(arow, b.Data[j*k:(j+1)*k])
		}
	}
}

// MatMulBTInto computes dst = A·Bᵀ, overwriting dst (which must be a.R×b.R).
// B is packed transposed into a pooled panel so the tiled kernel streams it
// row-major; per-element accumulation still ascends k, matching the Dot
// order of the reference kernel bit for bit.
func MatMulBTInto(dst, a, b *Dense) {
	if a.C != b.C || dst.R != a.R || dst.C != b.R {
		panic("tensor: MatMulBTInto dimension mismatch")
	}
	Zero(dst.Data)
	n, k, m := a.R, a.C, b.R
	if k == 0 || m == 0 {
		return
	}
	panel := getPanel(k * m)
	packTranspose(*panel, b.Data, m, k) // b (m×k) → panel (k×m)
	bp := *panel
	strips, minStrips := stripsForFlops(n, k, m)
	if serialFor(strips, minStrips) {
		gemmBlock(dst.Data, m, a.Data, k, 1, bp, m, n, k, m)
	} else {
		ParallelFor(strips, minStrips, func(lo, hi int) {
			lo, hi = lo*gemmMR, min(hi*gemmMR, n)
			gemmBlock(dst.Data[lo*m:], m, a.Data[lo*k:], k, 1, bp, m, hi-lo, k, m)
		})
	}
	putPanel(panel)
}

// matmulATRange computes rows [lo, hi) of dst = Aᵀ·B; dst rows must be
// zeroed. Retained as the reference implementation for the tiled path.
func matmulATRange(dst, a, b *Dense, lo, hi int) {
	n, r, c := a.R, a.C, b.C
	for i := lo; i < hi; i++ {
		crow := dst.Data[i*c : (i+1)*c]
		for p := 0; p < n; p++ {
			av := a.Data[p*r+i]
			if av == 0 {
				continue
			}
			brow := b.Data[p*c : (p+1)*c]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// MatMulATInto computes dst = Aᵀ·B, overwriting dst (which must be a.C×b.C).
// No packing needed: the kernel's generalized A addressing streams Aᵀ
// directly (row stride 1, column stride a.C). Accumulation order matches
// matmulATRange exactly (zeroed, then p-ascending per element).
func MatMulATInto(dst, a, b *Dense) {
	if a.R != b.R || dst.R != a.C || dst.C != b.C {
		panic("tensor: MatMulATInto dimension mismatch")
	}
	Zero(dst.Data)
	n, r, c := a.R, a.C, b.C
	if n == 0 || r == 0 || c == 0 {
		return
	}
	strips, minStrips := stripsForFlops(r, n, c)
	if serialFor(strips, minStrips) {
		gemmBlock(dst.Data, c, a.Data, 1, r, b.Data, c, r, n, c)
		return
	}
	ParallelFor(strips, minStrips, func(lo, hi int) {
		lo, hi = lo*gemmMR, min(hi*gemmMR, r)
		gemmBlock(dst.Data[lo*c:], c, a.Data[lo:], 1, r, b.Data, c, hi-lo, n, c)
	})
}

// stripsForFlops returns how many gemmMR-row strips an n-row product has
// and the minimum number each goroutine chunk should own so that a chunk
// performs at least matmulMinFlops work.
func stripsForFlops(n, k, m int) (strips, minStrips int) {
	strips = (n + gemmMR - 1) / gemmMR
	perStrip := 2 * gemmMR * k * m
	if perStrip <= 0 {
		return strips, strips + 1
	}
	return strips, max(1, matmulMinFlops/perStrip)
}
