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
// are bit-identical and golden histories stay pinned. Each variant is one
// GemmInto call on the calling goroutine (a run's parallelism is its
// client pool, which already keeps every core busy): on AVX-512 hosts its
// rows go 8 at a time, then at most one strip each of 4, 2 and 1 rows, every
// row computed where it lies.

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
				crow[j] += float64(av * bv)
			}
		}
	}
}

// MatMulInto computes dst = A·B, overwriting dst (which must be a.R×b.C).
func MatMulInto(dst, a, b *Dense) {
	if a.C != b.R || dst.R != a.R || dst.C != b.C {
		panic("tensor: MatMulInto dimension mismatch")
	}
	n, k, m := a.R, a.C, b.C
	GemmInto(dst.Data, m, a.Data, k, 1, b.Data, m, n, k, m)
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
	n, k, m := a.R, a.C, b.R
	panel := getPanel(k * m)
	TransposeInto(*panel, b.Data, m, k) // b (m×k) → panel (k×m)
	GemmInto(dst.Data, m, a.Data, k, 1, *panel, m, n, k, m)
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
				crow[j] += float64(av * bv)
			}
		}
	}
}

// MatMulATInto computes dst = Aᵀ·B, overwriting dst (which must be a.C×b.C).
// No packing needed: the kernel's generalized A addressing streams Aᵀ
// directly (row stride 1, column stride a.C). Accumulation order matches
// matmulATRange exactly (from +0, then p-ascending per element).
func MatMulATInto(dst, a, b *Dense) {
	if a.R != b.R || dst.R != a.C || dst.C != b.C {
		panic("tensor: MatMulATInto dimension mismatch")
	}
	n, r, c := a.R, a.C, b.C
	GemmInto(dst.Data, c, a.Data, 1, r, b.Data, c, r, n, c)
}
