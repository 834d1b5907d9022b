package tensor

// Fused elementwise kernels for the activation and normalisation hot paths.
// Each function documents its exact per-element expression; the AVX path
// (gemm_amd64.s) emits the same multiplies and adds in the same order with
// no FMA contraction, so results are bit-identical to the scalar tails on
// every input — including NaN (ordered compares treat it as "not ≤ 0") and
// negative zero (clamped to +0 exactly like the scalar branch). The one
// freedom is which NaN comes out when both operands of one operation are
// NaNs with different bits (an input NaN meeting the one Inf−Inf or 0·Inf
// makes): x86 returns the first operand's, and in a commutative scalar
// operation the compiler picks which operand is first. A NaN result is a
// NaN on every path, and no other result depends on a NaN's bits
// (TestRowKernelsMatchScalarBits).

// simdMinLen is the vector length below which the call overhead of an
// assembly kernel outweighs its throughput; shorter inputs stay scalar.
const simdMinLen = 8

// ReLUFwdInto computes dst[i] = x[i] if x[i] > 0, else +0 (NaN passes
// through, matching `if v <= 0 { 0 } else { v }`).
func ReLUFwdInto(dst, x []float64) {
	if len(dst) != len(x) {
		panic("tensor: ReLUFwdInto length mismatch")
	}
	i := 0
	if hasAVX && len(x) >= simdMinLen {
		blocks := len(x) >> 2
		reluFwdBlocksAVX(&dst[0], &x[0], int64(blocks))
		i = blocks << 2
	}
	for ; i < len(x); i++ {
		if v := x[i]; v <= 0 {
			dst[i] = 0
		} else {
			dst[i] = v
		}
	}
}

// ReLUBwdInto computes dst[i] = dout[i] where x[i] > 0, else +0 — the same
// mask semantics as ReLUFwdInto, recomputed from the cached input.
func ReLUBwdInto(dst, dout, x []float64) {
	if len(dst) != len(dout) || len(dst) != len(x) {
		panic("tensor: ReLUBwdInto length mismatch")
	}
	i := 0
	if hasAVX && len(x) >= simdMinLen {
		blocks := len(x) >> 2
		reluBwdBlocksAVX(&dst[0], &dout[0], &x[0], int64(blocks))
		i = blocks << 2
	}
	for ; i < len(x); i++ {
		if x[i] <= 0 {
			dst[i] = 0
		} else {
			dst[i] = dout[i]
		}
	}
}

// BNNormInto is the fused batch-norm normalisation row kernel. Per element:
//
//	d := x[i] - mean[i]; xmu[i] = d; out[i] = g[i]*d*inv[i] + b[i]
//
// with the product evaluated left to right, matching the scalar layer.
func BNNormInto(out, xmu, x, mean, g, b, inv []float64) {
	n := len(out)
	if len(xmu) != n || len(x) != n || len(mean) != n || len(g) != n || len(b) != n || len(inv) != n {
		panic("tensor: BNNormInto length mismatch")
	}
	i := 0
	if hasAVX && n >= simdMinLen {
		blocks := n >> 2
		bnNormBlocksAVX(&out[0], &xmu[0], &x[0], &mean[0], &g[0], &b[0], &inv[0], int64(blocks))
		i = blocks << 2
	}
	for ; i < n; i++ {
		d := x[i] - mean[i]
		xmu[i] = d
		out[i] = float64(g[i]*d*inv[i]) + b[i]
	}
}

// BNVarAccum accumulates squared deviations: sq[i] += (x[i]-mean[i])².
func BNVarAccum(sq, x, mean []float64) {
	n := len(sq)
	if len(x) != n || len(mean) != n {
		panic("tensor: BNVarAccum length mismatch")
	}
	i := 0
	if hasAVX && n >= simdMinLen {
		blocks := n >> 2
		bnVarAccumBlocksAVX(&sq[0], &x[0], &mean[0], int64(blocks))
		i = blocks << 2
	}
	for ; i < n; i++ {
		d := x[i] - mean[i]
		sq[i] += float64(d * d)
	}
}

// BNBwdAccum accumulates the two batch-norm backward reductions one row at
// a time: sumD[i] += dout[i]; sumDXmu[i] += dout[i]*xmu[i].
func BNBwdAccum(sumD, sumDXmu, dout, xmu []float64) {
	n := len(sumD)
	if len(sumDXmu) != n || len(dout) != n || len(xmu) != n {
		panic("tensor: BNBwdAccum length mismatch")
	}
	i := 0
	if hasAVX && n >= simdMinLen {
		blocks := n >> 2
		bnBwdAccumBlocksAVX(&sumD[0], &sumDXmu[0], &dout[0], &xmu[0], int64(blocks))
		i = blocks << 2
	}
	for ; i < n; i++ {
		d := dout[i]
		sumD[i] += d
		sumDXmu[i] += float64(d * xmu[i])
	}
}

// BNBwdDx is the fused batch-norm input-gradient row kernel. Per element:
//
//	dx[i] = k1[i]*dout[i] - k2[i] - k3[i]*xmu[i]
//
// evaluated left to right, matching the scalar layer.
func BNBwdDx(dx, dout, xmu, k1, k2, k3 []float64) {
	n := len(dx)
	if len(dout) != n || len(xmu) != n || len(k1) != n || len(k2) != n || len(k3) != n {
		panic("tensor: BNBwdDx length mismatch")
	}
	i := 0
	if hasAVX && n >= simdMinLen {
		blocks := n >> 2
		bnBwdDxBlocksAVX(&dx[0], &dout[0], &xmu[0], &k1[0], &k2[0], &k3[0], int64(blocks))
		i = blocks << 2
	}
	for ; i < n; i++ {
		dx[i] = float64(k1[i]*dout[i]) - k2[i] - float64(k3[i]*xmu[i])
	}
}

// BNNormScalarInto is BNNormInto for one channel of a 2-D batch norm, whose
// mean, γ, 1/σ and β are the same for the whole row. Per element:
//
//	d := x[i] - mean; xmu[i] = d; out[i] = g*d*inv + b
//
// with the product evaluated left to right, matching BNNormInto bit for bit.
func BNNormScalarInto(out, xmu, x []float64, mean, g, b, inv float64) {
	n := len(out)
	if len(xmu) != n || len(x) != n {
		panic("tensor: BNNormScalarInto length mismatch")
	}
	i := 0
	if hasAVX && n >= simdMinLen {
		blocks := n >> 2
		bnNormScalarBlocksAVX(&out[0], &xmu[0], &x[0], mean, g, b, inv, int64(blocks))
		i = blocks << 2
	}
	for ; i < n; i++ {
		d := x[i] - mean
		xmu[i] = d
		out[i] = float64(g*d*inv) + b
	}
}

// BNBwdDxScalar is BNBwdDx for one channel of a 2-D batch norm, whose
// constants are the same for the whole row. Per element:
//
//	dx[i] = k1*dout[i] - k2 - k3*xmu[i]
//
// evaluated left to right, matching BNBwdDx bit for bit.
func BNBwdDxScalar(dx, dout, xmu []float64, k1, k2, k3 float64) {
	n := len(dx)
	if len(dout) != n || len(xmu) != n {
		panic("tensor: BNBwdDxScalar length mismatch")
	}
	i := 0
	if hasAVX && n >= simdMinLen {
		blocks := n >> 2
		bnBwdDxScalarBlocksAVX(&dx[0], &dout[0], &xmu[0], k1, k2, k3, int64(blocks))
		i = blocks << 2
	}
	for ; i < n; i++ {
		dx[i] = float64(k1*dout[i]) - k2 - float64(k3*xmu[i])
	}
}
