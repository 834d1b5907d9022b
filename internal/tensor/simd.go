package tensor

import "math"

// Fused elementwise kernels for the activation and normalisation hot paths.
// The 1-D batch norm (BNNormRows, BNSqDevRows, BNBwdSumsRows, BNBwdDxRows)
// takes a whole n×C matrix per call, as do Dense.AddRowVec and
// Dense.ColSumsInto: with AVX-512 each is one masked pass over the matrix,
// elsewhere a loop of the row kernels. Each function documents its exact
// per-element expression; the SIMD paths (gemm_amd64.s) emit the same
// multiplies and adds in the same order with no FMA contraction, so results
// are bit-identical to the scalar tails on every input — including NaN
// (ordered compares treat it as "not ≤ 0") and negative zero (clamped to +0
// exactly like the scalar branch). ExpRow is the one kernel with fused
// multiply-adds, because the math.Exp it reproduces has them. The one
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
// through, matching `if v <= 0 { 0 } else { v }`). dst may be x.
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
// mask semantics as ReLUFwdInto. x may be the forward input or its output:
// x ≤ 0 and relu(x) ≤ 0 agree on every input, −0 and NaN included. dst may
// be dout.
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

// rowsOf returns the number of rows of width cols in a matrix of size
// elements, and panics (naming fn) when size is not a whole number of rows.
func rowsOf(fn string, size, cols int) int {
	if cols == 0 && size == 0 {
		return 0
	}
	if cols == 0 || size%cols != 0 {
		panic("tensor: " + fn + " length mismatch")
	}
	return size / cols
}

// BNNormRows is the fused batch-norm normalisation of a row-major n×C
// matrix, C = len(mean). Per element of row r, column c:
//
//	d := x[r][c] - mean[c]; xmu[r][c] = d; out[r][c] = g[c]*d*inv[c] + b[c]
//
// with the product evaluated left to right, matching the scalar layer.
// With AVX-512 it is one call that holds each column block's constants in
// registers; otherwise each row runs the AVX block kernel (when the host
// has AVX) and a scalar tail.
func BNNormRows(out, xmu, x, mean, g, b, inv []float64) {
	C := len(mean)
	if len(g) != C || len(b) != C || len(inv) != C || len(out) != len(x) || len(xmu) != len(x) {
		panic("tensor: BNNormRows length mismatch")
	}
	n := rowsOf("BNNormRows", len(x), C)
	if n == 0 {
		return
	}
	if hasAVX512 {
		bnNormAVX512(&out[0], &xmu[0], &x[0], &mean[0], &g[0], &b[0], &inv[0], int64(n), int64(C))
		return
	}
	for o := 0; o < len(x); o += C {
		out, xmu, x := out[o:o+C], xmu[o:o+C], x[o:o+C]
		i := 0
		if hasAVX && C >= simdMinLen {
			blocks := C >> 2
			bnNormBlocksAVX(&out[0], &xmu[0], &x[0], &mean[0], &g[0], &b[0], &inv[0], int64(blocks))
			i = blocks << 2
		}
		for ; i < C; i++ {
			d := x[i] - mean[i]
			xmu[i] = d
			out[i] = float64(g[i]*d*inv[i]) + b[i]
		}
	}
}

// BNSqDevRows writes into sq each column's sum of squared deviations over
// the rows of the n×C matrix x, C = len(sq): per column a chain from +0
// that adds (x[r][c]-mean[c])² in ascending r.
func BNSqDevRows(sq, x, mean []float64) {
	C := len(sq)
	if len(mean) != C {
		panic("tensor: BNSqDevRows length mismatch")
	}
	n := rowsOf("BNSqDevRows", len(x), C)
	if hasAVX512 && n > 0 {
		bnSqDevAVX512(&sq[0], &x[0], &mean[0], int64(n), int64(C))
		return
	}
	Zero(sq)
	for o := 0; o < len(x); o += C {
		x := x[o : o+C]
		i := 0
		if hasAVX && C >= simdMinLen {
			blocks := C >> 2
			bnVarAccumBlocksAVX(&sq[0], &x[0], &mean[0], int64(blocks))
			i = blocks << 2
		}
		for ; i < C; i++ {
			d := x[i] - mean[i]
			sq[i] += float64(d * d)
		}
	}
}

// BNBwdSumsRows writes the two batch-norm backward reductions over the
// rows of the n×C matrices dout and xmu, C = len(sumD): per column, chains
// from +0 in ascending r of sumD += dout and sumDXmu += dout*xmu.
func BNBwdSumsRows(sumD, sumDXmu, dout, xmu []float64) {
	C := len(sumD)
	if len(sumDXmu) != C || len(xmu) != len(dout) {
		panic("tensor: BNBwdSumsRows length mismatch")
	}
	n := rowsOf("BNBwdSumsRows", len(dout), C)
	if hasAVX512 && n > 0 {
		bnBwdSumsAVX512(&sumD[0], &sumDXmu[0], &dout[0], &xmu[0], int64(n), int64(C))
		return
	}
	Zero(sumD)
	Zero(sumDXmu)
	for o := 0; o < len(dout); o += C {
		dout, xmu := dout[o:o+C], xmu[o:o+C]
		i := 0
		if hasAVX && C >= simdMinLen {
			blocks := C >> 2
			bnBwdAccumBlocksAVX(&sumD[0], &sumDXmu[0], &dout[0], &xmu[0], int64(blocks))
			i = blocks << 2
		}
		for ; i < C; i++ {
			d := dout[i]
			sumD[i] += d
			sumDXmu[i] += float64(d * xmu[i])
		}
	}
}

// BNBwdDxRows is the fused batch-norm input gradient of a row-major n×C
// matrix, C = len(k1). Per element of row r, column c:
//
//	dx[r][c] = k1[c]*dout[r][c] - k2[c] - k3[c]*xmu[r][c]
//
// evaluated left to right, matching the scalar layer; the kernels split as
// in BNNormRows.
func BNBwdDxRows(dx, dout, xmu, k1, k2, k3 []float64) {
	C := len(k1)
	if len(k2) != C || len(k3) != C || len(dout) != len(dx) || len(xmu) != len(dx) {
		panic("tensor: BNBwdDxRows length mismatch")
	}
	n := rowsOf("BNBwdDxRows", len(dx), C)
	if n == 0 {
		return
	}
	if hasAVX512 {
		bnBwdDxAVX512(&dx[0], &dout[0], &xmu[0], &k1[0], &k2[0], &k3[0], int64(n), int64(C))
		return
	}
	for o := 0; o < len(dx); o += C {
		dx, dout, xmu := dx[o:o+C], dout[o:o+C], xmu[o:o+C]
		i := 0
		if hasAVX && C >= simdMinLen {
			blocks := C >> 2
			bnBwdDxBlocksAVX(&dx[0], &dout[0], &xmu[0], &k1[0], &k2[0], &k3[0], int64(blocks))
			i = blocks << 2
		}
		for ; i < C; i++ {
			dx[i] = float64(k1[i]*dout[i]) - k2[i] - float64(k3[i]*xmu[i])
		}
	}
}

// BNNormScalarInto is BNNormRows for one run of one channel of a 2-D batch
// norm, whose mean, γ, 1/σ and β are the same for the whole run. Per
// element:
//
//	d := x[i] - mean; xmu[i] = d; out[i] = g*d*inv + b
//
// with the product evaluated left to right, matching BNNormRows bit for bit.
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

// BNBwdDxScalar is BNBwdDxRows for one run of one channel of a 2-D batch
// norm, whose constants are the same for the whole run. Per element:
//
//	dx[i] = k1*dout[i] - k2 - k3*xmu[i]
//
// evaluated left to right, matching BNBwdDxRows bit for bit.
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

// ExpRow writes dst[i] = math.Exp(x[i]) for every i and reports true, or
// reports false, leaving dst unspecified, when its kernel cannot run: the
// host lacks AVX-512 or FMA, or some x[i] is NaN or lies outside
// [-708, 0]. The kernel (gemm_amd64.s) is math.Exp's amd64 FMA path run
// eight lanes at a time — the same constants and the same operations in
// the same order — so every value it writes is math.Exp's, bit for bit
// (TestExpRowMatchesMathExp). A caller recomputes dst with math.Exp on
// false; SoftmaxRows passes each logit less its row's maximum.
func ExpRow(dst, x []float64) bool {
	if len(dst) != len(x) {
		panic("tensor: ExpRow length mismatch")
	}
	if !hasAVX512 || !hasFMA || len(x) == 0 {
		return false
	}
	return expRowAVX512(&dst[0], &x[0], int64(len(x)))
}

// SoftmaxRows writes into p the softmax of each row of the row-major n×C
// matrix x, C = cols; p may alias x. Per row, exactly the scalar recipe:
//
//	m := Max(row); e[j] = math.Exp(row[j] - m)
//	sum := 0.0; sum += e[j] for j ascending; inv := 1/sum; p[j] = e[j]*inv
//
// With AVX-512 the batch's rows go in the lanes: x is transposed into a
// pooled C×n panel, so a ZMM holds one class of eight rows and a walk down
// the panel's rows visits each row's classes in order. Each lane's maximum
// and sum are then the scalar chains, the subtraction, division and
// product are one rounded operation each, and ExpRow (or math.Exp when it
// gives up) runs once over the whole panel. The result is transposed back
// into p. Elsewhere each row runs the recipe in Go.
func SoftmaxRows(p, x []float64, cols int) {
	if len(p) != len(x) {
		panic("tensor: SoftmaxRows length mismatch")
	}
	n := rowsOf("SoftmaxRows", len(x), cols)
	if n == 0 {
		return
	}
	if !hasAVX512 {
		for o := 0; o < len(x); o += cols {
			softmaxRow(p[o:o+cols], x[o:o+cols])
		}
		return
	}
	panel := getPanel(2 * len(x))
	d, e := (*panel)[:len(x)], (*panel)[len(x):]
	TransposeInto(d, x, n, cols)
	softmaxShiftAVX512(&d[0], int64(cols), int64(n))
	if !ExpRow(e, d) {
		for i, v := range d {
			e[i] = math.Exp(v)
		}
	}
	softmaxScaleAVX512(&e[0], int64(cols), int64(n))
	TransposeInto(p, e, cols, n)
	putPanel(panel)
}

// softmaxRow is SoftmaxRows' recipe on one row; p may alias z.
func softmaxRow(p, z []float64) {
	m := Max(z)
	sum := 0.0
	for i, v := range z {
		e := math.Exp(v - m)
		p[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range p {
		p[i] *= inv
	}
}

// DivScalar divides every element of v by d, each quotient rounded once:
// the AVX-512 kernel's VDIVPD rounds as the scalar division does.
func DivScalar(v []float64, d float64) {
	if hasAVX512 && len(v) > 0 {
		divScalarAVX512(&v[0], d, int64(len(v)))
		return
	}
	for i := range v {
		v[i] /= d
	}
}

// InvSqrtInto writes dst[i] = 1/math.Sqrt(v[i]+eps): BatchNorm's inverse
// standard deviation from its running variance. VSQRTPD and VDIVPD round
// correctly, as math.Sqrt and the division do.
func InvSqrtInto(dst, v []float64, eps float64) {
	if len(dst) != len(v) {
		panic("tensor: InvSqrtInto length mismatch")
	}
	if hasAVX512 && len(v) > 0 {
		invSqrtAVX512(&dst[0], &v[0], eps, int64(len(v)))
		return
	}
	for i, x := range v {
		dst[i] = 1 / math.Sqrt(x+eps)
	}
}

// BNRunStats is the per-channel tail of a training BatchNorm forward, for
// m samples per channel, batch means mean and sums of squared deviations
// sq. Per channel c, each product rounded on its own:
//
//	variance := sq[c] / m
//	runMean[c] = (1-mom)*runMean[c] + mom*mean[c]
//	runVar[c] = (1-mom)*runVar[c] + mom*variance
//	inv[c] = 1 / math.Sqrt(variance+eps)
//
// With AVX-512 it is one masked pass, eight channels per ZMM.
func BNRunStats(runMean, runVar, inv, mean, sq []float64, m, mom, eps float64) {
	C := len(mean)
	if len(runMean) != C || len(runVar) != C || len(inv) != C || len(sq) != C {
		panic("tensor: BNRunStats length mismatch")
	}
	keep := 1 - mom
	if hasAVX512 && C > 0 {
		bnRunStatsAVX512(&runMean[0], &runVar[0], &inv[0], &mean[0], &sq[0], m, mom, keep, eps, int64(C))
		return
	}
	for c := range mean {
		variance := sq[c] / m
		runMean[c] = float64(keep*runMean[c]) + float64(mom*mean[c])
		runVar[c] = float64(keep*runVar[c]) + float64(mom*variance)
		inv[c] = 1 / math.Sqrt(variance+eps)
	}
}

// BNBwdConsts is the per-channel step of a BatchNorm backward between its
// two batch passes, for m samples per channel. It adds the parameter
// gradients and folds the dx constants, in place of the two sums, per
// channel c, left to right with each operation rounded on its own:
//
//	betaGrad[c] += sumD[c]; gammaGrad[c] += sumDXmu[c]*inv[c]
//	kg[c] = g[c]*inv[c]
//	sumD[c] = g[c]*inv[c]/m*sumD[c]
//	sumDXmu[c] = g[c]*inv[c]*inv[c]*inv[c]/m*sumDXmu[c]
//
// With AVX-512 it is one masked pass, eight channels per ZMM.
func BNBwdConsts(kg, sumD, sumDXmu, betaGrad, gammaGrad, g, inv []float64, m float64) {
	C := len(inv)
	if len(kg) != C || len(sumD) != C || len(sumDXmu) != C || len(betaGrad) != C || len(gammaGrad) != C || len(g) != C {
		panic("tensor: BNBwdConsts length mismatch")
	}
	if hasAVX512 && C > 0 {
		bnBwdConstsAVX512(&kg[0], &sumD[0], &sumDXmu[0], &betaGrad[0], &gammaGrad[0], &g[0], &inv[0], m, int64(C))
		return
	}
	for c, iv := range inv {
		betaGrad[c] += sumD[c]
		gammaGrad[c] += float64(sumDXmu[c] * iv)
		gi := g[c] * iv
		kg[c] = gi
		sumD[c] = gi / m * sumD[c]
		sumDXmu[c] = gi * iv * iv / m * sumDXmu[c]
	}
}
