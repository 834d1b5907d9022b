//go:build !amd64

package tensor

// hasAVX and hasAVX512 are always false off amd64; the pure-Go
// register-tiled kernels run instead and produce bit-identical results (see
// gemm.go).
const (
	hasAVX    = false
	hasAVX512 = false
	hasFMA    = false
)

func gemmKernel(dst []float64, ldc int, a []float64, lda, astep int, b []float64, ldb int, k int) {
	gemmKernelGo(dst, ldc, a, lda, astep, b, ldb, k)
}

func gemmKernel4x4AVX(dst, a, b *float64, ldc, lda, astep, ldb, k int64) { panic("tensor: no AVX") }

func gemmStrip8AVX512(dst, a, b *float64, ldc, lda, astep, ldb, k, m int64, rows *int, load, add bool) {
	panic("tensor: no AVX-512")
}

func gemmStrip4AVX512(dst, a, b *float64, ldc, lda, astep, ldb, k, m int64, rows *int, load, add bool) {
	panic("tensor: no AVX-512")
}

func gemmStrip2AVX512(dst, a, b *float64, ldc, lda, astep, ldb, k, m int64, rows *int, load, add bool) {
	panic("tensor: no AVX-512")
}

func gemmStrip1AVX512(dst, a, b *float64, ldc, lda, astep, ldb, k, m int64, rows *int, load, add bool) {
	panic("tensor: no AVX-512")
}

func axpyBlocksAVX(dst, x *float64, alpha float64, blocks int64) { panic("tensor: no AVX") }

func addVecBlocksAVX(dst, x *float64, blocks int64) { panic("tensor: no AVX") }

func reluFwdBlocksAVX(dst, x *float64, blocks int64) { panic("tensor: no AVX") }

func reluBwdBlocksAVX(dst, dout, x *float64, blocks int64) { panic("tensor: no AVX") }

func scaleBlocksAVX(dst *float64, alpha float64, blocks int64) { panic("tensor: no AVX") }

func lerpBlocksAVX(dst, x, y *float64, a, b float64, blocks int64) { panic("tensor: no AVX") }

func bnNormBlocksAVX(out, xmu, x, mean, g, b, inv *float64, blocks int64) { panic("tensor: no AVX") }

func bnVarAccumBlocksAVX(sq, x, mean *float64, blocks int64) { panic("tensor: no AVX") }

func bnBwdAccumBlocksAVX(sumD, sumDXmu, dout, xmu *float64, blocks int64) { panic("tensor: no AVX") }

func bnBwdDxBlocksAVX(dx, dout, xmu, k1, k2, k3 *float64, blocks int64) { panic("tensor: no AVX") }

func bnNormScalarBlocksAVX(out, xmu, x *float64, mean, gam, bet, inv float64, blocks int64) {
	panic("tensor: no AVX")
}

func bnBwdDxScalarBlocksAVX(dx, dout, xmu *float64, k1, k2, k3 float64, blocks int64) {
	panic("tensor: no AVX")
}

func transposeAVX512(dst, src *float64, r, c, rb, cb int64) { panic("tensor: no AVX-512") }

func transposeEdgeAVX512(dst, src *float64, r, c, i0, j0 int64) { panic("tensor: no AVX-512") }

func addRowVecAVX512(m, v *float64, rows, cols int64) { panic("tensor: no AVX-512") }

func addColVecAVX512(m, v *float64, rows, cols int64) { panic("tensor: no AVX-512") }

func colSumsAVX512(dst, x *float64, rows, cols int64) { panic("tensor: no AVX-512") }

func bnNormAVX512(out, xmu, x, mean, gam, bet, inv *float64, rows, cols int64) {
	panic("tensor: no AVX-512")
}

func bnSqDevAVX512(sq, x, mean *float64, rows, cols int64) { panic("tensor: no AVX-512") }

func bnBwdSumsAVX512(sumD, sumDXmu, dout, xmu *float64, rows, cols int64) {
	panic("tensor: no AVX-512")
}

func bnBwdDxAVX512(dx, dout, xmu, k1, k2, k3 *float64, rows, cols int64) {
	panic("tensor: no AVX-512")
}

func expRowAVX512(dst, x *float64, n int64) bool { panic("tensor: no AVX-512") }

func softmaxShiftAVX512(x *float64, rows, cols int64) { panic("tensor: no AVX-512") }

func softmaxScaleAVX512(x *float64, rows, cols int64) { panic("tensor: no AVX-512") }

func divScalarAVX512(v *float64, d float64, n int64) { panic("tensor: no AVX-512") }

func invSqrtAVX512(dst, v *float64, eps float64, n int64) { panic("tensor: no AVX-512") }

func bnRunStatsAVX512(runMean, runVar, inv, mean, sq *float64, m, mom, keep, eps float64, n int64) {
	panic("tensor: no AVX-512")
}

func bnBwdConstsAVX512(kg, sumD, sumDXmu, betaGrad, gammaGrad, gam, inv *float64, m float64, n int64) {
	panic("tensor: no AVX-512")
}

func stepBlocksAVX(w, grad, ref, corr, mom *float64, mu, nlr, a, b float64, terms, blocks int64) {
	panic("tensor: no AVX")
}
