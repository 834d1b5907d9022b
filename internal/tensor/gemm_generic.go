//go:build !amd64

package tensor

// hasAVX and hasAVX512 are always false off amd64; the pure-Go
// register-tiled kernels run instead and produce bit-identical results (see
// gemm.go).
const (
	hasAVX    = false
	hasAVX512 = false
)

func gemmKernel(dst []float64, ldc int, a []float64, lda, astep int, b []float64, ldb int, k int) {
	gemmKernelGo(dst, ldc, a, lda, astep, b, ldb, k)
}

func gemmKernel4x4AVX(dst, a, b *float64, ldc, lda, astep, ldb, k int64) { panic("tensor: no AVX") }

func gemmKernel4x16AVX512(dst, a, b *float64, ldc, lda, astep, ldb, k int64) {
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
