//go:build amd64

package tensor

//go:noescape
func gemmKernel4x8AVX(dst, a, b *float64, ldc, lda, astep, ldb, k int64)

//go:noescape
func gemmKernel4x4AVX(dst, a, b *float64, ldc, lda, astep, ldb, k int64)

//go:noescape
func gemmStrip8AVX512(dst, a, b *float64, ldc, lda, astep, ldb, k, m int64, load bool)

//go:noescape
func gemmStrip4AVX512(dst, a, b *float64, ldc, lda, astep, ldb, k, m int64, load bool)

//go:noescape
func gemmStrip2AVX512(dst, a, b *float64, ldc, lda, astep, ldb, k, m int64, load bool)

//go:noescape
func gemmStrip1AVX512(dst, a, b *float64, ldc, lda, astep, ldb, k, m int64, load bool)

//go:noescape
func transposeAVX512(dst, src *float64, r, c, rb, cb int64)

//go:noescape
func addRowVecAVX512(m, v *float64, rows, cols int64)

//go:noescape
func colSumsAVX512(dst, x *float64, rows, cols int64)

//go:noescape
func bnNormAVX512(out, xmu, x, mean, gam, bet, inv *float64, rows, cols int64)

//go:noescape
func bnSqDevAVX512(sq, x, mean *float64, rows, cols int64)

//go:noescape
func bnBwdSumsAVX512(sumD, sumDXmu, dout, xmu *float64, rows, cols int64)

//go:noescape
func bnBwdDxAVX512(dx, dout, xmu, k1, k2, k3 *float64, rows, cols int64)

//go:noescape
func expRowAVX512(dst, x *float64, n int64) (ok bool)

//go:noescape
func softmaxShiftAVX512(x *float64, rows, cols int64)

//go:noescape
func softmaxScaleAVX512(x *float64, rows, cols int64)

//go:noescape
func divScalarAVX512(v *float64, d float64, n int64)

//go:noescape
func invSqrtAVX512(dst, v *float64, eps float64, n int64)

//go:noescape
func bnRunStatsAVX512(runMean, runVar, inv, mean, sq *float64, m, mom, keep, eps float64, n int64)

//go:noescape
func bnBwdConstsAVX512(kg, sumD, sumDXmu, betaGrad, gammaGrad, gam, inv *float64, m float64, n int64)

//go:noescape
func stepBlocksAVX(w, grad, ref, corr, mom *float64, mu, nlr, a, b float64, terms, blocks int64)

//go:noescape
func axpyBlocksAVX(dst, x *float64, alpha float64, blocks int64)

//go:noescape
func addVecBlocksAVX(dst, x *float64, blocks int64)

//go:noescape
func reluFwdBlocksAVX(dst, x *float64, blocks int64)

//go:noescape
func reluBwdBlocksAVX(dst, dout, x *float64, blocks int64)

//go:noescape
func scaleBlocksAVX(dst *float64, alpha float64, blocks int64)

//go:noescape
func lerpBlocksAVX(dst, x, y *float64, a, b float64, blocks int64)

//go:noescape
func bnNormBlocksAVX(out, xmu, x, mean, gam, bet, inv *float64, blocks int64)

//go:noescape
func bnVarAccumBlocksAVX(sq, x, mean *float64, blocks int64)

//go:noescape
func bnBwdAccumBlocksAVX(sumD, sumDXmu, dout, xmu *float64, blocks int64)

//go:noescape
func bnBwdDxBlocksAVX(dx, dout, xmu, k1, k2, k3 *float64, blocks int64)

//go:noescape
func bnNormScalarBlocksAVX(out, xmu, x *float64, mean, gam, bet, inv float64, blocks int64)

//go:noescape
func bnBwdDxScalarBlocksAVX(dx, dout, xmu *float64, k1, k2, k3 float64, blocks int64)

func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbvAsm() (eax, edx uint32)

// hasAVX reports whether the OS and CPU support 256-bit AVX float64 math
// (CPUID.1:ECX AVX + OSXSAVE, and XCR0 enabling XMM+YMM state).
var hasAVX = detectAVX()

func detectAVX() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 1 {
		return false
	}
	_, _, ecx, _ := cpuidAsm(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	eax, _ := xgetbvAsm()
	return eax&0x6 == 0x6 // XMM and YMM state enabled by the OS
}

// hasAVX512 reports whether the 512-bit kernels may run: AVX as above, the
// CPU has AVX-512F (CPUID.7.0:EBX bit 16), and the OS saves the opmask
// registers and both halves of the ZMM state (XCR0 bits 5, 6, 7) on top of
// XMM and YMM.
var hasAVX512 = hasAVX && detectAVX512()

func detectAVX512() bool {
	if maxID, _, _, _ := cpuidAsm(0, 0); maxID < 7 {
		return false
	}
	_, ebx, _, _ := cpuidAsm(7, 0)
	eax, _ := xgetbvAsm()
	return ebx&(1<<16) != 0 && eax&0xe6 == 0xe6
}

// hasFMA reports whether the CPU has FMA (CPUID.1:ECX bit 12). With AVX it
// is the condition under which math.Exp takes the FMA path that ExpRow's
// kernel reproduces, so ExpRow runs that kernel only when hasAVX512 and
// hasFMA both hold.
var hasFMA = hasAVX && detectFMA()

func detectFMA() bool {
	_, _, ecx, _ := cpuidAsm(1, 0)
	return ecx&(1<<12) != 0
}

// gemmKernel computes one full gemmMR×gemmNR tile (see gemm.go for the
// accumulation-order contract).
func gemmKernel(dst []float64, ldc int, a []float64, lda, astep int, b []float64, ldb int, k int) {
	if hasAVX {
		// Bounds touched by the kernel: last C element is 3·ldc+8, last A
		// element 3·lda+(k-1)·astep+1, last B element (k-1)·ldb+8 — all
		// guaranteed by the caller's blocking over full tiles.
		gemmKernel4x8AVX(&dst[0], &a[0], &b[0], int64(ldc), int64(lda), int64(astep), int64(ldb), int64(k))
		return
	}
	gemmKernelGo(dst, ldc, a, lda, astep, b, ldb, k)
}
