// AVX micro-kernels (and one AVX-512 GEMM tile) for the float64 hot paths.
// Every kernel preserves the per-element operation order of its pure-Go
// counterpart (see gemm.go): multiplies and adds are emitted as separate
// VMULPD/VADDPD so no FMA contraction changes rounding, and each output
// element accumulates in the same sequence as the scalar loops — only
// independent elements are processed in parallel. Results are therefore
// bit-identical to the Go fallbacks on every input.

#include "textflag.h"

// func gemmKernel4x8AVX(dst, a, b *float64, ldc, lda, astep, ldb, k int64)
//
// dst[4][8] += A[4][k]·B[k][8], strides in elements. A rows are spaced lda
// elements apart and advance astep elements per k step, so a transposed
// operand streams without packing (lda=1, astep = its row stride).
// Accumulators for the 4×8 tile live in Y0-Y7; per k step we load one B row
// (Y8, Y9), broadcast each A element and multiply-accumulate. Per-element
// accumulation order is ascending k, identical to the scalar kernels.
TEXT ·gemmKernel4x8AVX(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ ldc+24(FP), CX
	MOVQ lda+32(FP), R8
	MOVQ astep+40(FP), R14
	MOVQ ldb+48(FP), R9
	MOVQ k+56(FP), R10
	SHLQ $3, CX // strides: elements → bytes
	SHLQ $3, R8
	SHLQ $3, R14
	SHLQ $3, R9

	// A row pointers: SI, R11, R12, R13.
	LEAQ (SI)(R8*1), R11
	LEAQ (SI)(R8*2), R12
	LEAQ (R11)(R8*2), R13

	// Load the 4×8 C tile into Y0-Y7.
	MOVQ    DI, AX
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	ADDQ    CX, AX
	VMOVUPD (AX), Y2
	VMOVUPD 32(AX), Y3
	ADDQ    CX, AX
	VMOVUPD (AX), Y4
	VMOVUPD 32(AX), Y5
	ADDQ    CX, AX
	VMOVUPD (AX), Y6
	VMOVUPD 32(AX), Y7

gemmloop:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9

	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y1, Y1

	VBROADCASTSD (R11), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y3, Y3

	VBROADCASTSD (R12), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y5, Y5

	VBROADCASTSD (R13), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y7, Y7

	ADDQ R14, SI
	ADDQ R14, R11
	ADDQ R14, R12
	ADDQ R14, R13
	ADDQ R9, DX
	DECQ R10
	JNZ  gemmloop

	// Store the tile back.
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    CX, DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    CX, DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    CX, DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// func gemmKernel4x4AVX(dst, a, b *float64, ldc, lda, astep, ldb, k int64)
//
// dst[4][4] += A[4][k]·B[k][4]: the 4×8 kernel above at half width, one YMM
// accumulator per row (Y0-Y3). gemmStrip runs it on a column remainder of
// 4-7 so those columns do not fall to the scalar edge loops. Addressing,
// the separate VMULPD/VADDPD and the ascending-k order are the same.
TEXT ·gemmKernel4x4AVX(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ ldc+24(FP), CX
	MOVQ lda+32(FP), R8
	MOVQ astep+40(FP), R14
	MOVQ ldb+48(FP), R9
	MOVQ k+56(FP), R10
	SHLQ $3, CX // strides: elements → bytes
	SHLQ $3, R8
	SHLQ $3, R14
	SHLQ $3, R9

	// A row pointers: SI, R11, R12, R13.
	LEAQ (SI)(R8*1), R11
	LEAQ (SI)(R8*2), R12
	LEAQ (R11)(R8*2), R13

	// Load the 4×4 C tile into Y0-Y3.
	MOVQ    DI, AX
	VMOVUPD (AX), Y0
	ADDQ    CX, AX
	VMOVUPD (AX), Y1
	ADDQ    CX, AX
	VMOVUPD (AX), Y2
	ADDQ    CX, AX
	VMOVUPD (AX), Y3

gemm4loop:
	VMOVUPD (DX), Y8

	VBROADCASTSD (SI), Y4
	VMULPD       Y8, Y4, Y4
	VADDPD       Y4, Y0, Y0

	VBROADCASTSD (R11), Y5
	VMULPD       Y8, Y5, Y5
	VADDPD       Y5, Y1, Y1

	VBROADCASTSD (R12), Y6
	VMULPD       Y8, Y6, Y6
	VADDPD       Y6, Y2, Y2

	VBROADCASTSD (R13), Y7
	VMULPD       Y8, Y7, Y7
	VADDPD       Y7, Y3, Y3

	ADDQ R14, SI
	ADDQ R14, R11
	ADDQ R14, R12
	ADDQ R14, R13
	ADDQ R9, DX
	DECQ R10
	JNZ  gemm4loop

	// Store the tile back.
	VMOVUPD Y0, (DI)
	ADDQ    CX, DI
	VMOVUPD Y1, (DI)
	ADDQ    CX, DI
	VMOVUPD Y2, (DI)
	ADDQ    CX, DI
	VMOVUPD Y3, (DI)
	VZEROUPPER
	RET

// func gemmKernel4x16AVX512(dst, a, b *float64, ldc, lda, astep, ldb, k int64)
//
// dst[4][16] += A[4][k]·B[k][16]: the 4×8 kernel at twice the width, eight
// ZMM accumulators (Z0-Z7, two per row). Per k step one 16-wide B row (Z8,
// Z9), four broadcasts, separate VMULPD/VADDPD, ascending k. gemmStrip runs
// it while at least 16 columns remain, on hosts where hasAVX512 holds.
TEXT ·gemmKernel4x16AVX512(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ ldc+24(FP), CX
	MOVQ lda+32(FP), R8
	MOVQ astep+40(FP), R14
	MOVQ ldb+48(FP), R9
	MOVQ k+56(FP), R10
	SHLQ $3, CX // strides: elements → bytes
	SHLQ $3, R8
	SHLQ $3, R14
	SHLQ $3, R9

	// A row pointers: SI, R11, R12, R13.
	LEAQ (SI)(R8*1), R11
	LEAQ (SI)(R8*2), R12
	LEAQ (R11)(R8*2), R13

	// Load the 4×16 C tile into Z0-Z7.
	MOVQ    DI, AX
	VMOVUPD (AX), Z0
	VMOVUPD 64(AX), Z1
	ADDQ    CX, AX
	VMOVUPD (AX), Z2
	VMOVUPD 64(AX), Z3
	ADDQ    CX, AX
	VMOVUPD (AX), Z4
	VMOVUPD 64(AX), Z5
	ADDQ    CX, AX
	VMOVUPD (AX), Z6
	VMOVUPD 64(AX), Z7

gemm16loop:
	VMOVUPD (DX), Z8
	VMOVUPD 64(DX), Z9

	VBROADCASTSD (SI), Z10
	VMULPD       Z8, Z10, Z11
	VADDPD       Z11, Z0, Z0
	VMULPD       Z9, Z10, Z11
	VADDPD       Z11, Z1, Z1

	VBROADCASTSD (R11), Z10
	VMULPD       Z8, Z10, Z11
	VADDPD       Z11, Z2, Z2
	VMULPD       Z9, Z10, Z11
	VADDPD       Z11, Z3, Z3

	VBROADCASTSD (R12), Z10
	VMULPD       Z8, Z10, Z11
	VADDPD       Z11, Z4, Z4
	VMULPD       Z9, Z10, Z11
	VADDPD       Z11, Z5, Z5

	VBROADCASTSD (R13), Z10
	VMULPD       Z8, Z10, Z11
	VADDPD       Z11, Z6, Z6
	VMULPD       Z9, Z10, Z11
	VADDPD       Z11, Z7, Z7

	ADDQ R14, SI
	ADDQ R14, R11
	ADDQ R14, R12
	ADDQ R14, R13
	ADDQ R9, DX
	DECQ R10
	JNZ  gemm16loop

	// Store the tile back.
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	ADDQ    CX, DI
	VMOVUPD Z2, (DI)
	VMOVUPD Z3, 64(DI)
	ADDQ    CX, DI
	VMOVUPD Z4, (DI)
	VMOVUPD Z5, 64(DI)
	ADDQ    CX, DI
	VMOVUPD Z6, (DI)
	VMOVUPD Z7, 64(DI)
	VZEROUPPER
	RET

// func axpyBlocksAVX(dst, x *float64, alpha float64, blocks int64)
// dst[i] += alpha*x[i] over blocks×4 elements.
TEXT ·axpyBlocksAVX(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	VBROADCASTSD alpha+16(FP), Y0
	MOVQ         blocks+24(FP), CX

axpyloop:
	VMOVUPD (SI), Y1
	VMULPD  Y1, Y0, Y2
	VMOVUPD (DI), Y3
	VADDPD  Y2, Y3, Y3
	VMOVUPD Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     axpyloop
	VZEROUPPER
	RET

// func addVecBlocksAVX(dst, x *float64, blocks int64)
// dst[i] += x[i] over blocks×4 elements.
TEXT ·addVecBlocksAVX(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ blocks+16(FP), CX

addloop:
	VMOVUPD (SI), Y1
	VMOVUPD (DI), Y2
	VADDPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     addloop
	VZEROUPPER
	RET

// func reluFwdBlocksAVX(dst, x *float64, blocks int64)
// dst[i] = x[i] unless x[i] <= 0 (ordered compare), in which case +0.
// Matches the scalar branch exactly, including NaN (NaN <= 0 is false, so
// NaN passes through) and -0 (clamped to +0 by the ANDN mask).
TEXT ·reluFwdBlocksAVX(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   x+8(FP), SI
	MOVQ   blocks+16(FP), CX
	VXORPD Y0, Y0, Y0 // zeros

relufwdloop:
	VMOVUPD (SI), Y1
	VCMPPD  $2, Y0, Y1, Y2  // mask = x <= 0 (LE_OS: NaN → false)
	VANDNPD Y1, Y2, Y3      // dst = ^mask & x
	VMOVUPD Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     relufwdloop
	VZEROUPPER
	RET

// func reluBwdBlocksAVX(dst, dout, x *float64, blocks int64)
// dst[i] = dout[i] where x[i] > 0 (i.e. not x <= 0), else +0 — the same
// mask semantics as the forward pass.
TEXT ·reluBwdBlocksAVX(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   dout+8(FP), SI
	MOVQ   x+16(FP), DX
	MOVQ   blocks+24(FP), CX
	VXORPD Y0, Y0, Y0

relubwdloop:
	VMOVUPD (DX), Y1
	VCMPPD  $2, Y0, Y1, Y2 // mask = x <= 0
	VMOVUPD (SI), Y3
	VANDNPD Y3, Y2, Y4     // dst = ^mask & dout
	VMOVUPD Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     relubwdloop
	VZEROUPPER
	RET

// func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL  eaxIn+0(FP), AX
	MOVL  ecxIn+4(FP), CX
	CPUID
	MOVL  AX, eax+8(FP)
	MOVL  BX, ebx+12(FP)
	MOVL  CX, ecx+16(FP)
	MOVL  DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL   CX, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET

// func scaleBlocksAVX(dst *float64, alpha float64, blocks int64)
// dst[i] *= alpha over blocks×4 elements.
TEXT ·scaleBlocksAVX(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	VBROADCASTSD alpha+8(FP), Y0
	MOVQ         blocks+16(FP), CX

scaleloop:
	VMOVUPD (DI), Y1
	VMULPD  Y0, Y1, Y1 // dst * alpha
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     scaleloop
	VZEROUPPER
	RET

// func lerpBlocksAVX(dst, x, y *float64, a, b float64, blocks int64)
// dst[i] = a*x[i] + b*y[i] over blocks×4 elements: two products, one add.
TEXT ·lerpBlocksAVX(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DX
	VBROADCASTSD a+24(FP), Y0
	VBROADCASTSD b+32(FP), Y1
	MOVQ         blocks+40(FP), CX

lerploop:
	VMOVUPD (SI), Y2
	VMULPD  Y2, Y0, Y2 // a*x
	VMOVUPD (DX), Y3
	VMULPD  Y3, Y1, Y3 // b*y
	VADDPD  Y3, Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     lerploop
	VZEROUPPER
	RET

// func bnNormBlocksAVX(out, xmu, x, mean, gam, bet, inv *float64, blocks int64)
// Per element: d = x - mean; xmu = d; out = ((g*d)*inv) + b — the exact
// expression order of the scalar BatchNorm forward.
TEXT ·bnNormBlocksAVX(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ xmu+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ mean+24(FP), R8
	MOVQ gam+32(FP), R9
	MOVQ bet+40(FP), R10
	MOVQ inv+48(FP), R11
	MOVQ blocks+56(FP), CX

bnnormloop:
	VMOVUPD (DX), Y1
	VMOVUPD (R8), Y2
	VSUBPD  Y2, Y1, Y3 // d = x - mean
	VMOVUPD Y3, (SI)
	VMOVUPD (R9), Y4
	VMULPD  Y3, Y4, Y5 // g*d
	VMOVUPD (R11), Y6
	VMULPD  Y6, Y5, Y5 // (g*d)*inv
	VMOVUPD (R10), Y7
	VADDPD  Y7, Y5, Y5 // + b
	VMOVUPD Y5, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R11
	DECQ    CX
	JNZ     bnnormloop
	VZEROUPPER
	RET

// func bnVarAccumBlocksAVX(sq, x, mean *float64, blocks int64)
// Per element: d = x - mean; sq += d*d.
TEXT ·bnVarAccumBlocksAVX(SB), NOSPLIT, $0-32
	MOVQ sq+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ mean+16(FP), DX
	MOVQ blocks+24(FP), CX

bnvarloop:
	VMOVUPD (SI), Y1
	VMOVUPD (DX), Y2
	VSUBPD  Y2, Y1, Y3 // d = x - mean
	VMULPD  Y3, Y3, Y4 // d*d
	VMOVUPD (DI), Y5
	VADDPD  Y4, Y5, Y5
	VMOVUPD Y5, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     bnvarloop
	VZEROUPPER
	RET

// func bnBwdAccumBlocksAVX(sumD, sumDXmu, dout, xmu *float64, blocks int64)
// Per element: sumD += dout; sumDXmu += dout*xmu.
TEXT ·bnBwdAccumBlocksAVX(SB), NOSPLIT, $0-40
	MOVQ sumD+0(FP), DI
	MOVQ sumDXmu+8(FP), SI
	MOVQ dout+16(FP), DX
	MOVQ xmu+24(FP), R8
	MOVQ blocks+32(FP), CX

bnaccloop:
	VMOVUPD (DX), Y1
	VMOVUPD (DI), Y2
	VADDPD  Y1, Y2, Y2 // sumD += d
	VMOVUPD Y2, (DI)
	VMOVUPD (R8), Y3
	VMULPD  Y3, Y1, Y4 // d*xmu
	VMOVUPD (SI), Y5
	VADDPD  Y4, Y5, Y5
	VMOVUPD Y5, (SI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, R8
	DECQ    CX
	JNZ     bnaccloop
	VZEROUPPER
	RET

// func bnBwdDxBlocksAVX(dx, dout, xmu, k1, k2, k3 *float64, blocks int64)
// Per element: dx = ((k1*dout) - k2) - (k3*xmu) — the scalar expression
// order of the BatchNorm backward.
TEXT ·bnBwdDxBlocksAVX(SB), NOSPLIT, $0-56
	MOVQ dx+0(FP), DI
	MOVQ dout+8(FP), SI
	MOVQ xmu+16(FP), DX
	MOVQ k1+24(FP), R8
	MOVQ k2+32(FP), R9
	MOVQ k3+40(FP), R10
	MOVQ blocks+48(FP), CX

bndxloop:
	VMOVUPD (SI), Y1
	VMOVUPD (R8), Y2
	VMULPD  Y1, Y2, Y3 // k1*dout
	VMOVUPD (R9), Y4
	VSUBPD  Y4, Y3, Y3 // - k2
	VMOVUPD (DX), Y5
	VMOVUPD (R10), Y6
	VMULPD  Y5, Y6, Y7 // k3*xmu
	VSUBPD  Y7, Y3, Y3 // - k3*xmu
	VMOVUPD Y3, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	DECQ    CX
	JNZ     bndxloop
	VZEROUPPER
	RET

// func bnNormScalarBlocksAVX(out, xmu, x *float64, mean, gam, bet, inv float64, blocks int64)
// bnNormBlocksAVX with the per-channel constants broadcast from scalars:
// d = x - mean; xmu = d; out = ((g*d)*inv) + b.
TEXT ·bnNormScalarBlocksAVX(SB), NOSPLIT, $0-64
	MOVQ         out+0(FP), DI
	MOVQ         xmu+8(FP), SI
	MOVQ         x+16(FP), DX
	VBROADCASTSD mean+24(FP), Y2
	VBROADCASTSD gam+32(FP), Y4
	VBROADCASTSD bet+40(FP), Y7
	VBROADCASTSD inv+48(FP), Y6
	MOVQ         blocks+56(FP), CX

bnnormsloop:
	VMOVUPD (DX), Y1
	VSUBPD  Y2, Y1, Y3 // d = x - mean
	VMOVUPD Y3, (SI)
	VMULPD  Y3, Y4, Y5 // g*d
	VMULPD  Y6, Y5, Y5 // (g*d)*inv
	VADDPD  Y7, Y5, Y5 // + b
	VMOVUPD Y5, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     bnnormsloop
	VZEROUPPER
	RET

// func bnBwdDxScalarBlocksAVX(dx, dout, xmu *float64, k1, k2, k3 float64, blocks int64)
// bnBwdDxBlocksAVX with the per-channel constants broadcast from scalars:
// dx = ((k1*dout) - k2) - (k3*xmu).
TEXT ·bnBwdDxScalarBlocksAVX(SB), NOSPLIT, $0-56
	MOVQ         dx+0(FP), DI
	MOVQ         dout+8(FP), SI
	MOVQ         xmu+16(FP), DX
	VBROADCASTSD k1+24(FP), Y2
	VBROADCASTSD k2+32(FP), Y4
	VBROADCASTSD k3+40(FP), Y6
	MOVQ         blocks+48(FP), CX

bndxsloop:
	VMOVUPD (SI), Y1
	VMULPD  Y1, Y2, Y3 // k1*dout
	VSUBPD  Y4, Y3, Y3 // - k2
	VMOVUPD (DX), Y5
	VMULPD  Y5, Y6, Y7 // k3*xmu
	VSUBPD  Y7, Y3, Y3 // - k3*xmu
	VMOVUPD Y3, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     bndxsloop
	VZEROUPPER
	RET
