// AVX micro-kernels, and the AVX-512 GEMM strips and whole-matrix kernels,
// for the float64 hot paths. Every kernel preserves the per-element
// operation order of its pure-Go counterpart (see gemm.go): multiplies and
// adds are emitted as separate VMULPD/VADDPD so no FMA contraction changes
// rounding, and each output element accumulates in the same sequence as the
// scalar loops — only independent elements are processed in parallel.
// Results are therefore bit-identical to the Go fallbacks on every input.
// The one exception is expRowAVX512 at the end of the file, whose fused
// steps are those of math.Exp itself.

#include "textflag.h"

// The GEMM strips' setup macros (see "AVX-512 GEMM strips" below) sit
// here, ahead of every TEXT, because they read the strips' arguments and
// go vet checks an argument reference against the function it follows.

// STRIPSETUP turns the A and B strides into bytes, sets K3 and starts at
// column 0.
#define STRIPSETUP \
	MOVQ    lda+32(FP), R8; \
	MOVQ    astep+40(FP), R14; \
	MOVQ    ldb+48(FP), R9; \
	SHLQ    $3, R8; \
	SHLQ    $3, R14; \
	SHLQ    $3, R9; \
	MOVBQZX load+72(FP), AX; \
	NEGQ    AX; \
	KMOVW   AX, K3; \
	XORQ    R15, R15

// TILESETUP starts the tile at column R15: the masks for the m-R15
// columns left, BX = 4·lda in bytes, DI and AX at the tile's dst columns,
// DX at its B columns, SI, R11, R12 and R13 at A rows 0-3, CX = ldc in
// bytes and R10 = k.
#define TILESETUP \
	MOVQ  m+64(FP), BX; \
	SUBQ  R15, BX; \
	CHUNKMASK; \
	KANDW K1, K3, K4; \
	KANDW K2, K3, K5; \
	MOVQ  R8, BX; \
	SHLQ  $2, BX; \
	MOVQ  ldc+24(FP), CX; \
	SHLQ  $3, CX; \
	MOVQ  dst+0(FP), DI; \
	LEAQ  (DI)(R15*8), DI; \
	MOVQ  DI, AX; \
	MOVQ  b+16(FP), DX; \
	LEAQ  (DX)(R15*8), DX; \
	MOVQ  a+8(FP), SI; \
	LEAQ  (SI)(R8*1), R11; \
	LEAQ  (SI)(R8*2), R12; \
	LEAQ  (R11)(R8*2), R13; \
	MOVQ  k+56(FP), R10

// NEXTTILE steps R15 to the next tile and jumps to label while columns
// remain.
#define NEXTTILE(label) \
	ADDQ $16, R15; \
	MOVQ m+64(FP), AX; \
	CMPQ R15, AX; \
	JLT  label

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

// func stepBlocksAVX(w, grad, ref, corr, mom *float64, mu, nlr, a, b float64, terms, blocks int64)
// One local-SGD step over blocks×8 elements, two YMM of four at a time.
// Per element d = grad; with terms&1, d += mu*(w - ref); with terms&2,
// d += corr; with terms&4, d = a*d + b*mom; then w += nlr*d. grad is read,
// not written. Each iteration tests the terms again; the branches go the
// same way every time, and two YMM per test halve what they cost.
TEXT ·stepBlocksAVX(SB), NOSPLIT, $0-88
	MOVQ         w+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         ref+16(FP), DX
	MOVQ         corr+24(FP), R8
	MOVQ         mom+32(FP), R9
	VBROADCASTSD mu+40(FP), Y10
	VBROADCASTSD nlr+48(FP), Y11
	VBROADCASTSD a+56(FP), Y12
	VBROADCASTSD b+64(FP), Y13
	MOVQ         terms+72(FP), BX
	MOVQ         blocks+80(FP), CX
	XORQ         AX, AX // byte offset

steploop:
	VMOVUPD (SI)(AX*1), Y0   // d = grad
	VMOVUPD 32(SI)(AX*1), Y4
	VMOVUPD (DI)(AX*1), Y1   // w
	VMOVUPD 32(DI)(AX*1), Y5
	TESTQ   $1, BX
	JZ      stepcorr
	VSUBPD  (DX)(AX*1), Y1, Y2 // w - ref
	VSUBPD  32(DX)(AX*1), Y5, Y6
	VMULPD  Y2, Y10, Y2        // mu*(w - ref)
	VMULPD  Y6, Y10, Y6
	VADDPD  Y2, Y0, Y0
	VADDPD  Y6, Y4, Y4

stepcorr:
	TESTQ  $2, BX
	JZ     stepmom
	VADDPD (R8)(AX*1), Y0, Y0 // d + corr
	VADDPD 32(R8)(AX*1), Y4, Y4

stepmom:
	TESTQ  $4, BX
	JZ     stepw
	VMULPD Y0, Y12, Y0         // a*d
	VMULPD Y4, Y12, Y4
	VMULPD (R9)(AX*1), Y13, Y2 // b*mom
	VMULPD 32(R9)(AX*1), Y13, Y6
	VADDPD Y2, Y0, Y0
	VADDPD Y6, Y4, Y4

stepw:
	VMULPD  Y0, Y11, Y0 // nlr*d
	VMULPD  Y4, Y11, Y4
	VADDPD  Y0, Y1, Y1  // w + nlr*d
	VADDPD  Y4, Y5, Y5
	VMOVUPD Y1, (DI)(AX*1)
	VMOVUPD Y5, 32(DI)(AX*1)
	ADDQ    $64, AX
	DECQ    CX
	JNZ     steploop
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

// CHUNKMASK sets K1 to the lanes of columns 0-7 of the next 16 that exist
// and K2 to those of columns 8-15, given BX columns left: all 16 lanes
// while BX ≥ 16. Clobbers AX and CX.
#define CHUNKMASK \
	MOVQ    BX, CX; \
	MOVQ    $16, AX; \
	CMPQ    CX, AX; \
	CMOVQGT AX, CX; \
	MOVQ    $1, AX; \
	SHLQ    CX, AX; \
	DECQ    AX; \
	KMOVW   AX, K1; \
	SHRQ    $8, AX; \
	KMOVW   AX, K2

// AVX-512 GEMM strips. Each computes dst[rows][m] = A[rows][k]·B[k][m]
// plus, when load is true, what dst held, for rows = 8, 4, 2 or 1, and
// walks the strip's columns itself: tiles of 16, the last one holding the
// 1–16 columns left with the missing lanes masked off, so a strip is one
// call and a tail row is computed where it lies. With load false every
// accumulator starts at +0 instead, the bits a zeroed dst would have
// loaded, so GemmInto needs no Zero pass. A tile holds its C block in ZMM
// accumulators, two per row for 9-16 columns and one for up to 8; per k
// step it loads one B row, broadcasts each row's A element and adds each
// product to its accumulator with separate VMULPD and VADDPD, k ascending.
// A masked load reads nothing past the last column and a masked store
// writes nothing there. A row i, element p lives at a + (i·lda + p·astep)·8,
// so a transposed operand streams unpacked.
//
// Registers: R15 counts the columns done. Per tile, DI walks the dst rows,
// AX the dst rows on load; SI, R11, R12 and R13 point at A rows 0-3 and,
// offset by BX = 4·lda, rows 4-7; DX is the B row; CX ldc, R8 lda, R9 ldb
// and R14 astep are in bytes; R10 counts the k steps left. Z16/Z17 hold the
// B row, Z18 the broadcast, Z19/Z20 products. K3 is every lane when load is
// true and none when it is false; K1/K2 are the lanes of a row's
// first/second ZMM in the tile, K4/K5 the same lanes and K3.

// CLOAD1/CLOAD2 start one dst row's accumulators and step AX to the next.
#define CLOAD1(c0) \
	VMOVUPD.Z (AX), K4, c0; \
	ADDQ      CX, AX

#define CLOAD2(c0, c1) \
	VMOVUPD.Z (AX), K4, c0; \
	VMOVUPD.Z 64(AX), K5, c1; \
	ADDQ      CX, AX

// CSTORE1/CSTORE2 store one row's accumulators and step DI to the next.
#define CSTORE1(c0) \
	VMOVUPD c0, K1, (DI); \
	ADDQ    CX, DI

#define CSTORE2(c0, c1) \
	VMOVUPD c0, K1, (DI); \
	VMOVUPD c1, K2, 64(DI); \
	ADDQ    CX, DI

// BLOAD1/BLOAD2 load the k step's B row.
#define BLOAD1 \
	VMOVUPD.Z (DX), K1, Z16

#define BLOAD2 \
	VMOVUPD.Z (DX), K1, Z16; \
	VMOVUPD.Z 64(DX), K2, Z17

// GEMMROW1/GEMMROW2 add one row's products for the k step: its A element
// at arow times the B row, into the row's accumulators.
#define GEMMROW1(arow, c0) \
	VBROADCASTSD arow, Z18; \
	VMULPD       Z16, Z18, Z19; \
	VADDPD       Z19, c0, c0

#define GEMMROW2(arow, c0, c1) \
	VBROADCASTSD arow, Z18; \
	VMULPD       Z16, Z18, Z19; \
	VADDPD       Z19, c0, c0; \
	VMULPD       Z17, Z18, Z20; \
	VADDPD       Z20, c1, c1

// NEXTK4/NEXTK2/NEXTK1 step the A rows in use and B to the next k and
// count it, setting the flags the loop's JNZ reads.
#define NEXTK4 \
	ADDQ R14, SI; \
	ADDQ R14, R11; \
	ADDQ R14, R12; \
	ADDQ R14, R13; \
	ADDQ R9, DX; \
	DECQ R10

#define NEXTK2 \
	ADDQ R14, SI; \
	ADDQ R14, R11; \
	ADDQ R9, DX; \
	DECQ R10

#define NEXTK1 \
	ADDQ R14, SI; \
	ADDQ R9, DX; \
	DECQ R10

// func gemmStrip8AVX512(dst, a, b *float64, ldc, lda, astep, ldb, k, m int64, load bool)
//
// The 8-row strip: sixteen accumulators (Z0-Z15) per 16-column tile, so
// each B row it loads serves eight rows, and eight (Z0-Z7, eight
// independent chains) for a last tile of up to 8 columns. GemmAcc walks
// the output with it, 8 rows at a time.
TEXT ·gemmStrip8AVX512(SB), NOSPLIT, $0-73
	STRIPSETUP

gemm8tile:
	TILESETUP
	KORTESTW K2, K2
	JZ       gemm8narrow
	CLOAD2(Z0, Z1)
	CLOAD2(Z2, Z3)
	CLOAD2(Z4, Z5)
	CLOAD2(Z6, Z7)
	CLOAD2(Z8, Z9)
	CLOAD2(Z10, Z11)
	CLOAD2(Z12, Z13)
	CLOAD2(Z14, Z15)

gemm8loop:
	BLOAD2
	GEMMROW2((SI), Z0, Z1)
	GEMMROW2((R11), Z2, Z3)
	GEMMROW2((R12), Z4, Z5)
	GEMMROW2((R13), Z6, Z7)
	GEMMROW2((SI)(BX*1), Z8, Z9)
	GEMMROW2((R11)(BX*1), Z10, Z11)
	GEMMROW2((R12)(BX*1), Z12, Z13)
	GEMMROW2((R13)(BX*1), Z14, Z15)
	NEXTK4
	JNZ gemm8loop

	CSTORE2(Z0, Z1)
	CSTORE2(Z2, Z3)
	CSTORE2(Z4, Z5)
	CSTORE2(Z6, Z7)
	CSTORE2(Z8, Z9)
	CSTORE2(Z10, Z11)
	CSTORE2(Z12, Z13)
	CSTORE2(Z14, Z15)
	NEXTTILE(gemm8tile)
	VZEROUPPER
	RET

gemm8narrow:
	CLOAD1(Z0)
	CLOAD1(Z1)
	CLOAD1(Z2)
	CLOAD1(Z3)
	CLOAD1(Z4)
	CLOAD1(Z5)
	CLOAD1(Z6)
	CLOAD1(Z7)

gemm8nloop:
	BLOAD1
	GEMMROW1((SI), Z0)
	GEMMROW1((R11), Z1)
	GEMMROW1((R12), Z2)
	GEMMROW1((R13), Z3)
	GEMMROW1((SI)(BX*1), Z4)
	GEMMROW1((R11)(BX*1), Z5)
	GEMMROW1((R12)(BX*1), Z6)
	GEMMROW1((R13)(BX*1), Z7)
	NEXTK4
	JNZ gemm8nloop

	CSTORE1(Z0)
	CSTORE1(Z1)
	CSTORE1(Z2)
	CSTORE1(Z3)
	CSTORE1(Z4)
	CSTORE1(Z5)
	CSTORE1(Z6)
	CSTORE1(Z7)
	VZEROUPPER
	RET

// func gemmStrip4AVX512(dst, a, b *float64, ldc, lda, astep, ldb, k, m int64, load bool)
//
// The 4-row strip (Z0-Z7 per tile, Z0-Z3 for a last tile of up to 8
// columns): GemmAcc runs it once on a remainder of 4-7 rows.
TEXT ·gemmStrip4AVX512(SB), NOSPLIT, $0-73
	STRIPSETUP

gemm4tile:
	TILESETUP
	KORTESTW K2, K2
	JZ       gemm4narrow
	CLOAD2(Z0, Z1)
	CLOAD2(Z2, Z3)
	CLOAD2(Z4, Z5)
	CLOAD2(Z6, Z7)

gemm4loop:
	BLOAD2
	GEMMROW2((SI), Z0, Z1)
	GEMMROW2((R11), Z2, Z3)
	GEMMROW2((R12), Z4, Z5)
	GEMMROW2((R13), Z6, Z7)
	NEXTK4
	JNZ gemm4loop

	CSTORE2(Z0, Z1)
	CSTORE2(Z2, Z3)
	CSTORE2(Z4, Z5)
	CSTORE2(Z6, Z7)
	NEXTTILE(gemm4tile)
	VZEROUPPER
	RET

gemm4narrow:
	CLOAD1(Z0)
	CLOAD1(Z1)
	CLOAD1(Z2)
	CLOAD1(Z3)

gemm4nloop:
	BLOAD1
	GEMMROW1((SI), Z0)
	GEMMROW1((R11), Z1)
	GEMMROW1((R12), Z2)
	GEMMROW1((R13), Z3)
	NEXTK4
	JNZ gemm4nloop

	CSTORE1(Z0)
	CSTORE1(Z1)
	CSTORE1(Z2)
	CSTORE1(Z3)
	VZEROUPPER
	RET

// func gemmStrip2AVX512(dst, a, b *float64, ldc, lda, astep, ldb, k, m int64, load bool)
//
// The 2-row strip (Z0-Z3 per tile, Z0-Z1 for a last tile of up to 8
// columns): GemmAcc runs it once on a remainder of 2 or 3 rows.
TEXT ·gemmStrip2AVX512(SB), NOSPLIT, $0-73
	STRIPSETUP

gemm2tile:
	TILESETUP
	KORTESTW K2, K2
	JZ       gemm2narrow
	CLOAD2(Z0, Z1)
	CLOAD2(Z2, Z3)

gemm2loop:
	BLOAD2
	GEMMROW2((SI), Z0, Z1)
	GEMMROW2((R11), Z2, Z3)
	NEXTK2
	JNZ gemm2loop

	CSTORE2(Z0, Z1)
	CSTORE2(Z2, Z3)
	NEXTTILE(gemm2tile)
	VZEROUPPER
	RET

gemm2narrow:
	CLOAD1(Z0)
	CLOAD1(Z1)

gemm2nloop:
	BLOAD1
	GEMMROW1((SI), Z0)
	GEMMROW1((R11), Z1)
	NEXTK2
	JNZ gemm2nloop

	CSTORE1(Z0)
	CSTORE1(Z1)
	VZEROUPPER
	RET

// func gemmStrip1AVX512(dst, a, b *float64, ldc, lda, astep, ldb, k, m int64, load bool)
//
// The 1-row strip (Z0-Z1 per tile, Z0 for a last tile of up to 8
// columns): GemmAcc runs it on the last row of an odd row count.
TEXT ·gemmStrip1AVX512(SB), NOSPLIT, $0-73
	STRIPSETUP

gemm1tile:
	TILESETUP
	KORTESTW K2, K2
	JZ       gemm1narrow
	CLOAD2(Z0, Z1)

gemm1loop:
	BLOAD2
	GEMMROW2((SI), Z0, Z1)
	NEXTK1
	JNZ gemm1loop

	CSTORE2(Z0, Z1)
	NEXTTILE(gemm1tile)
	VZEROUPPER
	RET

gemm1narrow:
	CLOAD1(Z0)

gemm1nloop:
	BLOAD1
	GEMMROW1((SI), Z0)
	NEXTK1
	JNZ gemm1nloop

	CSTORE1(Z0)
	VZEROUPPER
	RET

// func transposeAVX512(dst, src *float64, r, c, rb, cb int64)
//
// dst[j][i] = src[i][j] for i < rb and j < cb, both multiples of 8, where
// src is r×c and dst c×r, row-major: the 8×8 blocks one at a time, eight
// src rows into Z0-Z7, eight dst rows out of Z24-Z31. VUNPCKLPD/VUNPCKHPD
// pair rows 2i and 2i+1 within each 128-bit lane, and two rounds of
// VSHUFF64X2 gather a column's four lane pairs. Pure data movement: every
// element keeps its bits.
TEXT ·transposeAVX512(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ r+16(FP), R8 // dst row stride
	MOVQ c+24(FP), R9 // src row stride
	SHLQ $3, R8
	SHLQ $3, R9
	LEAQ (R8)(R8*2), R12 // 3 dst rows
	LEAQ (R9)(R9*2), R13 // 3 src rows
	MOVQ rb+32(FP), R10

transrowblock:
	MOVQ SI, AX // the block's first src row
	MOVQ DI, DX // its first dst row
	MOVQ cb+40(FP), R11

transblock:
	LEAQ    (AX)(R9*4), BX
	VMOVUPD (AX), Z0
	VMOVUPD (AX)(R9*1), Z1
	VMOVUPD (AX)(R9*2), Z2
	VMOVUPD (AX)(R13*1), Z3
	VMOVUPD (BX), Z4
	VMOVUPD (BX)(R9*1), Z5
	VMOVUPD (BX)(R9*2), Z6
	VMOVUPD (BX)(R13*1), Z7

	VUNPCKLPD Z1, Z0, Z8 // r0[0] r1[0] | r0[2] r1[2] | r0[4] r1[4] | r0[6] r1[6]
	VUNPCKHPD Z1, Z0, Z9 // the same for the odd columns
	VUNPCKLPD Z3, Z2, Z10
	VUNPCKHPD Z3, Z2, Z11
	VUNPCKLPD Z5, Z4, Z12
	VUNPCKHPD Z5, Z4, Z13
	VUNPCKLPD Z7, Z6, Z14
	VUNPCKHPD Z7, Z6, Z15

	VSHUFF64X2 $0x44, Z10, Z8, Z16 // lanes 0, 1 of rows 0-1 and 2-3
	VSHUFF64X2 $0x44, Z14, Z12, Z17 // lanes 0, 1 of rows 4-5 and 6-7
	VSHUFF64X2 $0xee, Z10, Z8, Z18 // lanes 2, 3 of rows 0-1 and 2-3
	VSHUFF64X2 $0xee, Z14, Z12, Z19 // lanes 2, 3 of rows 4-5 and 6-7
	VSHUFF64X2 $0x44, Z11, Z9, Z20
	VSHUFF64X2 $0x44, Z15, Z13, Z21
	VSHUFF64X2 $0xee, Z11, Z9, Z22
	VSHUFF64X2 $0xee, Z15, Z13, Z23

	VSHUFF64X2 $0x88, Z17, Z16, Z24 // column 0
	VSHUFF64X2 $0x88, Z21, Z20, Z25 // column 1
	VSHUFF64X2 $0xdd, Z17, Z16, Z26 // column 2
	VSHUFF64X2 $0xdd, Z21, Z20, Z27 // column 3
	VSHUFF64X2 $0x88, Z19, Z18, Z28 // column 4
	VSHUFF64X2 $0x88, Z23, Z22, Z29 // column 5
	VSHUFF64X2 $0xdd, Z19, Z18, Z30 // column 6
	VSHUFF64X2 $0xdd, Z23, Z22, Z31 // column 7

	LEAQ    (DX)(R8*4), BX
	VMOVUPD Z24, (DX)
	VMOVUPD Z25, (DX)(R8*1)
	VMOVUPD Z26, (DX)(R8*2)
	VMOVUPD Z27, (DX)(R12*1)
	VMOVUPD Z28, (BX)
	VMOVUPD Z29, (BX)(R8*1)
	VMOVUPD Z30, (BX)(R8*2)
	VMOVUPD Z31, (BX)(R12*1)

	ADDQ $64, AX // next 8 src columns
	LEAQ (BX)(R8*4), DX // next 8 dst rows
	SUBQ $8, R11
	JNZ  transblock

	LEAQ (SI)(R9*8), SI // next 8 src rows
	ADDQ $64, DI // next 8 dst columns
	SUBQ $8, R10
	JNZ  transrowblock
	VZEROUPPER
	RET

// AVX-512 whole-matrix kernels. Each takes a row-major rows×cols matrix,
// walks its columns 16 at a time (two ZMM of eight lanes) with the lanes
// past the last column masked off — masked loads read nothing there,
// masked stores write nothing — holds that chunk's per-column constants
// and accumulators in registers, and loops over every row inside. So a
// whole BatchNorm pass, bias add or column sum is one call, and no column
// count runs scalar code. Every element sees the same operations in the
// same order as its scalar expression in simd.go and dense.go; a sum over
// rows still starts at +0 and adds the rows in ascending order.

// func addRowVecAVX512(m, v *float64, rows, cols int64)
// m[r][c] += v[c] for every row: v's chunk is loaded once per 16 columns.
TEXT ·addRowVecAVX512(SB), NOSPLIT, $0-32
	MOVQ m+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ cols+24(FP), BX
	MOVQ BX, R12
	SHLQ $3, R12 // row stride in bytes

addrowcol:
	CHUNKMASK
	VMOVUPD.Z (SI), K1, Z16
	VMOVUPD.Z 64(SI), K2, Z17
	MOVQ      rows+16(FP), R13
	MOVQ      DI, DX

addrowrow:
	VMOVUPD.Z (DX), K1, Z0
	VMOVUPD.Z 64(DX), K2, Z1
	VADDPD    Z16, Z0, Z0 // m + v
	VADDPD    Z17, Z1, Z1
	VMOVUPD   Z0, K1, (DX)
	VMOVUPD   Z1, K2, 64(DX)
	ADDQ      R12, DX
	DECQ      R13
	JNZ       addrowrow
	ADDQ      $128, DI
	ADDQ      $128, SI
	SUBQ      $16, BX
	JG        addrowcol
	VZEROUPPER
	RET

// func colSumsAVX512(dst, x *float64, rows, cols int64)
// dst[c] = Σ_r x[r][c]: each column's chain starts at +0 and adds the rows
// in ascending order, two ZMM of chains per 16 columns.
TEXT ·colSumsAVX512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ cols+24(FP), BX
	MOVQ BX, R12
	SHLQ $3, R12

colsumcol:
	CHUNKMASK
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	MOVQ   rows+16(FP), R13
	MOVQ   SI, DX

colsumrow:
	VMOVUPD.Z (DX), K1, Z2
	VMOVUPD.Z 64(DX), K2, Z3
	VADDPD    Z2, Z0, Z0 // sum + x
	VADDPD    Z3, Z1, Z1
	ADDQ      R12, DX
	DECQ      R13
	JNZ       colsumrow
	VMOVUPD   Z0, K1, (DI)
	VMOVUPD   Z1, K2, 64(DI)
	ADDQ      $128, DI
	ADDQ      $128, SI
	SUBQ      $16, BX
	JG        colsumcol
	VZEROUPPER
	RET

// func bnNormAVX512(out, xmu, x, mean, gam, bet, inv *float64, rows, cols int64)
// Per element: d = x - mean; xmu = d; out = ((g*d)*inv) + b, with mean, g,
// b and inv held per 16 columns in Z16-Z23.
TEXT ·bnNormAVX512(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ xmu+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ mean+24(FP), R8
	MOVQ gam+32(FP), R9
	MOVQ bet+40(FP), R10
	MOVQ inv+48(FP), R11
	MOVQ cols+64(FP), BX
	MOVQ BX, R12
	SHLQ $3, R12

bnnormcol:
	CHUNKMASK
	VMOVUPD.Z (R8), K1, Z16
	VMOVUPD.Z 64(R8), K2, Z17
	VMOVUPD.Z (R9), K1, Z18
	VMOVUPD.Z 64(R9), K2, Z19
	VMOVUPD.Z (R10), K1, Z20
	VMOVUPD.Z 64(R10), K2, Z21
	VMOVUPD.Z (R11), K1, Z22
	VMOVUPD.Z 64(R11), K2, Z23
	MOVQ      rows+56(FP), R13
	MOVQ      DI, AX
	MOVQ      SI, CX
	MOVQ      DX, R14

bnnormrow:
	VMOVUPD.Z (R14), K1, Z0
	VMOVUPD.Z 64(R14), K2, Z1
	VSUBPD    Z16, Z0, Z0 // d = x - mean
	VSUBPD    Z17, Z1, Z1
	VMOVUPD   Z0, K1, (CX)
	VMOVUPD   Z1, K2, 64(CX)
	VMULPD    Z0, Z18, Z0 // g*d
	VMULPD    Z1, Z19, Z1
	VMULPD    Z22, Z0, Z0 // (g*d)*inv
	VMULPD    Z23, Z1, Z1
	VADDPD    Z20, Z0, Z0 // + b
	VADDPD    Z21, Z1, Z1
	VMOVUPD   Z0, K1, (AX)
	VMOVUPD   Z1, K2, 64(AX)
	ADDQ      R12, AX
	ADDQ      R12, CX
	ADDQ      R12, R14
	DECQ      R13
	JNZ       bnnormrow
	ADDQ      $128, DI
	ADDQ      $128, SI
	ADDQ      $128, DX
	ADDQ      $128, R8
	ADDQ      $128, R9
	ADDQ      $128, R10
	ADDQ      $128, R11
	SUBQ      $16, BX
	JG        bnnormcol
	VZEROUPPER
	RET

// func bnSqDevAVX512(sq, x, mean *float64, rows, cols int64)
// sq[c] = Σ_r (x[r][c] - mean[c])²: per element d = x - mean, d*d, added to
// a chain that starts at +0, rows in ascending order.
TEXT ·bnSqDevAVX512(SB), NOSPLIT, $0-40
	MOVQ sq+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ mean+16(FP), R8
	MOVQ cols+32(FP), BX
	MOVQ BX, R12
	SHLQ $3, R12

bnsqcol:
	CHUNKMASK
	VMOVUPD.Z (R8), K1, Z16
	VMOVUPD.Z 64(R8), K2, Z17
	VPXORQ    Z0, Z0, Z0
	VPXORQ    Z1, Z1, Z1
	MOVQ      rows+24(FP), R13
	MOVQ      SI, DX

bnsqrow:
	VMOVUPD.Z (DX), K1, Z2
	VMOVUPD.Z 64(DX), K2, Z3
	VSUBPD    Z16, Z2, Z2 // d = x - mean
	VSUBPD    Z17, Z3, Z3
	VMULPD    Z2, Z2, Z2  // d*d
	VMULPD    Z3, Z3, Z3
	VADDPD    Z2, Z0, Z0  // sq + d*d
	VADDPD    Z3, Z1, Z1
	ADDQ      R12, DX
	DECQ      R13
	JNZ       bnsqrow
	VMOVUPD   Z0, K1, (DI)
	VMOVUPD   Z1, K2, 64(DI)
	ADDQ      $128, DI
	ADDQ      $128, SI
	ADDQ      $128, R8
	SUBQ      $16, BX
	JG        bnsqcol
	VZEROUPPER
	RET

// func bnBwdSumsAVX512(sumD, sumDXmu, dout, xmu *float64, rows, cols int64)
// sumD[c] = Σ_r dout; sumDXmu[c] = Σ_r dout*xmu: two chains per column,
// each from +0, rows in ascending order.
TEXT ·bnBwdSumsAVX512(SB), NOSPLIT, $0-48
	MOVQ sumD+0(FP), DI
	MOVQ sumDXmu+8(FP), SI
	MOVQ dout+16(FP), R8
	MOVQ xmu+24(FP), R9
	MOVQ cols+40(FP), BX
	MOVQ BX, R12
	SHLQ $3, R12

bnsumscol:
	CHUNKMASK
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ   rows+32(FP), R13
	MOVQ   R8, DX
	MOVQ   R9, R14

bnsumsrow:
	VMOVUPD.Z (DX), K1, Z4
	VMOVUPD.Z 64(DX), K2, Z5
	VADDPD    Z4, Z0, Z0 // sumD + d
	VADDPD    Z5, Z1, Z1
	VMOVUPD.Z (R14), K1, Z6
	VMOVUPD.Z 64(R14), K2, Z7
	VMULPD    Z6, Z4, Z6 // d*xmu
	VMULPD    Z7, Z5, Z7
	VADDPD    Z6, Z2, Z2 // sumDXmu + d*xmu
	VADDPD    Z7, Z3, Z3
	ADDQ      R12, DX
	ADDQ      R12, R14
	DECQ      R13
	JNZ       bnsumsrow
	VMOVUPD   Z0, K1, (DI)
	VMOVUPD   Z1, K2, 64(DI)
	VMOVUPD   Z2, K1, (SI)
	VMOVUPD   Z3, K2, 64(SI)
	ADDQ      $128, DI
	ADDQ      $128, SI
	ADDQ      $128, R8
	ADDQ      $128, R9
	SUBQ      $16, BX
	JG        bnsumscol
	VZEROUPPER
	RET

// func bnBwdDxAVX512(dx, dout, xmu, k1, k2, k3 *float64, rows, cols int64)
// Per element: dx = ((k1*dout) - k2) - (k3*xmu), with k1, k2 and k3 held
// per 16 columns in Z16-Z21.
TEXT ·bnBwdDxAVX512(SB), NOSPLIT, $0-64
	MOVQ dx+0(FP), DI
	MOVQ dout+8(FP), SI
	MOVQ xmu+16(FP), DX
	MOVQ k1+24(FP), R8
	MOVQ k2+32(FP), R9
	MOVQ k3+40(FP), R10
	MOVQ cols+56(FP), BX
	MOVQ BX, R12
	SHLQ $3, R12

bndxcol:
	CHUNKMASK
	VMOVUPD.Z (R8), K1, Z16
	VMOVUPD.Z 64(R8), K2, Z17
	VMOVUPD.Z (R9), K1, Z18
	VMOVUPD.Z 64(R9), K2, Z19
	VMOVUPD.Z (R10), K1, Z20
	VMOVUPD.Z 64(R10), K2, Z21
	MOVQ      rows+48(FP), R13
	MOVQ      DI, AX
	MOVQ      SI, CX
	MOVQ      DX, R14

bndxrow:
	VMOVUPD.Z (CX), K1, Z0
	VMOVUPD.Z 64(CX), K2, Z1
	VMULPD    Z0, Z16, Z0 // k1*dout
	VMULPD    Z1, Z17, Z1
	VSUBPD    Z18, Z0, Z0 // - k2
	VSUBPD    Z19, Z1, Z1
	VMOVUPD.Z (R14), K1, Z2
	VMOVUPD.Z 64(R14), K2, Z3
	VMULPD    Z2, Z20, Z2 // k3*xmu
	VMULPD    Z3, Z21, Z3
	VSUBPD    Z2, Z0, Z0  // - k3*xmu
	VSUBPD    Z3, Z1, Z1
	VMOVUPD   Z0, K1, (AX)
	VMOVUPD   Z1, K2, 64(AX)
	ADDQ      R12, AX
	ADDQ      R12, CX
	ADDQ      R12, R14
	DECQ      R13
	JNZ       bndxrow
	ADDQ      $128, DI
	ADDQ      $128, SI
	ADDQ      $128, DX
	ADDQ      $128, R8
	ADDQ      $128, R9
	ADDQ      $128, R10
	SUBQ      $16, BX
	JG        bndxcol
	VZEROUPPER
	RET

// func softmaxShiftAVX512(x *float64, rows, cols int64)
// The softmax of each column of x, whose rows are a batch's classes and
// whose columns are its samples, begins here: per column, m starts at row
// 0 and takes each later row's element when it is greater (VMAXPD keeps
// its second operand, m, on a NaN and on equal zeros, as tensor.Max does),
// then every element of the column becomes x - m.
TEXT ·softmaxShiftAVX512(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ cols+16(FP), BX
	MOVQ BX, R12
	SHLQ $3, R12

smshiftcol:
	CHUNKMASK
	VMOVUPD.Z (SI), K1, Z0
	VMOVUPD.Z 64(SI), K2, Z1
	MOVQ      rows+8(FP), R13
	MOVQ      SI, DX
	DECQ      R13
	JZ        smshiftsub

smshiftmax:
	ADDQ      R12, DX
	VMOVUPD.Z (DX), K1, Z2
	VMOVUPD.Z 64(DX), K2, Z3
	VMAXPD    Z0, Z2, Z0 // x > m ? x : m
	VMAXPD    Z1, Z3, Z1
	DECQ      R13
	JNZ       smshiftmax

smshiftsub:
	MOVQ rows+8(FP), R13
	MOVQ SI, DX

smshiftrow:
	VMOVUPD.Z (DX), K1, Z2
	VMOVUPD.Z 64(DX), K2, Z3
	VSUBPD    Z0, Z2, Z2 // x - m
	VSUBPD    Z1, Z3, Z3
	VMOVUPD   Z2, K1, (DX)
	VMOVUPD   Z3, K2, 64(DX)
	ADDQ      R12, DX
	DECQ      R13
	JNZ       smshiftrow
	ADDQ      $128, SI
	SUBQ      $16, BX
	JG        smshiftcol
	VZEROUPPER
	RET

// func softmaxScaleAVX512(x *float64, rows, cols int64)
// The softmax of each column ends here, x holding its exps: per column, a
// sum that starts at +0 and adds the rows in ascending order, inv = 1/sum,
// then every element of the column becomes x*inv.
TEXT ·softmaxScaleAVX512(SB), NOSPLIT, $0-24
	MOVQ         x+0(FP), SI
	MOVQ         cols+16(FP), BX
	MOVQ         BX, R12
	SHLQ         $3, R12
	VBROADCASTSD one<>(SB), Z16

smscalecol:
	CHUNKMASK
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	MOVQ   rows+8(FP), R13
	MOVQ   SI, DX

smscalesum:
	VMOVUPD.Z (DX), K1, Z2
	VMOVUPD.Z 64(DX), K2, Z3
	VADDPD    Z2, Z0, Z0 // sum + x
	VADDPD    Z3, Z1, Z1
	ADDQ      R12, DX
	DECQ      R13
	JNZ       smscalesum
	VDIVPD    Z0, Z16, Z0 // inv = 1/sum
	VDIVPD    Z1, Z16, Z1
	MOVQ      rows+8(FP), R13
	MOVQ      SI, DX

smscalerow:
	VMOVUPD.Z (DX), K1, Z2
	VMOVUPD.Z 64(DX), K2, Z3
	VMULPD    Z0, Z2, Z2 // x*inv
	VMULPD    Z1, Z3, Z3
	VMOVUPD   Z2, K1, (DX)
	VMOVUPD   Z3, K2, 64(DX)
	ADDQ      R12, DX
	DECQ      R13
	JNZ       smscalerow
	ADDQ      $128, SI
	SUBQ      $16, BX
	JG        smscalecol
	VZEROUPPER
	RET

// LANEMASK sets K1 to the lanes of the next 8 elements that exist, given
// BX elements left: all 8 while BX ≥ 8. Clobbers AX and CX.
#define LANEMASK \
	MOVQ    BX, CX; \
	MOVQ    $8, AX; \
	CMPQ    CX, AX; \
	CMOVQGT AX, CX; \
	MOVQ    $1, AX; \
	SHLQ    CX, AX; \
	DECQ    AX; \
	KMOVW   AX, K1

// func divScalarAVX512(v *float64, d float64, n int64)
// v[i] = v[i]/d, eight lanes at a time, the last block masked.
TEXT ·divScalarAVX512(SB), NOSPLIT, $0-24
	MOVQ         v+0(FP), DI
	VBROADCASTSD d+8(FP), Z16
	MOVQ         n+16(FP), BX

divloop:
	LANEMASK
	VMOVUPD.Z (DI), K1, Z0
	VDIVPD    Z16, Z0, Z0 // v/d
	VMOVUPD   Z0, K1, (DI)
	ADDQ      $64, DI
	SUBQ      $8, BX
	JG        divloop
	VZEROUPPER
	RET

// func invSqrtAVX512(dst, v *float64, eps float64, n int64)
// dst[i] = 1/sqrt(v[i]+eps): VSQRTPD and VDIVPD round correctly, as
// math.Sqrt and the scalar division do.
TEXT ·invSqrtAVX512(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         v+8(FP), SI
	VBROADCASTSD eps+16(FP), Z16
	VBROADCASTSD one<>(SB), Z17
	MOVQ         n+24(FP), BX

invsqrtloop:
	LANEMASK
	VMOVUPD.Z (SI), K1, Z0
	VADDPD    Z16, Z0, Z0 // v + eps
	VSQRTPD   Z0, Z0
	VDIVPD    Z0, Z17, Z0 // 1/sqrt
	VMOVUPD   Z0, K1, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $8, BX
	JG        invsqrtloop
	VZEROUPPER
	RET

// func bnRunStatsAVX512(runMean, runVar, inv, mean, sq *float64, m, mom, keep, eps float64, n int64)
// Per channel: variance = sq/m; runMean = keep*runMean + mom*mean; runVar
// = keep*runVar + mom*variance; inv = 1/sqrt(variance+eps), keep being
// 1 - mom.
TEXT ·bnRunStatsAVX512(SB), NOSPLIT, $0-80
	MOVQ         runMean+0(FP), DI
	MOVQ         runVar+8(FP), SI
	MOVQ         inv+16(FP), DX
	MOVQ         mean+24(FP), R8
	MOVQ         sq+32(FP), R9
	VBROADCASTSD m+40(FP), Z16
	VBROADCASTSD mom+48(FP), Z17
	VBROADCASTSD keep+56(FP), Z18
	VBROADCASTSD eps+64(FP), Z19
	VBROADCASTSD one<>(SB), Z20
	MOVQ         n+72(FP), BX

runstatsloop:
	LANEMASK
	VMOVUPD.Z (R9), K1, Z0
	VDIVPD    Z16, Z0, Z0 // variance = sq/m
	VMOVUPD.Z (DI), K1, Z1
	VMULPD    Z1, Z18, Z1 // keep*runMean
	VMOVUPD.Z (R8), K1, Z2
	VMULPD    Z2, Z17, Z2 // mom*mean
	VADDPD    Z2, Z1, Z1
	VMOVUPD   Z1, K1, (DI)
	VMOVUPD.Z (SI), K1, Z1
	VMULPD    Z1, Z18, Z1 // keep*runVar
	VMULPD    Z0, Z17, Z2 // mom*variance
	VADDPD    Z2, Z1, Z1
	VMOVUPD   Z1, K1, (SI)
	VADDPD    Z19, Z0, Z0 // variance + eps
	VSQRTPD   Z0, Z0
	VDIVPD    Z0, Z20, Z0 // 1/sqrt
	VMOVUPD   Z0, K1, (DX)
	ADDQ      $64, DI
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $64, R8
	ADDQ      $64, R9
	SUBQ      $8, BX
	JG        runstatsloop
	VZEROUPPER
	RET

// func bnBwdConstsAVX512(kg, sumD, sumDXmu, betaGrad, gammaGrad, gam, inv *float64, m float64, n int64)
// Per channel, with gi = g*inv: betaGrad += sumD; gammaGrad += sumDXmu*inv;
// kg = gi; sumD = (gi/m)*sumD; sumDXmu = (((gi*inv)*inv)/m)*sumDXmu.
TEXT ·bnBwdConstsAVX512(SB), NOSPLIT, $0-72
	MOVQ         kg+0(FP), DI
	MOVQ         sumD+8(FP), SI
	MOVQ         sumDXmu+16(FP), DX
	MOVQ         betaGrad+24(FP), R8
	MOVQ         gammaGrad+32(FP), R9
	MOVQ         gam+40(FP), R10
	MOVQ         inv+48(FP), R11
	VBROADCASTSD m+56(FP), Z16
	MOVQ         n+64(FP), BX
	XORQ         R12, R12 // byte offset

bnconstloop:
	LANEMASK
	VMOVUPD.Z (SI)(R12*1), K1, Z0  // sumD
	VMOVUPD.Z (DX)(R12*1), K1, Z1  // sumDXmu
	VMOVUPD.Z (R11)(R12*1), K1, Z2 // inv
	VMOVUPD.Z (R8)(R12*1), K1, Z3
	VADDPD    Z0, Z3, Z3 // betaGrad + sumD
	VMOVUPD   Z3, K1, (R8)(R12*1)
	VMULPD    Z2, Z1, Z3 // sumDXmu*inv
	VMOVUPD.Z (R9)(R12*1), K1, Z4
	VADDPD    Z3, Z4, Z4 // gammaGrad + sumDXmu*inv
	VMOVUPD   Z4, K1, (R9)(R12*1)
	VMOVUPD.Z (R10)(R12*1), K1, Z5
	VMULPD    Z2, Z5, Z5 // gi = g*inv
	VMOVUPD   Z5, K1, (DI)(R12*1)
	VDIVPD    Z16, Z5, Z6 // gi/m
	VMULPD    Z0, Z6, Z6  // (gi/m)*sumD
	VMOVUPD   Z6, K1, (SI)(R12*1)
	VMULPD    Z2, Z5, Z5  // gi*inv
	VMULPD    Z2, Z5, Z5  // gi*inv*inv
	VDIVPD    Z16, Z5, Z5 // /m
	VMULPD    Z1, Z5, Z5  // *sumDXmu
	VMOVUPD   Z5, K1, (DX)(R12*1)
	ADDQ      $64, R12
	SUBQ      $8, BX
	JG        bnconstloop
	VZEROUPPER
	RET

DATA one<>+0(SB)/8, $1.0
GLOBL one<>(SB), RODATA|NOPTR, $8

// The exp kernel below is the one place in this package that fuses a
// multiply with an add. It reproduces math.Exp on amd64, which takes its
// FMA path (exp_amd64.s, after Shibata's SLEEF method) on every CPU that
// has AVX and FMA: the same constants, the same operations in the same
// order, each fused step an explicit VFNMADD231PD or VFMADD213PD where the
// scalar code has VFNMADD231SD or VFMADD213SD. An FMA instruction rounds
// once by definition, so each lane's result is as deterministic as the
// scalar one, and equal to it bit for bit.
DATA expconst<>+0(SB)/8, $1.4426950408889634073599246810018920       // LOG2E
DATA expconst<>+8(SB)/8, $0.69314718055966295651160180568695068359375 // LN2U
DATA expconst<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA expconst<>+24(SB)/8, $0.0625
DATA expconst<>+32(SB)/8, $2.4801587301587301587e-5
DATA expconst<>+40(SB)/8, $1.9841269841269841270e-4
DATA expconst<>+48(SB)/8, $1.3888888888888888889e-3
DATA expconst<>+56(SB)/8, $8.3333333333333333333e-3
DATA expconst<>+64(SB)/8, $4.1666666666666666667e-2
DATA expconst<>+72(SB)/8, $1.6666666666666666667e-1
DATA expconst<>+80(SB)/8, $0.5
DATA expconst<>+88(SB)/8, $1.0
DATA expconst<>+96(SB)/8, $2.0
DATA expconst<>+104(SB)/8, $-708.0
DATA expconst<>+112(SB)/8, $1023
GLOBL expconst<>(SB), RODATA|NOPTR, $120

// func expRowAVX512(dst, x *float64, n int64) (ok bool)
//
// dst[i] = exp(x[i]) for i < n, eight lanes at a time with the last block
// masked. Lane by lane it is math.Exp's FMA path with its special cases
// left out: those are unreachable for d = x in [-708, 0], where the scaled
// exponent stays in [-1021, 0] and the result is normal. ok is false, and
// dst must be recomputed, if any d lies outside that range or is NaN (the
// compares are unordered-true).
TEXT ·expRowAVX512(SB), NOSPLIT, $0-25
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), BX
	VBROADCASTSD expconst<>+0(SB), Z16
	VBROADCASTSD expconst<>+8(SB), Z17
	VBROADCASTSD expconst<>+16(SB), Z18
	VBROADCASTSD expconst<>+24(SB), Z19
	VBROADCASTSD expconst<>+32(SB), Z20
	VBROADCASTSD expconst<>+40(SB), Z21
	VBROADCASTSD expconst<>+48(SB), Z22
	VBROADCASTSD expconst<>+56(SB), Z23
	VBROADCASTSD expconst<>+64(SB), Z24
	VBROADCASTSD expconst<>+72(SB), Z25
	VBROADCASTSD expconst<>+80(SB), Z26
	VBROADCASTSD expconst<>+88(SB), Z27
	VBROADCASTSD expconst<>+96(SB), Z28
	VBROADCASTSD expconst<>+104(SB), Z29
	VPBROADCASTQ expconst<>+112(SB), Z14
	VPXORQ       Z30, Z30, Z30
	KXORW        K3, K3, K3 // lanes out of range so far

exploop:
	MOVQ    BX, CX
	MOVQ    $8, AX
	CMPQ    CX, AX
	CMOVQGT AX, CX
	MOVQ    $1, AX
	SHLQ    CX, AX
	DECQ    AX
	KMOVW   AX, K1

	VMOVUPD.Z (SI), K1, Z0         // d = x
	VCMPPD    $0x19, Z29, Z0, K1, K2 // !(d >= -708)
	KORW      K2, K3, K3
	VCMPPD    $0x16, Z30, Z0, K1, K2 // !(d <= 0)
	KORW      K2, K3, K3

	VMULPD       Z16, Z0, Z1 // d*LOG2E
	VCVTPD2DQ    Z1, Y2      // exponent, rounded to nearest
	VCVTDQ2PD    Y2, Z1
	VFNMADD231PD Z17, Z1, Z0 // d -= e*LN2U
	VFNMADD231PD Z18, Z1, Z0 // d -= e*LN2L
	VMULPD       Z19, Z0, Z0 // r = d/16

	// Taylor series: p = ((…(c8·r + c7)·r + …)·r + 1/2)·r + 1.
	VMOVAPD     Z20, Z1
	VFMADD213PD Z21, Z0, Z1
	VFMADD213PD Z22, Z0, Z1
	VFMADD213PD Z23, Z0, Z1
	VFMADD213PD Z24, Z0, Z1
	VFMADD213PD Z25, Z0, Z1
	VFMADD213PD Z26, Z0, Z1
	VFMADD213PD Z27, Z0, Z1
	VMULPD      Z1, Z0, Z0 // y = r·p

	// Square four times: y = y·(y+2), the last one fused with the + 1.
	VADDPD      Z28, Z0, Z1
	VMULPD      Z1, Z0, Z0
	VADDPD      Z28, Z0, Z1
	VMULPD      Z1, Z0, Z0
	VADDPD      Z28, Z0, Z1
	VMULPD      Z1, Z0, Z0
	VADDPD      Z28, Z0, Z1
	VFMADD213PD Z27, Z1, Z0

	// Times 2^e: the exponent field (e + 1023) << 52.
	VPMOVSXDQ Y2, Z3
	VPADDQ    Z14, Z3, Z3
	VPSLLQ    $52, Z3, Z3
	VMULPD    Z3, Z0, Z0
	VMOVUPD   Z0, K1, (DI)

	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, BX
	JG   exploop

	KORTESTW K3, K3
	SETEQ    ok+24(FP)
	VZEROUPPER
	RET
