#include "textflag.h"

// AVX2 twins of the Go loops in kernels.go. The rule (matmul.go): a SIMD
// lane is one output element; no lane ever holds a partial sum; multiply
// and add are separate instructions (VMULPS then VADDPS, never a fused
// multiply-add), so each lane performs exactly the rounding sequence of
// the scalar loop. Tails run the same sequence with VMULSS/VADDSS.
//
// Every function executes VZEROUPPER before RET: the Go compiler's float
// code is legacy-SSE encoded and stalls on dirty upper YMM halves.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// acc += coef * b[AX], eight lanes / one lane. AX is a byte offset.
#define STEP8(coef, bptr, acc, tmp) \
	VMULPS (bptr)(AX*1), coef, tmp; \
	VADDPS tmp, acc, acc
#define STEP1(coef, bptr, acc, tmp) \
	VMULSS (bptr)(AX*1), coef, tmp; \
	VADDSS tmp, acc, acc

// func axpyAddAVX2(av float32, b, o []float32)
// o[j] += av * b[j]
TEXT ·axpyAddAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSS av+0(FP), Y8
	MOVQ b_base+8(FP), R8
	MOVQ o_base+32(FP), DI
	MOVQ o_len+40(FP), CX
	SHLQ $2, CX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $~31, DX
	JMP  axpy1_test8

axpy1_loop8:
	VMOVUPS (DI)(AX*1), Y0
	STEP8(Y8, R8, Y0, Y1)
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX

axpy1_test8:
	CMPQ AX, DX
	JLT  axpy1_loop8
	JMP  axpy1_test1

axpy1_loop1:
	VMOVSS (DI)(AX*1), X0
	STEP1(X8, R8, X0, X1)
	VMOVSS X0, (DI)(AX*1)
	ADDQ $4, AX

axpy1_test1:
	CMPQ AX, CX
	JLT  axpy1_loop1
	VZEROUPPER
	RET

// The elementwise family: dst[i] = x[i] OP y[i] over CX bytes, with the
// operand order of the scalar instruction the Go loop compiles to
// (x is the destination operand there). DI = dst, SI = x, R8 = y; the
// preprocessor cannot paste label names, so each use passes its own.
#define ELEMENTWISE(OP8, OP1, loop8, test8, loop1, test1) \
	SHLQ $2, CX; \
	XORQ AX, AX; \
	MOVQ CX, DX; \
	ANDQ $~31, DX; \
	JMP  test8; \
loop8: \
	VMOVUPS (SI)(AX*1), Y0; \
	OP8 (R8)(AX*1), Y0, Y0; \
	VMOVUPS Y0, (DI)(AX*1); \
	ADDQ $32, AX; \
test8: \
	CMPQ AX, DX; \
	JLT  loop8; \
	JMP  test1; \
loop1: \
	VMOVSS (SI)(AX*1), X0; \
	OP1 (R8)(AX*1), X0, X0; \
	VMOVSS X0, (DI)(AX*1); \
	ADDQ $4, AX; \
test1: \
	CMPQ AX, CX; \
	JLT  loop1; \
	VZEROUPPER; \
	RET

// func vecAddAVX2(o, b []float32)
// o[i] += b[i]
TEXT ·vecAddAVX2(SB), NOSPLIT, $0-48
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ b_base+24(FP), R8
	MOVQ DI, SI
	ELEMENTWISE(VADDPS, VADDSS, vadd_loop8, vadd_test8, vadd_loop1, vadd_test1)

// func vecAddToAVX2(o, a, b []float32)
// o[i] = a[i] + b[i]
TEXT ·vecAddToAVX2(SB), NOSPLIT, $0-72
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	ELEMENTWISE(VADDPS, VADDSS, vaddto_loop8, vaddto_test8, vaddto_loop1, vaddto_test1)

// func vecSubAVX2(o, a, b []float32)
// o[i] = a[i] - b[i]
TEXT ·vecSubAVX2(SB), NOSPLIT, $0-72
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	ELEMENTWISE(VSUBPS, VSUBSS, vsub_loop8, vsub_test8, vsub_loop1, vsub_test1)

// func vecMulAVX2(o, b []float32)
// o[i] *= b[i]
TEXT ·vecMulAVX2(SB), NOSPLIT, $0-48
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ b_base+24(FP), R8
	MOVQ DI, SI
	ELEMENTWISE(VMULPS, VMULSS, vmul_loop8, vmul_test8, vmul_loop1, vmul_test1)

// func vecScaleAVX2(alpha float32, o []float32)
// o[i] *= alpha
TEXT ·vecScaleAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSS alpha+0(FP), Y8
	MOVQ o_base+8(FP), DI
	MOVQ o_len+16(FP), CX
	SHLQ $2, CX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $~31, DX
	JMP  vscale_test8

vscale_loop8:
	VMULPS (DI)(AX*1), Y8, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX

vscale_test8:
	CMPQ AX, DX
	JLT  vscale_loop8
	JMP  vscale_test1

vscale_loop1:
	VMULSS (DI)(AX*1), X8, X0
	VMOVSS X0, (DI)(AX*1)
	ADDQ $4, AX

vscale_test1:
	CMPQ AX, CX
	JLT  vscale_loop1
	VZEROUPPER
	RET

// acc (lanes = 8 rows of a) += at[p] * broadcast(b[j,p]); Y4 holds at[p].
#define DOTSTEP(bmem, acc, tmp) \
	VBROADCASTSS bmem, tmp; \
	VMULPS tmp, Y4, tmp; \
	VADDPS tmp, acc, acc

// Move the eight lanes of an accumulator to / from a column of out: lane
// l lives at off+DI + l*ldo. BX = ldo bytes, R13 = 3*ldo bytes, R11 and
// XT are scratch. SCATTER8 destroys the accumulator.
#define SCATTER8(Y, X, off) \
	VMOVSS X, off(DI); \
	VEXTRACTPS $1, X, off(DI)(BX*1); \
	VEXTRACTPS $2, X, off(DI)(BX*2); \
	VEXTRACTPS $3, X, off(DI)(R13*1); \
	LEAQ off(DI)(BX*4), R11; \
	VEXTRACTF128 $1, Y, X; \
	VMOVSS X, (R11); \
	VEXTRACTPS $1, X, (R11)(BX*1); \
	VEXTRACTPS $2, X, (R11)(BX*2); \
	VEXTRACTPS $3, X, (R11)(R13*1)
#define GATHER8(Y, X, XT, off) \
	VMOVSS off(DI), X; \
	VINSERTPS $0x10, off(DI)(BX*1), X, X; \
	VINSERTPS $0x20, off(DI)(BX*2), X, X; \
	VINSERTPS $0x30, off(DI)(R13*1), X, X; \
	LEAQ off(DI)(BX*4), R11; \
	VMOVSS (R11), XT; \
	VINSERTPS $0x10, (R11)(BX*1), XT, XT; \
	VINSERTPS $0x20, (R11)(BX*2), XT, XT; \
	VINSERTPS $0x30, (R11)(R13*1), XT, XT; \
	VINSERTF128 $1, XT, Y, Y

// func dotCols8AVX2(at, b []float32, ldb, kb, n int, out []float32, ldo int, resume bool)
// out[l*ldo+j] (+)= Σ_{p<kb} at[p*8+l] * b[j*ldb+p] for l < 8, j < n: each
// lane is one dot-product chain in ascending p, starting from zero or,
// when resume is set, from the value an earlier k-block left in out. Four
// b rows per pass, then single rows.
TEXT ·dotCols8AVX2(SB), NOSPLIT, $0-105
	MOVQ b_base+24(FP), R8
	MOVQ ldb+48(FP), R12
	MOVQ kb+56(FP), R10
	MOVQ n+64(FP), DX
	MOVQ out_base+72(FP), DI
	MOVQ ldo+96(FP), BX
	SHLQ $2, BX
	LEAQ (BX)(BX*2), R13
	SHLQ $2, R12           // b row stride in bytes
	MOVQ R10, SI
	SHLQ $2, SI
	NEGQ SI
	ADDQ R12, SI           // from the end of one row's block to the next row's
	LEAQ (R12)(R12*2), R9
	ADDQ R8, R9            // R9 = R8 + 3 rows, kept in step with R8
	JMP  dot8_test4

dot8_rows4:
	CMPB resume+104(FP), $0
	JNE  dot8_resume4
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	JMP  dot8_start4

dot8_resume4:
	GATHER8(Y0, X0, X4, 0)
	GATHER8(Y1, X1, X4, 4)
	GATHER8(Y2, X2, X4, 8)
	GATHER8(Y3, X3, X4, 12)

dot8_start4:
	MOVQ at_base+0(FP), AX
	MOVQ R10, CX

dot8_loop4:
	VMOVUPS (AX), Y4
	DOTSTEP((R8), Y0, Y5)
	DOTSTEP((R8)(R12*1), Y1, Y6)
	DOTSTEP((R8)(R12*2), Y2, Y7)
	DOTSTEP((R9), Y3, Y8)
	ADDQ $32, AX
	ADDQ $4, R8
	ADDQ $4, R9
	DECQ CX
	JNZ  dot8_loop4

	SCATTER8(Y0, X0, 0)
	SCATTER8(Y1, X1, 4)
	SCATTER8(Y2, X2, 8)
	SCATTER8(Y3, X3, 12)
	ADDQ $16, DI
	LEAQ (R9)(SI*1), R8    // R9 ended kb past row j+3
	LEAQ (R12)(R12*2), R9
	ADDQ R8, R9
	SUBQ $4, DX

dot8_test4:
	CMPQ DX, $4
	JGE  dot8_rows4
	JMP  dot8_test1

dot8_rows1:
	CMPB resume+104(FP), $0
	JNE  dot8_resume1
	VXORPS Y0, Y0, Y0
	JMP  dot8_start1

dot8_resume1:
	GATHER8(Y0, X0, X4, 0)

dot8_start1:
	MOVQ at_base+0(FP), AX
	MOVQ R10, CX

dot8_loop1:
	VMOVUPS (AX), Y4
	DOTSTEP((R8), Y0, Y5)
	ADDQ $32, AX
	ADDQ $4, R8
	DECQ CX
	JNZ  dot8_loop1

	SCATTER8(Y0, X0, 0)
	ADDQ $4, DI
	ADDQ SI, R8
	DECQ DX

dot8_test1:
	TESTQ DX, DX
	JNZ  dot8_rows1
	VZEROUPPER
	RET

// The GEMM tile (gemmTileAVX2). Registers: R14 rows left (R14 is scratch
// in assembly; the ABI wrapper restores it), R15 the pair's step count
// (R15 is scratch in a function that reads no global), SI the pair's row 0
// coefficients, BX the byte offset of row 1's (0 in the one-row form), R9
// the coefficient stride, R8 b at the current column group, R10 b's row
// stride, DI o at the current column group, AX columns left, R13 row 1's
// live mask. Within a group: R11 the step's coefficients, DX the step's
// row of b, CX steps left, R12 scratch and row 1's output; Y0–Y3 row 0's
// accumulators, Y4–Y7 row 1's, Y8 and Y9 the step's two coefficients
// broadcast.

// Start a column group, with the step count in CX and ldo in R12: coefficients at
// R11, b at DX, row 1's output at R12, every accumulator +0. (The frame
// arguments are read outside the macros: vet checks an (FP) reference in
// a #define against the function before it.)
#define TSTART \
	MOVQ SI, R11; \
	MOVQ R8, DX; \
	LEAQ (DI)(R12*4), R12; \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y1, Y1, Y1; \
	VXORPS Y2, Y2, Y2; \
	VXORPS Y3, Y3, Y3; \
	VXORPS Y4, Y4, Y4; \
	VXORPS Y5, Y5, Y5; \
	VXORPS Y6, Y6, Y6; \
	VXORPS Y7, Y7, Y7

// Jump to dead when the coefficient at c is ±0: its bits under mask, all
// but the sign bit, are zero. A NaN is not ±0 and is live, as av != 0 in
// Go. Row 1's mask, R13, is 0 in the one-row form, so no row 1 is live.
#define TDEAD(c, mask, dead) \
	MOVL c, R12; \
	ANDL mask, R12; \
	JZ   dead
#define TDEAD0(dead) TDEAD((R11), $0x7fffffff, dead)
#define TDEAD1(dead) TDEAD((R11)(BX*1), R13, dead)

// Advance to the next k-step; fall through when none is left.
#define TNEXT(loop) \
	ADDQ R9, R11; \
	ADDQ R10, DX; \
	DECQ CX; \
	JNZ  loop

// acc += coef * b[DX+off] on one row; on both rows, sharing the load of
// b; and the single-column form. The coefficient is the first operand of
// the multiply and the accumulator of the add, as in axpyAddGo.
#define TSTEP(off, coef, acc) \
	VMULPS off(DX), coef, Y11; \
	VADDPS Y11, acc, acc
#define TSTEP2(off, acc0, acc1) \
	VMOVUPS off(DX), Y10; \
	VMULPS Y10, Y8, Y11; \
	VADDPS Y11, acc0, acc0; \
	VMULPS Y10, Y9, Y12; \
	VADDPS Y12, acc1, acc1
#define TSTEP1(coef, acc) \
	VMULSS (DX), coef, X11; \
	VADDSS X11, acc, acc

// Four accumulators from / to 32 columns at p; TADD sets o = o + acc, o
// the first operand as in vecAdd.
#define TLOAD4(p, r0, r1, r2, r3) \
	VMOVUPS 0(p), r0; \
	VMOVUPS 32(p), r1; \
	VMOVUPS 64(p), r2; \
	VMOVUPS 96(p), r3
#define TSTORE4(p, r0, r1, r2, r3) \
	VMOVUPS r0, 0(p); \
	VMOVUPS r1, 32(p); \
	VMOVUPS r2, 64(p); \
	VMOVUPS r3, 96(p)
#define TADD(off, p, acc) \
	VMOVUPS off(p), Y10; \
	VADDPS acc, Y10, Y10; \
	VMOVUPS Y10, off(p)
#define TADD1(p, acc) \
	VMOVSS (p), X10; \
	VADDSS acc, X10, X10; \
	VMOVSS X10, (p)

// func gemmTileAVX2(a []float32, rs, ps int, b []float32, ldb, kb int, o []float32, ldo, n, rows int, mode tileMode)
// For r < rows, j < n: s = +0 (tileSet, tileAcc) or o[r*ldo+j]
// (tileResume); s += c*b[p*ldb+j] for p < kb ascending where c =
// a[r*rs+p*ps] is not ±0; then o[r*ldo+j] = s, or o[r*ldo+j] += s in
// tileAcc. Rows go in pairs, an odd last row in the one-row form; within
// a pair, columns go in groups of 32, then 8, then 1, and each step
// branches to the code for the rows it has live.
TEXT ·gemmTileAVX2(SB), NOSPLIT, $0-136
	MOVQ a_base+0(FP), SI
	MOVQ ps+32(FP), R9
	SHLQ $2, R9
	MOVQ ldb+64(FP), R10
	SHLQ $2, R10
	MOVQ o_base+80(FP), DI
	MOVQ rows+120(FP), R14
	JMP  tile_pairs

tile_pair:
	MOVQ b_base+40(FP), R8
	MOVQ n+112(FP), AX
	XORQ BX, BX
	XORQ R13, R13
	CMPQ R14, $2
	JLT  tile_scan
	MOVQ rs+24(FP), BX
	SHLQ $2, BX
	MOVL $0x7fffffff, R13

tile_scan:
	// R15 is the pair's step count: kb, or 0 when every coefficient of
	// the pair is ±0 (an LSTM's first step multiplies h = 0), so that no
	// column group walks dead steps. The scan stops at the first live one.
	MOVQ kb+72(FP), R15
	MOVQ SI, R11
	MOVQ R15, CX
	TESTQ CX, CX
	JZ   tile_test32

tile_scan_k:
	TDEAD0(tile_scan_dead0)
	JMP  tile_test32

tile_scan_dead0:
	TDEAD1(tile_scan_next)
	JMP  tile_test32

tile_scan_next:
	ADDQ R9, R11
	DECQ CX
	JNZ  tile_scan_k
	XORQ R15, R15
	JMP  tile_test32

tile_group32:
	MOVQ R15, CX
	MOVQ ldo+104(FP), R12
	TSTART
	CMPQ mode+128(FP), $1
	JNE  tile_steps32
	TLOAD4(DI, Y0, Y1, Y2, Y3)
	TESTQ R13, R13
	JZ   tile_steps32
	TLOAD4(R12, Y4, Y5, Y6, Y7)

tile_steps32:
	TESTQ CX, CX
	JZ   tile_out32

tile_k32:
	TDEAD0(tile_dead32)
	VBROADCASTSS (R11), Y8
	TDEAD1(tile_row0_32)
	VBROADCASTSS (R11)(BX*1), Y9
	TSTEP2(0, Y0, Y4)
	TSTEP2(32, Y1, Y5)
	TSTEP2(64, Y2, Y6)
	TSTEP2(96, Y3, Y7)

tile_next32:
	TNEXT(tile_k32)
	JMP  tile_out32

tile_row0_32:
	TSTEP(0, Y8, Y0)
	TSTEP(32, Y8, Y1)
	TSTEP(64, Y8, Y2)
	TSTEP(96, Y8, Y3)
	JMP  tile_next32

tile_dead32:
	TDEAD1(tile_next32)
	VBROADCASTSS (R11)(BX*1), Y9
	TSTEP(0, Y9, Y4)
	TSTEP(32, Y9, Y5)
	TSTEP(64, Y9, Y6)
	TSTEP(96, Y9, Y7)
	JMP  tile_next32

tile_out32:
	MOVQ ldo+104(FP), R12
	LEAQ (DI)(R12*4), R12
	CMPQ mode+128(FP), $2
	JEQ  tile_add32
	TSTORE4(DI, Y0, Y1, Y2, Y3)
	TESTQ R13, R13
	JZ   tile_done32
	TSTORE4(R12, Y4, Y5, Y6, Y7)
	JMP  tile_done32

tile_add32:
	TADD(0, DI, Y0)
	TADD(32, DI, Y1)
	TADD(64, DI, Y2)
	TADD(96, DI, Y3)
	TESTQ R13, R13
	JZ   tile_done32
	TADD(0, R12, Y4)
	TADD(32, R12, Y5)
	TADD(64, R12, Y6)
	TADD(96, R12, Y7)

tile_done32:
	ADDQ $128, DI
	ADDQ $128, R8
	SUBQ $32, AX

tile_test32:
	CMPQ AX, $32
	JGE  tile_group32
	JMP  tile_test8

tile_group8:
	MOVQ R15, CX
	MOVQ ldo+104(FP), R12
	TSTART
	CMPQ mode+128(FP), $1
	JNE  tile_steps8
	VMOVUPS (DI), Y0
	TESTQ R13, R13
	JZ   tile_steps8
	VMOVUPS (R12), Y4

tile_steps8:
	TESTQ CX, CX
	JZ   tile_out8

tile_k8:
	TDEAD0(tile_dead8)
	VBROADCASTSS (R11), Y8
	TDEAD1(tile_row0_8)
	VBROADCASTSS (R11)(BX*1), Y9
	TSTEP2(0, Y0, Y4)

tile_next8:
	TNEXT(tile_k8)
	JMP  tile_out8

tile_row0_8:
	TSTEP(0, Y8, Y0)
	JMP  tile_next8

tile_dead8:
	TDEAD1(tile_next8)
	VBROADCASTSS (R11)(BX*1), Y9
	TSTEP(0, Y9, Y4)
	JMP  tile_next8

tile_out8:
	MOVQ ldo+104(FP), R12
	LEAQ (DI)(R12*4), R12
	CMPQ mode+128(FP), $2
	JEQ  tile_add8
	VMOVUPS Y0, (DI)
	TESTQ R13, R13
	JZ   tile_done8
	VMOVUPS Y4, (R12)
	JMP  tile_done8

tile_add8:
	TADD(0, DI, Y0)
	TESTQ R13, R13
	JZ   tile_done8
	TADD(0, R12, Y4)

tile_done8:
	ADDQ $32, DI
	ADDQ $32, R8
	SUBQ $8, AX

tile_test8:
	CMPQ AX, $8
	JGE  tile_group8
	JMP  tile_test1

tile_col1:
	MOVQ R15, CX
	MOVQ ldo+104(FP), R12
	TSTART
	CMPQ mode+128(FP), $1
	JNE  tile_steps1
	VMOVSS (DI), X0
	TESTQ R13, R13
	JZ   tile_steps1
	VMOVSS (R12), X4

tile_steps1:
	TESTQ CX, CX
	JZ   tile_out1

tile_k1:
	TDEAD0(tile_dead1)
	VMOVSS (R11), X8
	TDEAD1(tile_row0_1)
	VMOVSS (R11)(BX*1), X9
	VMOVSS (DX), X10
	VMULSS X10, X8, X11
	VADDSS X11, X0, X0
	VMULSS X10, X9, X12
	VADDSS X12, X4, X4

tile_next1:
	TNEXT(tile_k1)
	JMP  tile_out1

tile_row0_1:
	TSTEP1(X8, X0)
	JMP  tile_next1

tile_dead1:
	TDEAD1(tile_next1)
	VMOVSS (R11)(BX*1), X9
	TSTEP1(X9, X4)
	JMP  tile_next1

tile_out1:
	MOVQ ldo+104(FP), R12
	LEAQ (DI)(R12*4), R12
	CMPQ mode+128(FP), $2
	JEQ  tile_add1
	VMOVSS X0, (DI)
	TESTQ R13, R13
	JZ   tile_done1
	VMOVSS X4, (R12)
	JMP  tile_done1

tile_add1:
	TADD1(DI, X0)
	TESTQ R13, R13
	JZ   tile_done1
	TADD1(R12, X4)

tile_done1:
	ADDQ $4, DI
	ADDQ $4, R8
	DECQ AX

tile_test1:
	TESTQ AX, AX
	JNZ  tile_col1

	// The next pair: DI back n columns and down two rows, SI two rows on.
	MOVQ n+112(FP), R12
	SHLQ $2, R12
	SUBQ R12, DI
	MOVQ ldo+104(FP), R12
	SHLQ $3, R12
	ADDQ R12, DI
	MOVQ rs+24(FP), R12
	SHLQ $3, R12
	ADDQ R12, SI
	SUBQ $2, R14

tile_pairs:
	CMPQ R14, $0
	JGT  tile_pair
	VZEROUPPER
	RET

// func diluteAVX2(a, b float32, w, r, snap []float32, width int, rows, out []int) (finite bool, n int)
// w[i] = a*w[i] + b*r[i]; snap[i] = w[i]; finite: no w[i] written has an
// all-ones exponent. Y10 collects, lane by lane, whether a block's
// exponent field compared equal to the mask in Y11; the tail checks each
// stored value in a general register. With out empty (R11 = 0) the whole
// slice is one row. Otherwise the pass goes row by row — width floats,
// R10 bytes, each — over every row (R15 = 0) or over the rows listed
// from R15 to CX, touching the listed row dilutePrefetch entries ahead,
// and appends to out, through R11, the index (R14) of each row whose new
// bits differ from its old ones: Y12 ORs the blocks' old ^ new, R12 the
// tail's. AX is the byte offset, R13 the row's end, DX its blocks' end.
#define dilutePrefetch 8
TEXT ·diluteAVX2(SB), NOSPLIT, $0-152
	VBROADCASTSS a+0(FP), Y8
	VBROADCASTSS b+4(FP), Y9
	MOVL $0x7f800000, AX
	VMOVD AX, X11
	VPBROADCASTD X11, Y11
	VPXOR Y10, Y10, Y10
	MOVQ w_base+8(FP), DI
	MOVQ w_len+16(FP), CX
	SHLQ $2, CX
	MOVQ r_base+32(FP), R8
	MOVQ snap_base+56(FP), SI
	MOVQ width+80(FP), R10
	SHLQ $2, R10
	MOVQ out_base+112(FP), R11
	XORQ R9, R9
	XORQ R14, R14
	XORQ R15, R15
	XORQ AX, AX
	MOVQ out_len+120(FP), DX
	TESTQ DX, DX
	JNZ  dilute_report
	XORQ R11, R11
	MOVQ CX, R10
	JMP  dilute_testrow

dilute_report:
	MOVQ rows_len+96(FP), DX
	TESTQ DX, DX
	JZ   dilute_testrow
	MOVQ rows_base+88(FP), R15
	LEAQ (R15)(DX*8), CX
	JMP  dilute_nextlisted

dilute_row:
	MOVQ AX, R13
	ADDQ R10, R13
	MOVQ R10, DX
	ANDQ $~31, DX
	ADDQ AX, DX
	VPXOR Y12, Y12, Y12
	XORL R12, R12
	JMP  dilute_test8

dilute_loop8:
	VMOVUPS (DI)(AX*1), Y3
	VMULPS Y3, Y8, Y0
	VMULPS (R8)(AX*1), Y9, Y1
	VADDPS Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	VMOVUPS Y0, (SI)(AX*1)
	VPXOR Y0, Y3, Y3
	VPOR Y3, Y12, Y12
	VANDPS Y11, Y0, Y2
	VPCMPEQD Y11, Y2, Y2
	VPOR Y2, Y10, Y10
	ADDQ $32, AX

dilute_test8:
	CMPQ AX, DX
	JLT  dilute_loop8
	JMP  dilute_test1

dilute_loop1:
	VMULSS (DI)(AX*1), X8, X0
	VMULSS (R8)(AX*1), X9, X1
	VADDSS X1, X0, X0
	VMOVD X0, BX
	XORL (DI)(AX*1), BX
	ORL  BX, R12
	VMOVSS X0, (DI)(AX*1)
	VMOVSS X0, (SI)(AX*1)
	VMOVD X0, BX
	ANDL $0x7f800000, BX
	CMPL BX, $0x7f800000
	JNE  dilute_next1
	MOVL $1, R9

dilute_next1:
	ADDQ $4, AX

dilute_test1:
	CMPQ AX, R13
	JLT  dilute_loop1
	TESTQ R11, R11
	JZ   dilute_rowdone
	VPTEST Y12, Y12
	JNZ  dilute_changed
	TESTL R12, R12
	JZ   dilute_rowdone

dilute_changed:
	MOVQ R14, (R11)
	ADDQ $8, R11

dilute_rowdone:
	TESTQ R15, R15
	JNZ  dilute_nextlisted
	INCQ R14

dilute_testrow:
	CMPQ AX, CX
	JLT  dilute_row
	JMP  dilute_done

dilute_nextlisted:
	CMPQ R15, CX
	JGE  dilute_done
	MOVQ (R15), R14
	ADDQ $8, R15
	LEAQ (dilutePrefetch-1)*8(R15), R13
	CMPQ R13, CX
	JGE  dilute_offset
	MOVQ (R13), AX
	IMULQ R10, AX
	PREFETCHT0 (DI)(AX*1)
	PREFETCHT0 (R8)(AX*1)
	PREFETCHT0 (SI)(AX*1)
	LEAQ -4(AX)(R10*1), AX
	PREFETCHT0 (DI)(AX*1)
	PREFETCHT0 (R8)(AX*1)
	PREFETCHT0 (SI)(AX*1)

dilute_offset:
	MOVQ R14, AX
	IMULQ R10, AX
	JMP  dilute_row

dilute_done:
	XORQ AX, AX
	TESTQ R11, R11
	JZ   dilute_count
	MOVQ R11, AX
	SUBQ out_base+112(FP), AX
	SHRQ $3, AX

dilute_count:
	MOVQ AX, n+144(FP)
	VPTEST Y10, Y10
	JZ   dilute_tail
	MOVL $1, R9

dilute_tail:
	XORL $1, R9
	MOVB R9, finite+136(FP)
	VZEROUPPER
	RET

// func runsAVX2(x, s, vals []float32, spans []Span, base uint32) (nv, ns int)
// Registers: SI x, R8 s, DI vals, R10 next span, AX element index, R11
// values written, BX run-open flag, CX end of the whole blocks, DX n,
// Y7 zero.
TEXT ·runsAVX2(SB), NOSPLIT, $0-120

// Open a run at element index AX + base (R9 scratch) unless one is open
// (BX = 1), then count one more coefficient into it. R10 points one past
// the last span written; a span is (u32 start, u32 len).
#define OPEN_OR_EXTEND(ext, n) \
	TESTQ BX, BX; \
	JNZ  ext; \
	MOVL base+96(FP), R9; \
	ADDL AX, R9; \
	MOVL R9, (R10); \
	MOVL $0, 4(R10); \
	ADDQ $8, R10; \
	MOVQ $1, BX; \
ext: \
	ADDL n, -4(R10)

	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), DX
	MOVQ s_base+24(FP), R8
	MOVQ vals_base+48(FP), DI
	MOVQ spans_base+72(FP), R10
	XORQ AX, AX
	XORQ R11, R11
	XORQ BX, BX
	VPXOR Y7, Y7, Y7
	MOVQ DX, CX
	ANDQ $~7, CX
	JMP  runs_test8

runs_loop8:
	VMOVUPS (SI)(AX*4), Y0
	CMPQ s_len+32(FP), $0
	JEQ  runs_nosub8
	VSUBPS (R8)(AX*4), Y0, Y0

runs_nosub8:
	VMOVUPS Y0, (DI)(R11*4)
	VPCMPEQD Y7, Y0, Y1
	VMOVMSKPS Y1, R12
	CMPQ R12, $0xff
	JEQ  runs_zero8
	TESTQ R12, R12
	JNZ  runs_mixed8
	OPEN_OR_EXTEND(runs_ext8, $8)
	ADDQ $8, R11
	ADDQ $8, AX
	JMP  runs_test8

runs_zero8:
	XORQ BX, BX
	ADDQ $8, AX
	JMP  runs_test8

	// Lane by lane: R12 is the +0 mask with a stop bit above lane 7, R13
	// indexes the lane's value in the block just stored, which moves down
	// to vals[R11] (never above R13, so no value is overwritten unread).
runs_mixed8:
	ORQ  $0x100, R12
	MOVQ R11, R13

runs_lane:
	SHRQ $1, R12
	JCS  runs_lanezero
	OPEN_OR_EXTEND(runs_laneext, $1)
	VMOVSS (DI)(R13*4), X2
	VMOVSS X2, (DI)(R11*4)
	INCQ R11
	JMP  runs_lanenext

runs_lanezero:
	XORQ BX, BX

runs_lanenext:
	INCQ R13
	INCQ AX
	CMPQ R12, $1
	JNE  runs_lane

runs_test8:
	CMPQ AX, CX
	JLT  runs_loop8
	JMP  runs_test1

runs_loop1:
	VMOVSS (SI)(AX*4), X0
	CMPQ s_len+32(FP), $0
	JEQ  runs_nosub1
	VSUBSS (R8)(AX*4), X0, X0

runs_nosub1:
	VMOVD X0, R12
	TESTL R12, R12
	JZ   runs_zero1
	OPEN_OR_EXTEND(runs_ext1, $1)
	VMOVSS X0, (DI)(R11*4)
	INCQ R11
	JMP  runs_next1

runs_zero1:
	XORQ BX, BX

runs_next1:
	INCQ AX

runs_test1:
	CMPQ AX, DX
	JLT  runs_loop1
	MOVQ R11, nv+104(FP)
	SUBQ spans_base+72(FP), R10
	SHRQ $3, R10
	MOVQ R10, ns+112(FP)
	VZEROUPPER
	RET

// Verified activations. sigmoidAVX2 and tanhAVX2 are not twins of a Go
// loop: they compute Sigmoid32 and Tanh32 a different way, in float64, and
// keep a lane only when its result provably rounds to the float32 the
// definition returns (DESIGN.md §9, "Verified transcendentals"):
//
//   t = −x (sigmoid) or 2|x| (tanh); k = round(t·log2e); r = t − k·ln2,
//   |r| ≤ ln2/2 (ln2 split in two so k·ln2hi is exact);
//   q = e^r − 1 as its degree-12 Taylor polynomial, Horner from 1/12!;
//   sigmoid y = 1/((1+2^k) + 2^k·q), tanh y = m/(m+2), m = (2^k−1) + 2^k·q,
//   then the sign of x on tanh.
//
// The relative error of y is below 2^-48 and Sigmoid32/Tanh32's own float64
// value is within a few ulps (2^-50) of the true one, so the definition's
// float64 lies in [y − y·2^-44, y + y·2^-44]. Rounding is monotonic: when
// both ends of that interval round to the same float32, so does the
// definition, and the lane keeps that float32. Otherwise — and for NaN,
// ±Inf and |x| > 128 — the lane keeps x unchanged and is reported, so the
// caller can recompute it with the scalar definition even in place.
//
// Lanes 0–3 and 4–7 of a block run as two float64 chains: A in Y1 (t, then
// r), Y3 (t·log2e + 1.5·2^52, then 2^k), Y5 (q, then y), Y7 (k, then
// scratch); B in Y2, Y4, Y6, Y8.
// Y0 holds the eight inputs, Y11 |x|, Y12 the in-range mask, Y15 = 1.

// C4 is a float64 (or int64) constant in four lanes, C8 a float32 one in
// eight, each a 32-byte memory operand.
#define C4(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	DATA name<>+8(SB)/8, $bits; \
	DATA name<>+16(SB)/8, $bits; \
	DATA name<>+24(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32
#define C8(name, bits) \
	DATA name<>+0(SB)/4, $bits; \
	DATA name<>+4(SB)/4, $bits; \
	DATA name<>+8(SB)/4, $bits; \
	DATA name<>+12(SB)/4, $bits; \
	DATA name<>+16(SB)/4, $bits; \
	DATA name<>+20(SB)/4, $bits; \
	DATA name<>+24(SB)/4, $bits; \
	DATA name<>+28(SB)/4, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

C4(actLog2e, 0x3ff71547652b82fe)  // log2(e)
C4(actMagic, 0x4338000000000000)  // 1.5·2^52: adding it rounds to an integer, read from the low bits
C4(actLn2Hi, 0x3fe62e42fee00000)  // ln2, top 32 bits
C4(actLn2Lo, 0x3dea39ef35793c76)  // ln2 − actLn2Hi
C4(actBias, 0x3ff)                // float64 exponent bias, as an int64
C4(actOne, 0x3ff0000000000000)    // 1 = 1/1!
C4(actTwo, 0x4000000000000000)    // 2
C4(actEps, 0x3d30000000000000)    // 2^-44
C4(actSign, 0x8000000000000000)   // float64 sign bit
C4(actC2, 0x3fe0000000000000)     // 1/2!
C4(actC3, 0x3fc5555555555555)     // 1/3!
C4(actC4, 0x3fa5555555555555)
C4(actC5, 0x3f81111111111111)
C4(actC6, 0x3f56c16c16c16c17)
C4(actC7, 0x3f2a01a01a01a01a)
C4(actC8, 0x3efa01a01a01a01a)
C4(actC9, 0x3ec71de3a556c734)
C4(actC10, 0x3e927e4fb7789f5c)
C4(actC11, 0x3e5ae64567f544e4)
C4(actC12, 0x3e21eed8eff8d898)    // 1/12!
C8(actAbs32, 0x7fffffff)          // float32 magnitude mask
C8(actSign32, 0x80000000)         // float32 sign bit
C8(actLim32, 0x43000000)          // 128, the edge of the fast path's range
C8(actGeluLim32, 0x41800000)      // 16, the edge of the GELU kernels' fast path
C4(actAbs, 0x7fffffffffffffff)    // float64 magnitude mask
C4(actHalf, 0x3fe0000000000000)   // 0.5
C4(actTiny, 0x3c20000000000000)   // 2^-61
C4(actGeluC, 0x3fe9884533d43651)  // geluC = sqrt(2/pi) as Gelu32 rounds it
C4(actGeluA, 0x3fa6e4e26d4801f7)  // 0.044715
C4(actGeluA3, 0x3fc12ba9d1f60179) // 3·0.044715, folded as GeluDeriv32's constant is

// Load block AX of src into Y0 and the range mask into Y12: |x| ≤ lim,
// false for NaN.
#define ACT_LOAD(lim) \
	VMOVUPS (SI)(AX*4), Y0; \
	VANDPS actAbs32<>(SB), Y0, Y11; \
	VCMPPS $2, lim<>(SB), Y11, Y12

// Widen the eight float32 in Y of X into chains A (Y1) and B (Y2).
#define ACT_WIDEN(Y, X) \
	VCVTPS2PD X, Y1; \
	VEXTRACTF128 $1, Y, X2; \
	VCVTPS2PD X2, Y2

#define HORNER2(c) \
	VADDPD c<>(SB), Y5, Y5; \
	VADDPD c<>(SB), Y6, Y6; \
	VMULPD Y1, Y5, Y5; \
	VMULPD Y2, Y6, Y6

// From t in Y1/Y2 leave r there, 2^k in Y3/Y4 and q = e^r − 1 in Y5/Y6.
#define ACT_EXPM1 \
	VMULPD actLog2e<>(SB), Y1, Y3; \
	VMULPD actLog2e<>(SB), Y2, Y4; \
	VADDPD actMagic<>(SB), Y3, Y3; \
	VADDPD actMagic<>(SB), Y4, Y4; \
	VSUBPD actMagic<>(SB), Y3, Y7; \
	VSUBPD actMagic<>(SB), Y4, Y8; \
	VMULPD actLn2Hi<>(SB), Y7, Y5; \
	VMULPD actLn2Hi<>(SB), Y8, Y6; \
	VSUBPD Y5, Y1, Y1; \
	VSUBPD Y6, Y2, Y2; \
	VMULPD actLn2Lo<>(SB), Y7, Y7; \
	VMULPD actLn2Lo<>(SB), Y8, Y8; \
	VSUBPD Y7, Y1, Y1; \
	VSUBPD Y8, Y2, Y2; \
	VPADDQ actBias<>(SB), Y3, Y3; \
	VPADDQ actBias<>(SB), Y4, Y4; \
	VPSLLQ $52, Y3, Y3; \
	VPSLLQ $52, Y4, Y4; \
	VMULPD actC12<>(SB), Y1, Y5; \
	VMULPD actC12<>(SB), Y2, Y6; \
	HORNER2(actC11); \
	HORNER2(actC10); \
	HORNER2(actC9); \
	HORNER2(actC8); \
	HORNER2(actC7); \
	HORNER2(actC6); \
	HORNER2(actC5); \
	HORNER2(actC4); \
	HORNER2(actC3); \
	HORNER2(actC2); \
	HORNER2(actOne)

// From q and 2^k in Y5/Y6 and Y3/Y4 leave tanh(t/2) = m/(m+2) in Y5/Y6,
// m = (2^k − 1) + 2^k·q.
#define ACT_TANHRATIO \
	VMULPD Y3, Y5, Y5; \
	VMULPD Y4, Y6, Y6; \
	VSUBPD Y15, Y3, Y3; \
	VSUBPD Y15, Y4, Y4; \
	VADDPD Y3, Y5, Y5; \
	VADDPD Y4, Y6, Y6; \
	VADDPD actTwo<>(SB), Y5, Y3; \
	VADDPD actTwo<>(SB), Y6, Y4; \
	VDIVPD Y3, Y5, Y5; \
	VDIVPD Y4, Y6, Y6

// ε = y·2^-44 in Y7/Y8 for y in Y5/Y6: the bound of sigmoid and tanh.
#define ACT_RELEPS \
	VMULPD actEps<>(SB), Y5, Y7; \
	VMULPD actEps<>(SB), Y6, Y8

// The rounding test on y in Y5/Y6 with ε in Y7/Y8: Y9 = float32(y − ε)
// for the eight lanes, Y10 = the lanes where that equals float32(y + ε)
// and x is in range.
#define ACT_ROUNDTEST \
	VSUBPD Y7, Y5, Y1; \
	VSUBPD Y8, Y6, Y2; \
	VADDPD Y7, Y5, Y3; \
	VADDPD Y8, Y6, Y4; \
	VCVTPD2PSY Y1, X1; \
	VCVTPD2PSY Y2, X2; \
	VCVTPD2PSY Y3, X3; \
	VCVTPD2PSY Y4, X4; \
	VINSERTF128 $1, X2, Y1, Y9; \
	VINSERTF128 $1, X4, Y3, Y3; \
	VPCMPEQD Y3, Y9, Y10; \
	VANDPS Y12, Y10, Y10

// Store the kept lanes of Y9 and x in the others, then return at this
// block if any lane was rejected, or fall through to the next.
#define ACT_STORE(rejected) \
	VBLENDVPS Y10, Y9, Y0, Y9; \
	VMOVUPS Y9, (DI)(AX*4); \
	VMOVMSKPS Y10, DX; \
	CMPQ DX, $0xff; \
	JNE  rejected; \
	ADDQ $8, AX

// ACT_RET returns (done, reject): the elements before block AX, and the
// lanes of block AX the caller must recompute (DX, the kept-lane mask, is
// inverted; all whole blocks are done when AX reached CX).
#define ACT_RET(rejected) \
	MOVQ AX, done+48(FP); \
	MOVQ $0, reject+56(FP); \
	VZEROUPPER; \
	RET; \
rejected: \
	XORQ $0xff, DX; \
	MOVQ AX, done+48(FP); \
	MOVQ DX, reject+56(FP); \
	VZEROUPPER; \
	RET

// func sigmoidAVX2(dst, src []float32) (done, reject int)
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	ANDQ $~7, CX
	XORQ AX, AX
	VMOVUPD actOne<>(SB), Y15
	JMP  sig_test

sig_loop:
	ACT_LOAD(actLim32)
	ACT_WIDEN(Y0, X0)
	VXORPD actSign<>(SB), Y1, Y1
	VXORPD actSign<>(SB), Y2, Y2
	ACT_EXPM1
	// y = 1 / ((1 + 2^k) + 2^k·q)
	VMULPD Y3, Y5, Y5
	VMULPD Y4, Y6, Y6
	VADDPD Y15, Y3, Y3
	VADDPD Y15, Y4, Y4
	VADDPD Y3, Y5, Y5
	VADDPD Y4, Y6, Y6
	VDIVPD Y5, Y15, Y5
	VDIVPD Y6, Y15, Y6
	ACT_RELEPS
	ACT_ROUNDTEST
	ACT_STORE(sig_rejected)

sig_test:
	CMPQ AX, CX
	JLT  sig_loop
	ACT_RET(sig_rejected)

// func tanhAVX2(dst, src []float32) (done, reject int)
TEXT ·tanhAVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	ANDQ $~7, CX
	XORQ AX, AX
	VMOVUPD actOne<>(SB), Y15
	JMP  tanh_test

tanh_loop:
	ACT_LOAD(actLim32)
	ACT_WIDEN(Y11, X11)
	VADDPD Y1, Y1, Y1
	VADDPD Y2, Y2, Y2
	ACT_EXPM1
	ACT_TANHRATIO
	ACT_RELEPS
	ACT_ROUNDTEST
	VANDPS actSign32<>(SB), Y0, Y1
	VORPS  Y1, Y9, Y9
	ACT_STORE(tanh_rejected)

tanh_test:
	CMPQ AX, CX
	JLT  tanh_loop
	ACT_RET(tanh_rejected)

// The GELU kernels evaluate Gelu32/GeluDeriv32's own float64 expressions
// with the same operations in the same order — the cubic u = geluC·(x +
// ((0.044715·x)·x)·x), 0.5·x, 1 + t, the products and sums — which VMULPD
// and VADDPD reproduce exactly (no FMA). Only t = tanh(u) is approximated,
// by the tanh chain above at 2|u|, with the sign of u (which is the sign
// of x) put back. The bound ε carries t's error through the rest
// (DESIGN.md §9): for GELU ε = 2^-44·(|0.5·x| + |y|), for its derivative
// ε = 2^-44·(1 + |0.5·x·dinner| + |y|). Where 1 + t or 1 − t² cancels —
// very negative x, or large |x| in the derivative — ε dwarfs y's own
// float32 spacing and the lane is rejected.

// From the block in Y0 leave 2|u| in Y1/Y2 for ACT_EXPM1.
#define GELU_ARG \
	ACT_WIDEN(Y0, X0); \
	VMULPD actGeluA<>(SB), Y1, Y3; \
	VMULPD actGeluA<>(SB), Y2, Y4; \
	VMULPD Y1, Y3, Y3; \
	VMULPD Y2, Y4, Y4; \
	VMULPD Y1, Y3, Y3; \
	VMULPD Y2, Y4, Y4; \
	VADDPD Y3, Y1, Y1; \
	VADDPD Y4, Y2, Y2; \
	VMULPD actGeluC<>(SB), Y1, Y1; \
	VMULPD actGeluC<>(SB), Y2, Y2; \
	VANDPD actAbs<>(SB), Y1, Y1; \
	VANDPD actAbs<>(SB), Y2, Y2; \
	VADDPD Y1, Y1, Y1; \
	VADDPD Y2, Y2, Y2

// With |t| in Y5/Y6 leave x in Y1/Y2 and t, signed as x, in Y5/Y6.
#define GELU_SIGN \
	ACT_WIDEN(Y0, X0); \
	VANDPD actSign<>(SB), Y1, Y3; \
	VANDPD actSign<>(SB), Y2, Y4; \
	VORPD  Y3, Y5, Y5; \
	VORPD  Y4, Y6, Y6

// func geluAVX2(dst, src []float32) (done, reject int)
TEXT ·geluAVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	ANDQ $~7, CX
	XORQ AX, AX
	VMOVUPD actOne<>(SB), Y15
	JMP  gelu_test

gelu_loop:
	ACT_LOAD(actGeluLim32)
	GELU_ARG
	ACT_EXPM1
	ACT_TANHRATIO
	GELU_SIGN
	// y = (0.5·x)·(1 + t);  ε = 2^-44·(|0.5·x| + |y|), or 0 where
	// |0.5·x| < 2^-61: there 1 + t is exactly 1 for the kernel and the
	// definition alike, so both compute y = 0.5·x exactly.
	VMULPD actHalf<>(SB), Y1, Y1
	VMULPD actHalf<>(SB), Y2, Y2
	VADDPD Y15, Y5, Y5
	VADDPD Y15, Y6, Y6
	VMULPD Y5, Y1, Y5
	VMULPD Y6, Y2, Y6
	VANDPD actAbs<>(SB), Y1, Y7
	VANDPD actAbs<>(SB), Y2, Y8
	VCMPPD $5, actTiny<>(SB), Y7, Y9
	VCMPPD $5, actTiny<>(SB), Y8, Y10
	VANDPD actAbs<>(SB), Y5, Y3
	VANDPD actAbs<>(SB), Y6, Y4
	VADDPD Y3, Y7, Y7
	VADDPD Y4, Y8, Y8
	VMULPD actEps<>(SB), Y7, Y7
	VMULPD actEps<>(SB), Y8, Y8
	VANDPD Y9, Y7, Y7
	VANDPD Y10, Y8, Y8
	ACT_ROUNDTEST
	ACT_STORE(gelu_rejected)

gelu_test:
	CMPQ AX, CX
	JLT  gelu_loop
	ACT_RET(gelu_rejected)

// One chain of the derivative: x in X, t in T, scratch D, W and S; leaves
// y in T and ε in W.
//   dinner = geluC·(1 + ((3·0.044715)·x)·x);  h = 0.5·x
//   y = 0.5·(1 + t) + ((h·(1 − t·t))·dinner)
//   ε = 2^-44·(1 + |h·dinner| + |y|)
#define GELU_DERIV(X, T, D, W, S) \
	VMULPD actGeluA3<>(SB), X, D; \
	VMULPD X, D, D; \
	VADDPD Y15, D, D; \
	VMULPD actGeluC<>(SB), D, D; \
	VMULPD actHalf<>(SB), X, X; \
	VMULPD T, T, W; \
	VSUBPD W, Y15, W; \
	VMULPD X, W, W; \
	VMULPD D, W, W; \
	VADDPD Y15, T, T; \
	VMULPD actHalf<>(SB), T, T; \
	VADDPD W, T, T; \
	VMULPD X, D, D; \
	VANDPD actAbs<>(SB), D, D; \
	VADDPD Y15, D, D; \
	VANDPD actAbs<>(SB), T, S; \
	VADDPD S, D, D; \
	VMULPD actEps<>(SB), D, W

// func geluDerivAVX2(dst, src []float32) (done, reject int)
TEXT ·geluDerivAVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	ANDQ $~7, CX
	XORQ AX, AX
	VMOVUPD actOne<>(SB), Y15
	JMP  gelud_test

gelud_loop:
	ACT_LOAD(actGeluLim32)
	GELU_ARG
	ACT_EXPM1
	ACT_TANHRATIO
	GELU_SIGN
	GELU_DERIV(Y1, Y5, Y3, Y7, Y9)
	GELU_DERIV(Y2, Y6, Y4, Y8, Y10)
	ACT_ROUNDTEST
	ACT_STORE(gelud_rejected)

gelud_test:
	CMPQ AX, CX
	JLT  gelud_loop
	ACT_RET(gelud_rejected)

// func lstmCellBwdAVX2(dz, z []float32, h int, tc, cPrev, dy, dhNext, dcNext, dcPrev []float32)
// lstmCellBwdGo, one lane per element, each product, sum and difference
// its own instruction with the Go expression's operand order. Registers:
// SI z and DI dz, advanced per block, with the gates at +0, +h (BX),
// +2h and +3h (DX) bytes; R8 tc, R9 cPrev, R10 dy, R11 dhNext, R12
// dcNext and R13 dcPrev indexed by AX; CX end; Y15 = 1.
TEXT ·lstmCellBwdAVX2(SB), NOSPLIT, $0-200
	MOVQ dz_base+0(FP), DI
	MOVQ z_base+24(FP), SI
	MOVQ h+48(FP), BX
	SHLQ $2, BX
	LEAQ (BX)(BX*2), DX
	MOVQ tc_base+56(FP), R8
	MOVQ tc_len+64(FP), CX
	SHLQ $2, CX
	MOVQ cPrev_base+80(FP), R9
	MOVQ dy_base+104(FP), R10
	MOVQ dhNext_base+128(FP), R11
	MOVQ dcNext_base+152(FP), R12
	MOVQ dcPrev_base+176(FP), R13
	MOVL $0x3f800000, AX
	MOVQ AX, X15
	VPBROADCASTD X15, Y15
	XORQ AX, AX
	JMP  cellb_test

cellb_loop:
	VMOVUPS (SI), Y0
	VMOVUPS (SI)(BX*1), Y1
	VMOVUPS (SI)(BX*2), Y2
	VMOVUPS (SI)(DX*1), Y3
	VMOVUPS (R8)(AX*1), Y4
	VMOVUPS (R10)(AX*1), Y5
	VADDPS (R11)(AX*1), Y5, Y5 // dh = dy + dhNext
	VMULPS Y4, Y5, Y6          // do = dh*tc
	VMULPS Y3, Y5, Y7          // dh*o
	VMULPS Y4, Y4, Y8
	VSUBPS Y8, Y15, Y8         // 1 - tc*tc
	VMULPS Y8, Y7, Y7
	VMOVUPS (R12)(AX*1), Y9
	VADDPS Y7, Y9, Y9          // dc = dcNext + (dh*o)*(1 - tc*tc)
	VMULPS Y2, Y9, Y10         // dc*g
	VSUBPS Y0, Y15, Y11
	VMULPS Y11, Y0, Y11        // i*(1 - i)
	VMULPS Y11, Y10, Y10
	VMOVUPS Y10, (DI)
	VMULPS (R9)(AX*1), Y9, Y10 // dc*cPrev
	VSUBPS Y1, Y15, Y11
	VMULPS Y11, Y1, Y11        // f*(1 - f)
	VMULPS Y11, Y10, Y10
	VMOVUPS Y10, (DI)(BX*1)
	VMULPS Y0, Y9, Y10         // dc*i
	VMULPS Y2, Y2, Y11
	VSUBPS Y11, Y15, Y11       // 1 - g*g
	VMULPS Y11, Y10, Y10
	VMOVUPS Y10, (DI)(BX*2)
	VSUBPS Y3, Y15, Y11
	VMULPS Y11, Y3, Y11        // o*(1 - o)
	VMULPS Y11, Y6, Y11
	VMOVUPS Y11, (DI)(DX*1)
	VMULPS Y1, Y9, Y10         // dcPrev = dc*f
	VMOVUPS Y10, (R13)(AX*1)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, AX

cellb_test:
	CMPQ AX, CX
	JLT  cellb_loop
	VZEROUPPER
	RET

