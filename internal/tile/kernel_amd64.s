//go:build amd64

#include "textflag.h"

// func cpuHasAVX2FMA() bool
//
// CPUID feature probe: FMA3 + AVX (leaf 1 ECX), OS YMM state (OSXSAVE +
// XGETBV XCR0 bits 1:2), AVX2 (leaf 7 EBX bit 5).
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, DI
	ANDL $(1<<12 | 1<<27 | 1<<28), DI // FMA | OSXSAVE | AVX
	CMPL DI, $(1<<12 | 1<<27 | 1<<28)
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XCR0: XMM|YMM state enabled by the OS
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX // AVX2
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func fmaMicro4x8(a *float64, rsA, csA int, b *float64, ldb, kb int, alpha float64, c *float64, ldc int)
//
// The register-tiled GEMM microkernel: a 4×8 block of C lives in Y0..Y7
// while the loop walks the depth, issuing 8 FMAs per step. Element (r, l) of
// op(A) is read at a[r·rsA + l·csA] and depth row l of op(B) at b[l·ldb], so
// the same loop runs a packed A strip (rsA = 1, csA = 4), a packed B strip
// (ldb = 8) or either operand in place. The write-back folds alpha in:
// C[r][0:8] += alpha·acc[r].
TEXT ·fmaMicro4x8(SB), NOSPLIT, $0-72
	MOVQ a+0(FP), SI
	MOVQ rsA+8(FP), R9
	MOVQ csA+16(FP), R10
	MOVQ b+24(FP), DI
	MOVQ ldb+32(FP), R11
	MOVQ kb+40(FP), CX
	MOVQ c+56(FP), DX
	MOVQ ldc+64(FP), R8
	SHLQ $3, R9 // strides in bytes
	SHLQ $3, R10
	SHLQ $3, R11
	SHLQ $3, R8
	LEAQ (R9)(R9*2), R12 // 3·rsA

	// Ask for the C block now, so its lines arrive under the depth loop
	// rather than stalling the write-back: a row is 64 bytes, on one line
	// or across two.
	MOVQ DX, AX
	PREFETCHT0 (AX)
	PREFETCHT0 56(AX)
	ADDQ R8, AX
	PREFETCHT0 (AX)
	PREFETCHT0 56(AX)
	ADDQ R8, AX
	PREFETCHT0 (AX)
	PREFETCHT0 56(AX)
	ADDQ R8, AX
	PREFETCHT0 (AX)
	PREFETCHT0 56(AX)

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	TESTQ CX, CX
	JZ    writeback

loop:
	VMOVUPD      (DI), Y8
	VMOVUPD      32(DI), Y9
	VBROADCASTSD (SI), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD (SI)(R9*1), Y11
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD (SI)(R9*2), Y12
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VBROADCASTSD (SI)(R12*1), Y13
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         R10, SI
	ADDQ         R11, DI
	DECQ         CX
	JNZ          loop

writeback:
	VBROADCASTSD alpha+48(FP), Y10

	VMOVUPD     (DX), Y11
	VMOVUPD     32(DX), Y12
	VFMADD231PD Y0, Y10, Y11
	VFMADD231PD Y1, Y10, Y12
	VMOVUPD     Y11, (DX)
	VMOVUPD     Y12, 32(DX)
	ADDQ        R8, DX

	VMOVUPD     (DX), Y11
	VMOVUPD     32(DX), Y12
	VFMADD231PD Y2, Y10, Y11
	VFMADD231PD Y3, Y10, Y12
	VMOVUPD     Y11, (DX)
	VMOVUPD     Y12, 32(DX)
	ADDQ        R8, DX

	VMOVUPD     (DX), Y11
	VMOVUPD     32(DX), Y12
	VFMADD231PD Y4, Y10, Y11
	VFMADD231PD Y5, Y10, Y12
	VMOVUPD     Y11, (DX)
	VMOVUPD     Y12, 32(DX)
	ADDQ        R8, DX

	VMOVUPD     (DX), Y11
	VMOVUPD     32(DX), Y12
	VFMADD231PD Y6, Y10, Y11
	VFMADD231PD Y7, Y10, Y12
	VMOVUPD     Y11, (DX)
	VMOVUPD     Y12, 32(DX)

	VZEROUPPER
	RET

// func cpuHasAVX512(ebx uint32) bool
//
// Every AVX-512 feature bit of ebx (leaf 7 EBX: bit 16 Foundation, bit 17
// DQ, …) with the OS saving opmask and ZMM state: OSXSAVE and XCR0 bits 1:2
// (XMM, YMM) and 5:7 (opmask, ZMM high halves, ZMM16-31), mask 0xE6.
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-9
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<27), CX // OSXSAVE
	JZ   no512
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	MOVL ebx+0(FP), DX
	ANDL DX, BX
	CMPL BX, DX
	JNE  no512
	MOVB $1, ret+8(FP)
	RET

no512:
	MOVB $0, ret+8(FP)
	RET

// One depth step of the 8×16 kernel: depth row l of op(B)'s 16 columns in
// Z16:Z17, each of op(A)'s 8 rows broadcast in turn — row r at SI + r·rsA,
// from the four stride multiples R9 = rsA, R12 = 3·rsA, R13 = 5·rsA and
// AX = 7·rsA — and multiplied into that row's two accumulators; then both
// operands step one depth on.
#define STEP8x16 \
	VMOVUPD      (DI), Z16; \
	VMOVUPD      64(DI), Z17; \
	VBROADCASTSD (SI), Z18; \
	VFMADD231PD  Z16, Z18, Z0; \
	VFMADD231PD  Z17, Z18, Z1; \
	VBROADCASTSD (SI)(R9*1), Z19; \
	VFMADD231PD  Z16, Z19, Z2; \
	VFMADD231PD  Z17, Z19, Z3; \
	VBROADCASTSD (SI)(R9*2), Z20; \
	VFMADD231PD  Z16, Z20, Z4; \
	VFMADD231PD  Z17, Z20, Z5; \
	VBROADCASTSD (SI)(R12*1), Z21; \
	VFMADD231PD  Z16, Z21, Z6; \
	VFMADD231PD  Z17, Z21, Z7; \
	VBROADCASTSD (SI)(R9*4), Z22; \
	VFMADD231PD  Z16, Z22, Z8; \
	VFMADD231PD  Z17, Z22, Z9; \
	VBROADCASTSD (SI)(R13*1), Z23; \
	VFMADD231PD  Z16, Z23, Z10; \
	VFMADD231PD  Z17, Z23, Z11; \
	VBROADCASTSD (SI)(R12*2), Z24; \
	VFMADD231PD  Z16, Z24, Z12; \
	VFMADD231PD  Z17, Z24, Z13; \
	VBROADCASTSD (SI)(AX*1), Z25; \
	VFMADD231PD  Z16, Z25, Z14; \
	VFMADD231PD  Z17, Z25, Z15; \
	ADDQ         R10, SI; \
	ADDQ         R11, DI

// One row of the 8×16 write-back: C[r][0:16] += alpha·(lo:hi), alpha
// broadcast in Z18.
#define WRITE8x16(lo, hi) \
	VMOVUPD     (DX), Z16; \
	VMOVUPD     64(DX), Z17; \
	VFMADD231PD lo, Z18, Z16; \
	VFMADD231PD hi, Z18, Z17; \
	VMOVUPD     Z16, (DX); \
	VMOVUPD     Z17, 64(DX); \
	ADDQ        R8, DX

// func fmaMicro8x16(a *float64, rsA, csA int, b *float64, ldb, kb int, alpha float64, c *float64, ldc int)
//
// The AVX-512 microkernel: an 8×16 block of C lives in Z0..Z15 (row r in
// Z(2r):Z(2r+1)) while the loop walks the depth, 16 FMAs per step, reading
// its operands with fmaMicro4x8's strides. Every C element is one FMA chain
// over the depth in order, then one FMA folding alpha in — operation for
// operation what fmaMicro4x8 does per element, so the two kernels produce
// the same bits.
TEXT ·fmaMicro8x16(SB), NOSPLIT, $0-72
	MOVQ a+0(FP), SI
	MOVQ rsA+8(FP), R9
	MOVQ csA+16(FP), R10
	MOVQ b+24(FP), DI
	MOVQ ldb+32(FP), R11
	MOVQ kb+40(FP), CX
	MOVQ c+56(FP), DX
	MOVQ ldc+64(FP), R8
	SHLQ $3, R9 // strides in bytes
	SHLQ $3, R10
	SHLQ $3, R11
	SHLQ $3, R8

	// Ask for the C block now (see fmaMicro4x8): a row is 128 bytes, on two
	// lines or across three.
	MOVQ DX, AX
	MOVQ $8, BX

prefetch512:
	PREFETCHT0 (AX)
	PREFETCHT0 64(AX)
	PREFETCHT0 120(AX)
	ADDQ R8, AX
	DECQ BX
	JNZ  prefetch512

	LEAQ (R9)(R9*2), R12 // 3·rsA
	LEAQ (R9)(R9*4), R13 // 5·rsA
	LEAQ (R12)(R9*4), AX // 7·rsA

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15

	MOVQ CX, BX
	SHRQ $2, BX // depth steps, four at a time
	JZ   tail512

loop512x4:
	STEP8x16
	STEP8x16
	STEP8x16
	STEP8x16
	DECQ BX
	JNZ  loop512x4

tail512:
	ANDQ $3, CX
	JZ   writeback512

loop512:
	STEP8x16
	DECQ CX
	JNZ  loop512

writeback512:
	VBROADCASTSD alpha+48(FP), Z18
	WRITE8x16(Z0, Z1)
	WRITE8x16(Z2, Z3)
	WRITE8x16(Z4, Z5)
	WRITE8x16(Z6, Z7)
	WRITE8x16(Z8, Z9)
	WRITE8x16(Z10, Z11)
	WRITE8x16(Z12, Z13)
	WRITE8x16(Z14, Z15)

	VZEROUPPER
	RET

// func fmaSolveRow(y *float64, n int, a *float64, k int, x *float64, ldx int, s float64)
//
// One row of a forward/backward substitution, AVX2+FMA:
//
//	y[0:n] = (y[0:n] − Σ_{l<k} a[l]·x[l·ldx + 0:n]) · s
//
// for n a multiple of 4. Sixteen columns of y sit in Y0..Y3 while the l loop
// walks down the k rows of x, so y is loaded and stored once per row solve
// however deep the sum; a 4-column loop finishes the row.
TEXT ·fmaSolveRow(SB), NOSPLIT, $0-56
	MOVQ y+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ a+16(FP), SI
	MOVQ k+24(FP), R9
	MOVQ x+32(FP), DX
	MOVQ ldx+40(FP), R8
	SHLQ $3, R8 // row stride of x in bytes
	VBROADCASTSD s+48(FP), Y6

cols16:
	CMPQ CX, $16
	JLT  cols4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ    SI, R10 // &a[l]
	MOVQ    DX, R11 // &x[l·ldx + column]
	MOVQ    R9, BX
	TESTQ   BX, BX
	JZ      store16

depth16:
	VBROADCASTSD (R10), Y4
	VFNMADD231PD (R11), Y4, Y0
	VFNMADD231PD 32(R11), Y4, Y1
	VFNMADD231PD 64(R11), Y4, Y2
	VFNMADD231PD 96(R11), Y4, Y3
	ADDQ         $8, R10
	ADDQ         R8, R11
	DECQ         BX
	JNZ          depth16

store16:
	VMULPD  Y6, Y0, Y0
	VMULPD  Y6, Y1, Y1
	VMULPD  Y6, Y2, Y2
	VMULPD  Y6, Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $16, CX
	JMP     cols16

cols4:
	CMPQ CX, $4
	JLT  solved
	VMOVUPD (DI), Y0
	MOVQ    SI, R10
	MOVQ    DX, R11
	MOVQ    R9, BX
	TESTQ   BX, BX
	JZ      store4

depth4:
	VBROADCASTSD (R10), Y4
	VFNMADD231PD (R11), Y4, Y0
	ADDQ         $8, R10
	ADDQ         R8, R11
	DECQ         BX
	JNZ          depth4

store4:
	VMULPD  Y6, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JMP     cols4

solved:
	VZEROUPPER
	RET

// One 4×4 block of the transpose: rows r..r+3 of the source at AX, written as
// rows c..c+3 of the destination at DX; both cursors move on to the next four
// source columns. The unpacks interleave rows 0,1 into Y4 = r0c0 r1c0 r0c2 r1c2
// and Y5 = r0c1 r1c1 r0c3 r1c3, rows 2,3 likewise into Y6, Y7; the permutes
// join matching 128-bit halves into columns c (Y0) to c+3 (Y3).
#define TRANSPOSE4x4 \
	VMOVUPD    (AX), Y0; \
	VMOVUPD    (AX)(R9*1), Y1; \
	VMOVUPD    (AX)(R9*2), Y2; \
	VMOVUPD    (AX)(R12*1), Y3; \
	VUNPCKLPD  Y1, Y0, Y4; \
	VUNPCKHPD  Y1, Y0, Y5; \
	VUNPCKLPD  Y3, Y2, Y6; \
	VUNPCKHPD  Y3, Y2, Y7; \
	VPERM2F128 $0x20, Y6, Y4, Y0; \
	VPERM2F128 $0x20, Y7, Y5, Y1; \
	VPERM2F128 $0x31, Y6, Y4, Y2; \
	VPERM2F128 $0x31, Y7, Y5, Y3; \
	VMOVUPD    Y0, (DX); \
	VMOVUPD    Y1, (DX)(R8*1); \
	VMOVUPD    Y2, (DX)(R8*2); \
	VMOVUPD    Y3, (DX)(R13*1); \
	ADDQ       $32, AX; \
	LEAQ       (DX)(R8*4), DX

// func transposeBlocks(dst *float64, ldd int, src *float64, lds int, rows, cols int)
//
// dst[c·ldd + r] = src[r·lds + c] for r < rows, c < cols, both multiples of
// 4. Four source rows are streamed front to back per pass, and for every cache
// line a pass reads it asks for the same line of the four rows under it:
// source rows lie lds apart, a stride the hardware prefetcher does not follow,
// and the pass that needs them — this call's next, or the next call's first
// when a caller walks down a matrix strip by strip — starts a few hundred
// cycles later. Past the last row the prefetch names memory that may not be the
// caller's; a prefetch is a hint and never a load.
TEXT ·transposeBlocks(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ lds+24(FP), R9
	MOVQ rows+32(FP), R10
	MOVQ cols+40(FP), R11
	SHLQ $3, R8 // strides in bytes
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R12 // 3·lds
	LEAQ (R8)(R8*2), R13 // 3·ldd

rowblock:
	CMPQ R10, $4
	JLT  transposed
	MOVQ SI, AX          // source cursor: rows r..r+3, column c
	LEAQ (SI)(R9*4), SI  // rows r+4..r+7: the next pass, prefetched by this one
	MOVQ SI, BX
	MOVQ DI, DX          // destination cursor: rows c..c+3, column r
	MOVQ R11, CX

colblock8:
	CMPQ CX, $8
	JLT  colblock4
	PREFETCHT0 (BX)
	PREFETCHT0 (BX)(R9*1)
	PREFETCHT0 (BX)(R9*2)
	PREFETCHT0 (BX)(R12*1)
	ADDQ       $64, BX
	TRANSPOSE4x4
	TRANSPOSE4x4
	SUBQ       $8, CX
	JMP        colblock8

colblock4:
	CMPQ CX, $4
	JLT  nextrows
	TRANSPOSE4x4

nextrows:
	ADDQ $32, DI
	SUBQ $4, R10
	JMP  rowblock

transposed:
	VZEROUPPER
	RET

// func dealRuns(dst *float64, stride int, src *float64, w, n, ahead int)
//
// dst[s·stride + r] = src[s·w + r] for s < n, r < w, w a multiple of 8: one
// contiguous source row dealt out in runs of w. Each cache line read is paired
// with a prefetch of the line `ahead` elements further on — the row a later
// call will deal — which, like transposeBlocks', may name memory past the
// caller's.
TEXT ·dealRuns(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ stride+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ w+24(FP), R9
	MOVQ n+32(FP), R10
	MOVQ ahead+40(FP), R11
	SHLQ $3, R8 // in bytes
	SHLQ $3, R11

run:
	MOVQ DI, DX
	MOVQ R9, CX

line:
	PREFETCHT0 (SI)(R11*1)
	VMOVUPD    (SI), Y0
	VMOVUPD    32(SI), Y1
	VMOVUPD    Y0, (DX)
	VMOVUPD    Y1, 32(DX)
	ADDQ       $64, SI
	ADDQ       $64, DX
	SUBQ       $8, CX
	JNZ        line
	ADDQ       R8, DI
	DECQ       R10
	JNZ        run

	VZEROUPPER
	RET

// The lane offsets 0..7 of a counter vector.
DATA uniformLanes<>+0(SB)/8, $0
DATA uniformLanes<>+8(SB)/8, $1
DATA uniformLanes<>+16(SB)/8, $2
DATA uniformLanes<>+24(SB)/8, $3
DATA uniformLanes<>+32(SB)/8, $4
DATA uniformLanes<>+40(SB)/8, $5
DATA uniformLanes<>+48(SB)/8, $6
DATA uniformLanes<>+56(SB)/8, $7
GLOBL uniformLanes<>(SB), RODATA|NOPTR, $64

// Eight elements of the element law in place: x holds the splitmix64 inputs
// with the golden-ratio increment already added, and leaves holding
// unit(splitmix64(·)). Both multipliers sit in Z2 and Z3, 2⁻⁵² in Z4 and 1.0
// in Z5; t is scratch. Every step is exact: the mix is integer arithmetic
// mod 2⁶⁴, the top 53 bits convert without rounding, and the scale by 2⁻⁵²
// and the subtraction of 1 land on representable values.
#define UNIFORM8(x, t) \
	VPSRLQ     $30, x, t; \
	VPXORQ     t, x, x; \
	VPMULLQ    Z2, x, x; \
	VPSRLQ     $27, x, t; \
	VPXORQ     t, x, x; \
	VPMULLQ    Z3, x, x; \
	VPSRLQ     $31, x, t; \
	VPXORQ     t, x, x; \
	VPSRLQ     $11, x, x; \
	VCVTUQQ2PD x, x; \
	VMULPD     Z4, x, x; \
	VSUBPD     Z5, x, x

// func fillUniform512(dst *float64, n int, key uint64)
//
// dst[c] = unit(splitmix64(key + c)) for c < n, n > 0, AVX-512F+DQ
// (VPMULLQ, VCVTUQQ2PD): sixteen counters per pass in Z0 and Z0+8, then one
// pass of eight, then the last 1–7 under a store mask, which writes nothing
// past dst[n-1].
TEXT ·fillUniform512(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         n+8(FP), CX
	MOVQ         key+16(FP), AX
	MOVQ         $0x9e3779b97f4a7c15, BX
	ADDQ         BX, AX // splitmix64's increment, folded into the base
	VPBROADCASTQ AX, Z0
	VPADDQ       uniformLanes<>(SB), Z0, Z0
	MOVQ         $8, AX
	VPBROADCASTQ AX, Z1
	MOVQ         $0xbf58476d1ce4e5b9, AX
	VPBROADCASTQ AX, Z2
	MOVQ         $0x94d049bb133111eb, AX
	VPBROADCASTQ AX, Z3
	MOVQ         $0x3cb0000000000000, AX // 2⁻⁵²
	VPBROADCASTQ AX, Z4
	MOVQ         $0x3ff0000000000000, AX // 1.0
	VPBROADCASTQ AX, Z5

fill16:
	CMPQ      CX, $16
	JLT       fill8
	VMOVDQA64 Z0, Z6
	VPADDQ    Z1, Z0, Z7
	VPADDQ    Z1, Z7, Z0
	UNIFORM8(Z6, Z8)
	UNIFORM8(Z7, Z9)
	VMOVUPD   Z6, (DI)
	VMOVUPD   Z7, 64(DI)
	ADDQ      $128, DI
	SUBQ      $16, CX
	JMP       fill16

fill8:
	CMPQ      CX, $8
	JLT       fillmask
	VMOVDQA64 Z0, Z6
	VPADDQ    Z1, Z0, Z0
	UNIFORM8(Z6, Z8)
	VMOVUPD   Z6, (DI)
	ADDQ      $64, DI
	SUBQ      $8, CX

fillmask:
	TESTQ   CX, CX
	JZ      filled
	MOVQ    $1, AX
	SHLQ    CX, AX
	DECQ    AX
	KMOVW   AX, K1
	UNIFORM8(Z0, Z8)
	VMOVUPD Z0, K1, (DI)

filled:
	VZEROUPPER
	RET

// func sumSquares512(x *float64, n int) float64
//
// Σ x[i]² over i < n, n > 0, AVX-512F, in sixteen lanes: lane k (Z0 lanes
// 0–7, Z1 lanes 8–15) adds x[i]·x[i], rounded, for every i ≡ k mod 16 in
// order, with no FMA; the last 1–15 elements are loaded under masks, which
// read nothing past x[n-1] and add +0 to the lanes they leave out. The lanes
// then fold in halves — k with k+8, k with k+4, k with k+2, 0 with 1 — which
// is sumSquaresGo's order, so the two return the same bits.
TEXT ·sumSquares512(SB), NOSPLIT, $0-24
	MOVQ   x+0(FP), SI
	MOVQ   n+8(FP), CX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1

sum16:
	CMPQ    CX, $16
	JLT     summask
	VMOVUPD (SI), Z2
	VMOVUPD 64(SI), Z3
	VMULPD  Z2, Z2, Z2
	VMULPD  Z3, Z3, Z3
	VADDPD  Z2, Z0, Z0
	VADDPD  Z3, Z1, Z1
	ADDQ    $128, SI
	SUBQ    $16, CX
	JMP     sum16

summask:
	TESTQ     CX, CX
	JZ        fold
	MOVQ      $1, AX
	SHLQ      CX, AX
	DECQ      AX
	KMOVW     AX, K1 // lanes 0–7
	SHRQ      $8, AX
	KMOVW     AX, K2 // lanes 8–15
	VMOVUPD.Z (SI), K1, Z2
	VMOVUPD.Z 64(SI), K2, Z3
	VMULPD    Z2, Z2, Z2
	VMULPD    Z3, Z3, Z3
	VADDPD    Z2, Z0, Z0
	VADDPD    Z3, Z1, Z1

fold:
	VADDPD        Z1, Z0, Z0
	VEXTRACTF64X4 $1, Z0, Y1
	VADDPD        Y1, Y0, Y0
	VEXTRACTF128  $1, Y0, X1
	VADDPD        X1, X0, X0
	VPERMILPD     $1, X0, X1
	VADDSD        X1, X0, X0
	VMOVSD        X0, ret+16(FP)
	VZEROUPPER
	RET
