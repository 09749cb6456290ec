#include "textflag.h"

// SSE kernels of the forward pass; see kernels_amd64.go. Every lane is
// one float32 accumulator of the matching Go kernel in math.go, started
// at +0 and fed one rounded multiply and one rounded add per term
// (MULPS and ADDPS, or MULSS and ADDSS in matVec's column tail), in the
// Go kernel's order. X15 is left alone: Go's internal ABI keeps zero
// there.

// HSUM4 leaves in X8 the four row sums ((a0+a1)+a2)+a3 — the Go
// kernel's a0 + a1 + a2 + a3 — of the accumulators r0..r3 of four
// rows: it transposes them so that X8, X10, r0 and X11 hold a0, a1, a2
// and a3 of the four rows, and adds those in that order. It overwrites
// r0..r3 and uses X8..X11.
#define HSUM4(r0, r1, r2, r3) \
	MOVAPS   r0, X8; \
	UNPCKLPS r1, X8; \
	MOVAPS   r2, X9; \
	UNPCKLPS r3, X9; \
	UNPCKHPS r1, r0; \
	UNPCKHPS r3, r2; \
	MOVAPS   X9, X10; \
	MOVHLPS  X8, X10; \
	MOVLHPS  X9, X8; \
	MOVAPS   r2, X11; \
	MOVHLPS  r0, X11; \
	MOVLHPS  r2, r0; \
	ADDPS    X10, X8; \
	ADDPS    r0, X8; \
	ADDPS    X11, X8

// ROWVEC multiplies the four columns of a row at mem by those of x in
// X8 and adds the products to the row's accumulators r, using X9.
#define ROWVEC(mem, r) \
	MOVUPS mem, X9; \
	MULPS  X8, X9; \
	ADDPS  X9, r

// ROWTERM adds the product of the column of a row at mem and the x
// value in X8 to r's lane 0, using X9.
#define ROWTERM(mem, r) \
	MOVSS mem, X9; \
	MULSS X8, X9; \
	ADDSS X9, r

// func matVecSSE(out, m, x []float32)
TEXT ·matVecSSE(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), BX
	MOVQ m_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), CX
	MOVQ CX, R8
	SHLQ $2, R8        // row stride in bytes
	MOVQ CX, R12
	SHRQ $2, R12       // whole groups of four columns
	ANDQ $3, CX        // columns after them
	SHRQ $3, BX        // blocks of eight rows
	JZ   mvDone

mvBlock:
	// The block's eight rows are at R11, R11+R8, R11+2·R8, R9, R9+R8,
	// R9+2·R8, R10 and R10+R8, and R13 is at x; all four pointers move
	// along the columns together. Lane j of X0..X7 is accumulator a_j
	// of each row.
	MOVQ  SI, R11
	LEAQ  (SI)(R8*2), R9
	ADDQ  R8, R9
	LEAQ  (R9)(R8*2), R10
	ADDQ  R8, R10
	MOVQ  DX, R13
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	MOVQ  R12, AX
	TESTQ AX, AX
	JZ    mvReduce

mvCols:
	MOVUPS (R13), X8
	ROWVEC((R11), X0)
	ROWVEC((R11)(R8*1), X1)
	ROWVEC((R11)(R8*2), X2)
	ROWVEC((R9), X3)
	ROWVEC((R9)(R8*1), X4)
	ROWVEC((R9)(R8*2), X5)
	ROWVEC((R10), X6)
	ROWVEC((R10)(R8*1), X7)
	ADDQ   $16, R11
	ADDQ   $16, R9
	ADDQ   $16, R10
	ADDQ   $16, R13
	DECQ   AX
	JNZ    mvCols

mvReduce:
	HSUM4(X0, X1, X2, X3)
	MOVUPS X8, (DI)
	HSUM4(X4, X5, X6, X7)
	MOVUPS X8, 16(DI)
	MOVQ   CX, AX
	TESTQ  AX, AX
	JZ     mvNext

	// The columns past the last group of four, one at a time, added
	// to the row sums.
	MOVSS (DI), X0
	MOVSS 4(DI), X1
	MOVSS 8(DI), X2
	MOVSS 12(DI), X3
	MOVSS 16(DI), X4
	MOVSS 20(DI), X5
	MOVSS 24(DI), X6
	MOVSS 28(DI), X7

mvTail:
	MOVSS (R13), X8
	ROWTERM((R11), X0)
	ROWTERM((R11)(R8*1), X1)
	ROWTERM((R11)(R8*2), X2)
	ROWTERM((R9), X3)
	ROWTERM((R9)(R8*1), X4)
	ROWTERM((R9)(R8*2), X5)
	ROWTERM((R10), X6)
	ROWTERM((R10)(R8*1), X7)
	ADDQ  $4, R11
	ADDQ  $4, R9
	ADDQ  $4, R10
	ADDQ  $4, R13
	DECQ  AX
	JNZ   mvTail
	MOVSS X0, (DI)
	MOVSS X1, 4(DI)
	MOVSS X2, 8(DI)
	MOVSS X3, 12(DI)
	MOVSS X4, 16(DI)
	MOVSS X5, 20(DI)
	MOVSS X6, 24(DI)
	MOVSS X7, 28(DI)

mvNext:
	ADDQ $32, DI
	LEAQ (SI)(R8*8), SI
	DECQ BX
	JNZ  mvBlock

mvDone:
	RET

// func addSSE(a, b []float32)
TEXT ·addSSE(SB), NOSPLIT, $0-48
	MOVQ a_base+0(FP), DI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	XORQ AX, AX
	CMPQ AX, CX
	JAE  addDone

addLoop:
	MOVUPS (DI)(AX*4), X0
	MOVUPS (SI)(AX*4), X1
	ADDPS  X1, X0
	MOVUPS X0, (DI)(AX*4)
	ADDQ   $4, AX
	CMPQ   AX, CX
	JB     addLoop

addDone:
	RET

// func scoreKeysSSE(scores, q, k []float32, stride int, scale float32)
TEXT ·scoreKeysSSE(SB), NOSPLIT, $0-84
	MOVQ   scores_base+0(FP), DI
	MOVQ   scores_len+8(FP), BX
	MOVQ   q_base+24(FP), SI
	MOVQ   q_len+32(FP), CX
	MOVQ   k_base+48(FP), DX
	MOVQ   stride+72(FP), R8
	SHLQ   $2, R8          // row stride in bytes
	MOVSS  scale+80(FP), X7
	SHUFPS $0x00, X7, X7
	SHRQ   $2, BX          // blocks of four keys
	JZ     skDone

skBlock:
	// Lane j of X0 scores key p+j; R9 walks down the rows, one per
	// coordinate of q.
	XORPS X0, X0
	MOVQ  DX, R9
	XORQ  AX, AX
	CMPQ  AX, CX
	JAE   skScale

skDims:
	MOVSS  (SI)(AX*4), X1
	SHUFPS $0x00, X1, X1
	MOVUPS (R9), X2
	MULPS  X2, X1
	ADDPS  X1, X0
	ADDQ   R8, R9
	INCQ   AX
	CMPQ   AX, CX
	JB     skDims

skScale:
	MULPS  X7, X0
	MOVUPS X0, (DI)
	ADDQ   $16, DI
	ADDQ   $16, DX
	DECQ   BX
	JNZ    skBlock

skDone:
	RET

// func weightedSumSSE(out, w, v []float32, stride int)
TEXT ·weightedSumSSE(SB), NOSPLIT, $0-80
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), BX
	MOVQ w_base+24(FP), SI
	MOVQ w_len+32(FP), CX
	MOVQ v_base+48(FP), DX
	MOVQ stride+72(FP), R8
	SHLQ $2, R8            // row stride in bytes

wsPair:
	// Eight coordinates at a time: X0 and X1 hold their accumulators,
	// and each weight is broadcast once for both.
	CMPQ  BX, $8
	JB    wsSingle
	XORPS X0, X0
	XORPS X1, X1
	MOVQ  DX, R9
	XORQ  AX, AX
	CMPQ  AX, CX
	JAE   wsPairStore

wsPairPos:
	MOVSS  (SI)(AX*4), X2
	SHUFPS $0x00, X2, X2
	MOVAPS X2, X3
	MOVUPS (R9), X4
	MULPS  X4, X2
	ADDPS  X2, X0
	MOVUPS 16(R9), X5
	MULPS  X5, X3
	ADDPS  X3, X1
	ADDQ   R8, R9
	INCQ   AX
	CMPQ   AX, CX
	JB     wsPairPos

wsPairStore:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	ADDQ   $32, DI
	ADDQ   $32, DX
	SUBQ   $8, BX
	JMP    wsPair

wsSingle:
	CMPQ  BX, $4
	JB    wsDone
	XORPS X0, X0
	MOVQ  DX, R9
	XORQ  AX, AX
	CMPQ  AX, CX
	JAE   wsSingleStore

wsSinglePos:
	MOVSS  (SI)(AX*4), X2
	SHUFPS $0x00, X2, X2
	MOVUPS (R9), X4
	MULPS  X4, X2
	ADDPS  X2, X0
	ADDQ   R8, R9
	INCQ   AX
	CMPQ   AX, CX
	JB     wsSinglePos

wsSingleStore:
	MOVUPS X0, (DI)

wsDone:
	RET

// ---------------------------------------------------------------------
// AVX2/FMA lanes of math.Exp and math.Tanh; see kernels_amd64.go. They
// run only where the start-up probe found them equal to math.Exp and
// math.Tanh, bit for bit. All float64 arithmetic is VEX-encoded, so no
// legacy SSE instruction meets a dirty upper YMM half, and every
// function clears the upper halves (VZEROUPPER) before it returns.

// Offsets into lanes<>, which holds every constant four times so that
// it can be a 256-bit memory operand. INVFk is 1/k!.
#define LOG2E 0
#define LN2U 32
#define LN2L 64
#define SIXTEENTH 96
#define INVF8 128
#define INVF7 160
#define INVF6 192
#define INVF5 224
#define INVF4 256
#define INVF3 288
#define HALF 320
#define ONE 352
#define TWO 384
#define BIAS 416
#define ABS 448
#define SIGN 480
#define EXPMIN 512
#define EXPMAX 544
#define TANHMID 576
#define TANHBIG 608
#define TANHP0 640
#define TANHP1 672
#define TANHP2 704
#define TANHQ0 736
#define TANHQ1 768
#define TANHQ2 800
#define GELUA 832
#define GELUC 864

#define LANES(off, bits) \
	DATA lanes<>+(off)(SB)/8, $bits; \
	DATA lanes<>+(off+8)(SB)/8, $bits; \
	DATA lanes<>+(off+16)(SB)/8, $bits; \
	DATA lanes<>+(off+24)(SB)/8, $bits

// The constants of $GOROOT/src/math/exp_amd64.s, tanh.go and gelu.
LANES(LOG2E, 0x3ff71547652b82fe)     // 1/Ln2
LANES(LN2U, 0x3fe62e42fefa3000)      // upper half of Ln2
LANES(LN2L, 0x3d53de6af278ece6)      // lower half of Ln2
LANES(SIXTEENTH, 0x3fb0000000000000) // 0.0625
LANES(INVF8, 0x3efa01a01a01a01a)     // 1/8!
LANES(INVF7, 0x3f2a01a01a01a01a)     // 1/7!
LANES(INVF6, 0x3f56c16c16c16c17)     // 1/6!
LANES(INVF5, 0x3f81111111111111)     // 1/5!
LANES(INVF4, 0x3fa5555555555555)     // 1/4!
LANES(INVF3, 0x3fc5555555555555)     // 1/3!
LANES(HALF, 0x3fe0000000000000)      // 0.5
LANES(ONE, 0x3ff0000000000000)       // 1
LANES(TWO, 0x4000000000000000)       // 2
LANES(BIAS, 0x3ff)                   // 1023, the exponent bias
LANES(ABS, 0x7fffffffffffffff)
LANES(SIGN, 0x8000000000000000)
LANES(EXPMIN, 0xc086200000000000)    // -708
LANES(EXPMAX, 0x4086280000000000)    // 709
LANES(TANHMID, 0x3fe4000000000000)   // 0.625
LANES(TANHBIG, 0x404601e678fc457b)   // 0.5·MAXLOG
LANES(TANHP0, 0xbfeedc5baafd6f4b)
LANES(TANHP1, 0xc058d26a0e26682d)
LANES(TANHP2, 0xc0993ac030580563)
LANES(TANHQ0, 0x405c33f28a581b86)
LANES(TANHQ1, 0x40a176fa0e5535fa)
LANES(TANHQ2, 0x40b2ec102442040c)
LANES(GELUA, 0x3fa6e4e26d4801f7)     // 0.044715
LANES(GELUC, 0x3fe9884533d43651)     // sqrt(2/π)
GLOBL lanes<>(SB), RODATA|NOPTR, $896

// tailmask<>+16-4r is the mask of the first r float32 lanes.
DATA tailmask<>+0(SB)/8, $0xffffffffffffffff
DATA tailmask<>+8(SB)/8, $0xffffffffffffffff
DATA tailmask<>+16(SB)/8, $0
DATA tailmask<>+24(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $32

#define C(off) lanes<>+off(SB)

// EXP4 sets each of the four float64 lanes of x to math.Exp of it, by
// the FMA path of archExp ($GOROOT/src/math/exp_amd64.s) op for op:
// n = round(x·Log2e) under the default rounding; two fused reductions
// x −= n·Ln2U, x −= n·Ln2L; x /= 16; the fused Horner chain of the
// Taylor polynomial; x ·= p; three x ·= x+2 and a fused x·(x+2)+1;
// and the scaling by 2ⁿ built as (n+1023)<<52. It holds only for
// −708 ≤ x ≤ 709, where archExp takes no other branch. t is a YMM
// temporary, n an XMM one (the four int32 exponents) and s a YMM one.
#define EXP4(x, t, n, s) \
	VMULPD       C(LOG2E), x, t; \
	VCVTPD2DQY   t, n; \
	VCVTDQ2PD    n, t; \
	VFNMADD231PD C(LN2U), t, x; \
	VFNMADD231PD C(LN2L), t, x; \
	VMULPD       C(SIXTEENTH), x, x; \
	VMOVUPD      C(INVF8), t; \
	VFMADD213PD  C(INVF7), x, t; \
	VFMADD213PD  C(INVF6), x, t; \
	VFMADD213PD  C(INVF5), x, t; \
	VFMADD213PD  C(INVF4), x, t; \
	VFMADD213PD  C(INVF3), x, t; \
	VFMADD213PD  C(HALF), x, t; \
	VFMADD213PD  C(ONE), x, t; \
	VMULPD       t, x, x; \
	VADDPD       C(TWO), x, t; \
	VMULPD       t, x, x; \
	VADDPD       C(TWO), x, t; \
	VMULPD       t, x, x; \
	VADDPD       C(TWO), x, t; \
	VMULPD       t, x, x; \
	VADDPD       C(TWO), x, t; \
	VFMADD213PD  C(ONE), t, x; \
	VPMOVSXDQ    n, s; \
	VPADDQ       C(BIAS), s, s; \
	VPSLLQ       $52, s, s; \
	VMULPD       s, x, x

// EXPRANGE leaves in BX a 4-bit mask of the lanes of x with
// −708 ≤ x ≤ 709 (false for NaN), using t and u.
#define EXPRANGE(x, t, u) \
	VCMPPD    $0x1d, C(EXPMIN), x, t; \
	VCMPPD    $0x12, C(EXPMAX), x, u; \
	VANDPD    u, t, t; \
	VMOVMSKPD t, BX

// TANH4 sets Y12 to math.Tanh of each lane of Y1, which it keeps, by
// tanh.go's three branches evaluated in every lane and blended:
// |x| > 0.5·MAXLOG gives ±1; |x| ≥ 0.625 gives ±(1 − 2/(Exp(2|x|)+1)),
// Exp from EXP4; below that x + x·s·P(s)/Q(s) with s = x·x, and x
// itself for ±0. The two branches' divisions share one VDIVPD: each
// lane divides its own branch's operands. It holds for every lane but
// NaN, and uses Y2–Y11 and Y13.
#define TANH4 \
	VANDPD      C(ABS), Y1, Y2; \
	VADDPD      Y2, Y2, Y3; \
	EXP4(Y3, Y4, X5, Y6); \
	VADDPD      C(ONE), Y3, Y3; \
	VMULPD      Y1, Y1, Y7; \
	VMULPD      C(TANHP0), Y7, Y8; \
	VADDPD      C(TANHP1), Y8, Y8; \
	VMULPD      Y7, Y8, Y8; \
	VADDPD      C(TANHP2), Y8, Y8; \
	VADDPD      C(TANHQ0), Y7, Y9; \
	VMULPD      Y7, Y9, Y9; \
	VADDPD      C(TANHQ1), Y9, Y9; \
	VMULPD      Y7, Y9, Y9; \
	VADDPD      C(TANHQ2), Y9, Y9; \
	VMULPD      Y7, Y1, Y10; \
	VMULPD      Y8, Y10, Y10; \
	VCMPPD      $0x1d, C(TANHMID), Y2, Y11; \
	VBLENDVPD   Y11, C(TWO), Y10, Y10; \
	VBLENDVPD   Y11, Y3, Y9, Y9; \
	VDIVPD      Y9, Y10, Y10; \
	VMOVUPD     C(ONE), Y4; \
	VSUBPD      Y10, Y4, Y3; \
	VANDPD      C(SIGN), Y1, Y13; \
	VXORPD      Y13, Y3, Y3; \
	VADDPD      Y10, Y1, Y12; \
	VBLENDVPD   Y11, Y3, Y12, Y12; \
	VORPD       C(ONE), Y13, Y13; \
	VCMPPD      $0x1e, C(TANHBIG), Y2, Y11; \
	VBLENDVPD   Y11, Y13, Y12, Y12; \
	VXORPD      Y4, Y4, Y4; \
	VCMPPD      $0x00, Y4, Y1, Y11; \
	VBLENDVPD   Y11, Y1, Y12, Y12

// GELU4 sets X1 to the four float32 gelu values of the float64 lanes
// of Y0, in gelu's order: u = c·(f + ((0.044715·f)·f)·f), then
// (0.5·f)·(1 + Tanh(u)), rounded to float32. It jumps to nan if a lane
// of u is NaN (that is, of f), and uses Y0–Y13 and BX.
#define GELU4(nan) \
	VMULPD      C(GELUA), Y0, Y1; \
	VMULPD      Y0, Y1, Y1; \
	VMULPD      Y0, Y1, Y1; \
	VADDPD      Y1, Y0, Y1; \
	VMULPD      C(GELUC), Y1, Y1; \
	VCMPPD      $0x03, Y1, Y1, Y2; \
	VMOVMSKPD   Y2, BX; \
	TESTL       BX, BX; \
	JNZ         nan; \
	TANH4; \
	VADDPD      C(ONE), Y12, Y12; \
	VMULPD      C(HALF), Y0, Y0; \
	VMULPD      Y12, Y0, Y0; \
	VCVTPD2PSY  Y0, X1

// TAILMASK sets X14 to the mask of the first CX−AX (1 to 3) float32
// lanes, using BX and R8.
#define TAILMASK \
	MOVQ    CX, BX; \
	SUBQ    AX, BX; \
	SHLQ    $2, BX; \
	LEAQ    tailmask<>+16(SB), R8; \
	SUBQ    BX, R8; \
	VMOVUPS (R8), X14

// func hasAVX2FMA() bool
// It runs no VEX instruction, so it has no VZEROUPPER either: the CPU
// may not have AVX.
TEXT ·hasAVX2FMA(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JB   noAVX2FMA
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	// FMA (bit 12), OSXSAVE (27), AVX (28).
	ANDL $0x18001000, CX
	CMPL CX, $0x18001000
	JNE  noAVX2FMA
	// The OS saves the XMM (bit 1) and YMM (bit 2) state.
	MOVL   $0, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    noAVX2FMA
	MOVL   $7, AX
	MOVL   $0, CX
	CPUID
	// AVX2 (bit 5).
	SHRL   $5, BX
	ANDL   $1, BX
	MOVB   BX, ret+0(FP)
	RET

noAVX2FMA:
	MOVB $0, ret+0(FP)
	RET

// func expAVX(x []float64) int
TEXT ·expAVX(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	ANDQ $~3, CX
	XORQ AX, AX

expGroup:
	CMPQ     AX, CX
	JAE      expDone
	VMOVUPD  (SI)(AX*8), Y0
	EXPRANGE(Y0, Y1, Y2)
	CMPL     BX, $15
	JNE      expDone
	EXP4(Y0, Y1, X2, Y3)
	VMOVUPD  Y0, (SI)(AX*8)
	ADDQ     $4, AX
	JMP      expGroup

expDone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func tanhAVX(x []float64) int
TEXT ·tanhAVX(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	ANDQ $~3, CX
	XORQ AX, AX

tanhGroup:
	CMPQ      AX, CX
	JAE       tanhDone
	VMOVUPD   (SI)(AX*8), Y1
	VCMPPD    $0x03, Y1, Y1, Y2
	VMOVMSKPD Y2, BX
	TESTL     BX, BX
	JNZ       tanhDone
	TANH4
	VMOVUPD   Y12, (SI)(AX*8)
	ADDQ      $4, AX
	JMP       tanhGroup

tanhDone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func maxAVX(x []float32) (m float32, ok bool)
TEXT ·maxAVX(SB), NOSPLIT, $0-29
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	VBROADCASTSS (SI), Y4     // x[0] in every lane
	VMOVAPS      Y4, Y0       // the running maxima
	VXORPS       Y1, Y1, Y1   // lanes that met a NaN
	MOVQ         CX, DX
	ANDQ         $~7, DX
	XORQ         AX, AX

max8:
	CMPQ    AX, DX
	JAE     max4
	VMOVUPS (SI)(AX*4), Y2
	VCMPPS  $0x03, Y2, Y2, Y3
	VORPS   Y3, Y1, Y1
	VMAXPS  Y2, Y0, Y0
	ADDQ    $8, AX
	JMP     max8

max4:
	VEXTRACTF128 $1, Y0, X2
	VMAXPS       X2, X0, X0
	VEXTRACTF128 $1, Y1, X2
	VORPS        X2, X1, X1
	MOVQ         CX, DX
	ANDQ         $~3, DX
	CMPQ         AX, DX
	JAE          maxTail
	VMOVUPS      (SI)(AX*4), X2
	VCMPPS       $0x03, X2, X2, X3
	VORPS        X3, X1, X1
	VMAXPS       X2, X0, X0
	ADDQ         $4, AX

maxTail:
	CMPQ       AX, CX
	JAE        maxFold
	TAILMASK
	VMASKMOVPS (SI)(AX*4), X14, X2
	VBLENDVPS  X14, X2, X4, X2   // x[0] in the lanes past the end
	VCMPPS     $0x03, X2, X2, X3
	VORPS      X3, X1, X1
	VMAXPS     X2, X0, X0

maxFold:
	VPERMILPS $0x4e, X0, X2
	VMAXPS    X2, X0, X0
	VPERMILPS $0xb1, X0, X2
	VMAXPS    X2, X0, X0
	VMOVSS    X0, m+24(FP)
	VMOVMSKPS X1, BX
	TESTL     BX, BX
	SETEQ     ok+28(FP)
	VZEROUPPER
	RET

// SUMLANE adds lane 0 of X0 to the sum in X7.
#define SUMLANE VADDSD X0, X7, X7

// func expSumAVX(x []float32, maxv float32, sum float64) (n int, s float64)
TEXT ·expSumAVX(SB), NOSPLIT, $0-56
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	VBROADCASTSS maxv+24(FP), X6
	VMOVSD       sum+32(FP), X7
	MOVQ         CX, DX
	ANDQ         $~3, DX
	XORQ         AX, AX

esGroup:
	CMPQ       AX, DX
	JAE        esTail
	VMOVUPS    (SI)(AX*4), X0
	VSUBPS     X6, X0, X0
	VCVTPS2PD  X0, Y0
	EXPRANGE(Y0, Y1, Y2)
	CMPL       BX, $15
	JNE        esDone
	EXP4(Y0, Y1, X2, Y3)
	VCVTPD2PSY Y0, X1
	VMOVUPS    X1, (SI)(AX*4)
	// sum += e, one lane at a time in index order.
	SUMLANE
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X7, X7
	VEXTRACTF128 $1, Y0, X0
	SUMLANE
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X7, X7
	ADDQ         $4, AX
	JMP          esGroup

esTail:
	// The last 1–3 elements as one group: the lanes past the end get
	// d = +0 and are neither stored nor summed.
	CMPQ       AX, CX
	JAE        esDone
	TAILMASK
	VMASKMOVPS (SI)(AX*4), X14, X0
	VSUBPS     X6, X0, X0
	VANDPS     X14, X0, X0
	VCVTPS2PD  X0, Y0
	EXPRANGE(Y0, Y1, Y2)
	CMPL       BX, $15
	JNE        esDone
	EXP4(Y0, Y1, X2, Y3)
	VCVTPD2PSY Y0, X1
	VMASKMOVPS X1, X14, (SI)(AX*4)
	MOVQ       CX, BX
	SUBQ       AX, BX
	MOVQ       CX, AX
	SUMLANE
	CMPQ       BX, $1
	JE         esDone
	VPERMILPD  $1, X0, X1
	VADDSD     X1, X7, X7
	CMPQ       BX, $2
	JE         esDone
	VEXTRACTF128 $1, Y0, X0
	SUMLANE

esDone:
	MOVQ   AX, n+40(FP)
	VMOVSD X7, s+48(FP)
	VZEROUPPER
	RET

// func scaleAVX(x []float32, inv float64)
TEXT ·scaleAVX(SB), NOSPLIT, $0-32
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	VBROADCASTSD inv+24(FP), Y6
	MOVQ         CX, DX
	ANDQ         $~3, DX
	XORQ         AX, AX

scGroup:
	CMPQ       AX, DX
	JAE        scTail
	VCVTPS2PD  (SI)(AX*4), Y0
	VMULPD     Y6, Y0, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (SI)(AX*4)
	ADDQ       $4, AX
	JMP        scGroup

scTail:
	CMPQ       AX, CX
	JAE        scDone
	TAILMASK
	VMASKMOVPS (SI)(AX*4), X14, X0
	VCVTPS2PD  X0, Y0
	VMULPD     Y6, Y0, Y0
	VCVTPD2PSY Y0, X0
	VMASKMOVPS X0, X14, (SI)(AX*4)

scDone:
	VZEROUPPER
	RET

// func geluAVX(x []float32) int
TEXT ·geluAVX(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ CX, DX
	ANDQ $~3, DX
	XORQ AX, AX

geGroup:
	CMPQ      AX, DX
	JAE       geTail
	VCVTPS2PD (SI)(AX*4), Y0
	GELU4(geDone)
	VMOVUPS   X1, (SI)(AX*4)
	ADDQ      $4, AX
	JMP       geGroup

geTail:
	CMPQ       AX, CX
	JAE        geDone
	TAILMASK
	VMASKMOVPS (SI)(AX*4), X14, X0
	VCVTPS2PD  X0, Y0
	GELU4(geDone)
	VMASKMOVPS X1, X14, (SI)(AX*4)
	MOVQ       CX, AX

geDone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
