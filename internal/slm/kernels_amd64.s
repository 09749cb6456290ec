#include "textflag.h"

// Kernels of the forward pass; see kernels_amd64.go. They run only
// where the CPU has AVX2 and FMA and the operating system saves the
// YMM registers (hasAVX2FMA). All arithmetic is VEX-encoded, so no
// legacy SSE instruction meets a dirty upper YMM half, and every
// kernel clears the upper halves (VZEROUPPER) before it returns. X15
// is left alone: Go's internal ABI keeps zero there.

// ---------------------------------------------------------------------
// AVX2/FMA lanes of math.Exp and math.Tanh. They run only where the
// start-up probe found them equal to math.Exp and math.Tanh, bit for
// bit.

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

// func expSum2AVX(x, y []float32, maxX, maxY float32) (n int, sumX, sumY float64)
TEXT ·expSum2AVX(SB), NOSPLIT, $0-80
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), DX
	MOVQ         y_base+24(FP), DI
	VBROADCASTSS maxX+48(FP), X6
	VBROADCASTSS maxY+52(FP), X12
	VXORPD       X7, X7, X7         // x's sum
	VXORPD       X13, X13, X13      // y's sum
	ANDQ         $~3, DX
	XORQ         AX, AX

e2Group:
	CMPQ       AX, DX
	JAE        e2Done
	VMOVUPS    (SI)(AX*4), X0
	VSUBPS     X6, X0, X0
	VCVTPS2PD  X0, Y0
	EXPRANGE(Y0, Y1, Y2)
	CMPL       BX, $15
	JNE        e2Done
	VMOVUPS    (DI)(AX*4), X8
	VSUBPS     X12, X8, X8
	VCVTPS2PD  X8, Y8
	EXPRANGE(Y8, Y9, Y10)
	CMPL       BX, $15
	JNE        e2Done
	EXP4(Y0, Y1, X2, Y3)
	EXP4(Y8, Y9, X10, Y11)
	VCVTPD2PSY Y0, X1
	VMOVUPS    X1, (SI)(AX*4)
	VCVTPD2PSY Y8, X9
	VMOVUPS    X9, (DI)(AX*4)
	// Each sum adds its row's four lanes in index order.
	VADDSD       X0, X7, X7
	VADDSD       X8, X13, X13
	VPERMILPD    $1, X0, X1
	VPERMILPD    $1, X8, X9
	VADDSD       X1, X7, X7
	VADDSD       X9, X13, X13
	VEXTRACTF128 $1, Y0, X0
	VEXTRACTF128 $1, Y8, X8
	VADDSD       X0, X7, X7
	VADDSD       X8, X13, X13
	VPERMILPD    $1, X0, X1
	VPERMILPD    $1, X8, X9
	VADDSD       X1, X7, X7
	VADDSD       X9, X13, X13
	ADDQ         $4, AX
	JMP          e2Group

e2Done:
	MOVQ   AX, n+56(FP)
	VMOVSD X7, sumX+64(FP)
	VMOVSD X13, sumY+72(FP)
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

// ---------------------------------------------------------------------
// 256-bit float32 kernels. Every lane is one float32 accumulator of
// the matching Go kernel in math.go, started at +0 and fed one rounded
// multiply and one rounded add per term (VMULPS, VADDPS: no FMA, no
// horizontal or dot-product instruction), in the Go kernel's order;
// addAVX, and normalizeAVX, the last loop of layer norm, have no
// accumulator and round where their Go loops do.

// func addAVX(a, b []float32)
TEXT ·addAVX(SB), NOSPLIT, $0-48
	MOVQ a_base+0(FP), DI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	XORQ AX, AX
	CMPQ AX, CX
	JAE  addDone

addLoop:
	VMOVUPS (DI)(AX*4), Y0
	VADDPS  (SI)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JB      addLoop

addDone:
	VZEROUPPER
	RET

// BLOCKROW multiplies the four columns of a row at mem, broadcast to
// both halves of Y10, by those of the position pairs in Y8 and Y9, and
// adds the products to the row's accumulators ra (pair Y8) and rb
// (pair Y9), using Y11.
#define BLOCKROW(mem, ra, rb) \
	VBROADCASTF128 mem, Y10; \
	VMULPS         Y8, Y10, Y11; \
	VADDPS         Y11, ra, ra; \
	VMULPS         Y9, Y10, Y11; \
	VADDPS         Y11, rb, rb

// BLOCKSUM leaves in r0 the row sums ((a0+a1)+a2)+a3 of the
// accumulators r0..r3 of four rows, in each 128-bit half on its own: an
// in-lane 4×4 transpose puts a0, a1, a2 and a3 of the four rows in r0,
// r1, r2 and r3, which are then added in that order. It uses Y8..Y11.
#define BLOCKSUM(r0, r1, r2, r3) \
	VUNPCKLPS r1, r0, Y8; \
	VUNPCKHPS r1, r0, Y9; \
	VUNPCKLPS r3, r2, Y10; \
	VUNPCKHPS r3, r2, Y11; \
	VUNPCKLPD Y10, Y8, r0; \
	VUNPCKHPD Y10, Y8, r1; \
	VUNPCKLPD Y11, Y9, r2; \
	VUNPCKHPD Y11, Y9, r3; \
	VADDPS    r1, r0, r0; \
	VADDPS    r2, r0, r0; \
	VADDPS    r3, r0, r0

// func matVecBlockAVX(out, m, x []float32, rows, cols int)
TEXT ·matVecBlockAVX(SB), NOSPLIT, $0-88
	MOVQ out_base+0(FP), DI
	MOVQ m_base+24(FP), AX
	MOVQ x_base+48(FP), SI
	MOVQ rows+72(FP), R12
	MOVQ cols+80(FP), CX
	MOVQ R12, R8
	SHLQ $2, R8          // out stride in bytes: one position's rows
	MOVQ CX, DX
	SHLQ $2, DX          // row and x stride in bytes
	SHRQ $2, CX          // whole groups of four columns
	SHRQ $2, R12         // groups of four rows
	JZ   mbDone

mbGroup:
	// The group's four rows are at BX, BX+DX, BX+2·DX and R13; the
	// four positions' x at R9, R9+DX, R9+2·DX and R10. All move along
	// the columns together. Lane j of the low half of Y0..Y3 is a_j of
	// rows 0..3 for position 0, of the high half for position 1; Y4..Y7
	// hold the same for positions 2 and 3.
	MOVQ   AX, BX
	LEAQ   (AX)(DX*2), R13
	ADDQ   DX, R13
	MOVQ   SI, R9
	LEAQ   (SI)(DX*2), R10
	ADDQ   DX, R10
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   CX, R11
	TESTQ  R11, R11
	JZ     mbReduce

mbCols:
	VMOVUPS     (R9), X8
	VINSERTF128 $1, (R9)(DX*1), Y8, Y8
	VMOVUPS     (R9)(DX*2), X9
	VINSERTF128 $1, (R10), Y9, Y9
	BLOCKROW((BX), Y0, Y4)
	BLOCKROW((BX)(DX*1), Y1, Y5)
	BLOCKROW((BX)(DX*2), Y2, Y6)
	BLOCKROW((R13), Y3, Y7)
	ADDQ        $16, BX
	ADDQ        $16, R13
	ADDQ        $16, R9
	ADDQ        $16, R10
	DECQ        R11
	JNZ         mbCols

mbReduce:
	BLOCKSUM(Y0, Y1, Y2, Y3)
	VMOVUPS      X0, (DI)
	VEXTRACTF128 $1, Y0, (DI)(R8*1)
	BLOCKSUM(Y4, Y5, Y6, Y7)
	VMOVUPS      X4, (DI)(R8*2)
	LEAQ         (DI)(R8*2), BX
	VEXTRACTF128 $1, Y4, (BX)(R8*1)
	ADDQ         $16, DI
	LEAQ         (AX)(DX*4), AX
	DECQ         R12
	JNZ          mbGroup

mbDone:
	VZEROUPPER
	RET

// SCOREKEYS adds q's coordinate, broadcast in Y4, times the row of keys
// at mem to the scores r, using t.
#define SCOREKEYS(mem, r, t) \
	VMULPS mem, Y4, t; \
	VADDPS t, r, r

// func scoreKeysAVX(scores, q, k []float32, stride int, scale float32)
TEXT ·scoreKeysAVX(SB), NOSPLIT, $0-84
	MOVQ         scores_base+0(FP), DI
	MOVQ         scores_len+8(FP), BX
	MOVQ         q_base+24(FP), SI
	MOVQ         q_len+32(FP), CX
	MOVQ         k_base+48(FP), DX
	MOVQ         stride+72(FP), R8
	SHLQ         $2, R8                  // row stride in bytes
	VBROADCASTSS scale+80(FP), Y7

skwQuad:
	// Thirty-two keys at a time, so that four accumulator chains
	// overlap: lane j of Y0..Y3 scores key p+j, p+8+j, p+16+j and
	// p+24+j.
	CMPQ   BX, $32
	JB     skwOne
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   DX, R9
	XORQ   AX, AX
	CMPQ   AX, CX
	JAE    skwQuadScale

skwQuadDims:
	VBROADCASTSS (SI)(AX*4), Y4
	SCOREKEYS((R9), Y0, Y5)
	SCOREKEYS(32(R9), Y1, Y6)
	SCOREKEYS(64(R9), Y2, Y5)
	SCOREKEYS(96(R9), Y3, Y6)
	ADDQ         R8, R9
	INCQ         AX
	CMPQ         AX, CX
	JB           skwQuadDims

skwQuadScale:
	VMULPS  Y7, Y0, Y0
	VMULPS  Y7, Y1, Y1
	VMULPS  Y7, Y2, Y2
	VMULPS  Y7, Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $32, BX
	JMP     skwQuad

skwOne:
	CMPQ   BX, $8
	JB     skwDone
	VXORPS Y0, Y0, Y0
	MOVQ   DX, R9
	XORQ   AX, AX
	CMPQ   AX, CX
	JAE    skwOneScale

skwOneDims:
	VBROADCASTSS (SI)(AX*4), Y4
	SCOREKEYS((R9), Y0, Y5)
	ADDQ         R8, R9
	INCQ         AX
	CMPQ         AX, CX
	JB           skwOneDims

skwOneScale:
	VMULPS  Y7, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $8, BX
	JMP     skwOne

skwDone:
	VZEROUPPER
	RET

// func weightedSum4AVX(out, w, v []float32, n, wStride, vStride int)
TEXT ·weightedSum4AVX(SB), NOSPLIT, $0-96
	MOVQ   out_base+0(FP), DI
	MOVQ   w_base+24(FP), SI
	MOVQ   v_base+48(FP), DX
	MOVQ   n+72(FP), CX
	MOVQ   wStride+80(FP), R8
	SHLQ   $2, R8               // weight row stride in bytes
	MOVQ   vStride+88(FP), R9
	SHLQ   $2, R9               // value row stride in bytes
	LEAQ   (SI)(R8*2), R10
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	TESTQ  CX, CX
	JZ     ws4Store

ws4Pos:
	// Head h's weight for this position is at SI, SI+R8, R10 and
	// R10+R8; its eight values at DX+32h. Lane i of Y0..Y3 is
	// coordinate i of heads 0..3.
	VBROADCASTSS (SI), Y4
	VMULPS       (DX), Y4, Y4
	VADDPS       Y4, Y0, Y0
	VBROADCASTSS (SI)(R8*1), Y5
	VMULPS       32(DX), Y5, Y5
	VADDPS       Y5, Y1, Y1
	VBROADCASTSS (R10), Y6
	VMULPS       64(DX), Y6, Y6
	VADDPS       Y6, Y2, Y2
	VBROADCASTSS (R10)(R8*1), Y7
	VMULPS       96(DX), Y7, Y7
	VADDPS       Y7, Y3, Y3
	ADDQ         $4, SI
	ADDQ         $4, R10
	ADDQ         R9, DX
	DECQ         CX
	JNZ          ws4Pos

ws4Store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VZEROUPPER
	RET

// func normalizeAVX(x, gain, bias []float32, mean, inv float64)
TEXT ·normalizeAVX(SB), NOSPLIT, $0-88
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), CX
	MOVQ         gain_base+24(FP), SI
	MOVQ         bias_base+48(FP), DX
	VBROADCASTSD mean+72(FP), Y6
	VBROADCASTSD inv+80(FP), Y7
	ANDQ         $~3, CX
	XORQ         AX, AX

nmGroup:
	CMPQ       AX, CX
	JAE        nmDone
	VCVTPS2PD  (DI)(AX*4), Y0
	VSUBPD     Y6, Y0, Y0
	VMULPD     Y7, Y0, Y0
	VCVTPD2PSY Y0, X0
	VMULPS     (SI)(AX*4), X0, X0
	VADDPS     (DX)(AX*4), X0, X0
	VMOVUPS    X0, (DI)(AX*4)
	ADDQ       $4, AX
	JMP        nmGroup

nmDone:
	VZEROUPPER
	RET
