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
