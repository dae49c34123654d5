//go:build amd64

#include "textflag.h"

// SSE2 implementations of the BLAS-1 hot kernels. The vector lanes
// carry exactly the partial sums of the 4-way unrolled reference code
// in simd_ref.go: X0 = [s0 s1], X1 = [s2 s3], reduced left-to-right as
// ((s0+s1)+s2)+s3, followed by a scalar tail — so every result is
// bitwise identical to the pure-Go path. MULPD/ADDPD are IEEE-754
// double ops with the same rounding as MULSD/ADDSD; the Go runtime
// leaves MXCSR at round-to-nearest without FTZ/DAZ.

// func dotSSE2(x, y []float64) float64
TEXT ·dotSSE2(SB), NOSPLIT, $0-56
	MOVQ  x_base+0(FP), SI
	MOVQ  x_len+8(FP), CX
	MOVQ  y_base+24(FP), DI
	XORPS X0, X0              // [s0 s1]
	XORPS X1, X1              // [s2 s3]
	MOVQ  CX, BX
	ANDQ  $-4, BX             // n rounded down to a multiple of 4
	XORQ  AX, AX
	CMPQ  BX, $0
	JE    dtail

dloop:
	MOVUPD (SI)(AX*8), X2
	MOVUPD 16(SI)(AX*8), X3
	MOVUPD (DI)(AX*8), X4
	MOVUPD 16(DI)(AX*8), X5
	MULPD  X4, X2
	MULPD  X5, X3
	ADDPD  X2, X0
	ADDPD  X3, X1
	ADDQ   $4, AX
	CMPQ   AX, BX
	JLT    dloop

dtail:
	// s = ((s0+s1)+s2)+s3, matching the reference reduction order.
	MOVAPD X0, X6
	SHUFPD $1, X6, X6         // X6[0] = s1
	ADDSD  X6, X0             // s0+s1
	ADDSD  X1, X0             // +s2
	MOVAPD X1, X7
	SHUFPD $1, X7, X7         // X7[0] = s3
	ADDSD  X7, X0             // +s3

dscalar:
	CMPQ  AX, CX
	JGE   ddone
	MOVSD (SI)(AX*8), X2
	MULSD (DI)(AX*8), X2
	ADDSD X2, X0
	INCQ  AX
	JMP   dscalar

ddone:
	MOVSD X0, ret+48(FP)
	RET

// func axpyToSSE2(dst []float64, a float64, x, y []float64)
//
// dst = a*x + y; Axpy passes y as dst. Each chunk loads x and y before
// storing dst, so dst may alias either input.
TEXT ·axpyToSSE2(SB), NOSPLIT, $0-80
	MOVQ   dst_base+0(FP), DI
	MOVSD  a+24(FP), X0
	SHUFPD $0, X0, X0         // broadcast a to both lanes
	MOVQ   x_base+32(FP), SI
	MOVQ   x_len+40(FP), CX
	MOVQ   y_base+56(FP), R8
	MOVQ   CX, BX
	ANDQ   $-4, BX
	XORQ   AX, AX
	CMPQ   BX, $0
	JE     atail

aloop:
	MOVUPD (SI)(AX*8), X1
	MOVUPD 16(SI)(AX*8), X2
	MULPD  X0, X1
	MULPD  X0, X2
	MOVUPD (R8)(AX*8), X3
	MOVUPD 16(R8)(AX*8), X4
	ADDPD  X3, X1             // a*x + y, the reference operand order
	ADDPD  X4, X2
	MOVUPD X1, (DI)(AX*8)
	MOVUPD X2, 16(DI)(AX*8)
	ADDQ   $4, AX
	CMPQ   AX, BX
	JLT    aloop

atail:
	CMPQ  AX, CX
	JGE   adone
	MOVSD (SI)(AX*8), X1
	MULSD X0, X1
	ADDSD (R8)(AX*8), X1
	MOVSD X1, (DI)(AX*8)
	INCQ  AX
	JMP   atail

adone:
	RET

// func dot2SSE2(x, y0, y1 []float64) (r0, r1 float64)
TEXT ·dot2SSE2(SB), NOSPLIT, $0-88
	MOVQ  x_base+0(FP), SI
	MOVQ  x_len+8(FP), CX
	MOVQ  y0_base+24(FP), DI
	MOVQ  y1_base+48(FP), R8
	XORPS X0, X0              // [a0 a1]
	XORPS X1, X1              // [a2 a3]
	XORPS X2, X2              // [b0 b1]
	XORPS X3, X3              // [b2 b3]
	MOVQ  CX, BX
	ANDQ  $-4, BX
	XORQ  AX, AX
	CMPQ  BX, $0
	JE    d2tail

d2loop:
	MOVUPD (SI)(AX*8), X4     // x[i:i+2]
	MOVUPD 16(SI)(AX*8), X5   // x[i+2:i+4]
	MOVUPD (DI)(AX*8), X6
	MULPD  X4, X6
	ADDPD  X6, X0
	MOVUPD 16(DI)(AX*8), X7
	MULPD  X5, X7
	ADDPD  X7, X1
	MOVUPD (R8)(AX*8), X8
	MULPD  X4, X8
	ADDPD  X8, X2
	MOVUPD 16(R8)(AX*8), X9
	MULPD  X5, X9
	ADDPD  X9, X3
	ADDQ   $4, AX
	CMPQ   AX, BX
	JLT    d2loop

d2tail:
	// r0 = ((a0+a1)+a2)+a3 ; r1 = ((b0+b1)+b2)+b3
	MOVAPD X0, X6
	SHUFPD $1, X6, X6
	ADDSD  X6, X0
	ADDSD  X1, X0
	MOVAPD X1, X7
	SHUFPD $1, X7, X7
	ADDSD  X7, X0
	MOVAPD X2, X6
	SHUFPD $1, X6, X6
	ADDSD  X6, X2
	ADDSD  X3, X2
	MOVAPD X3, X7
	SHUFPD $1, X7, X7
	ADDSD  X7, X2

d2scalar:
	CMPQ  AX, CX
	JGE   d2done
	MOVSD (SI)(AX*8), X4
	MOVSD (DI)(AX*8), X5
	MULSD X4, X5
	ADDSD X5, X0
	MOVSD (R8)(AX*8), X5
	MULSD X4, X5
	ADDSD X5, X2
	INCQ  AX
	JMP   d2scalar

d2done:
	MOVSD X0, r0+72(FP)
	MOVSD X2, r1+80(FP)
	RET
