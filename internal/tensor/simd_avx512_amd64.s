//go:build amd64

#include "textflag.h"

// AVX-512 bodies of three of the avx2 class's float64 kernels, run only
// when cpufeat reports AVX-512F with the OS saving the ZMM and opmask
// state (simd_amd64.go checks). They are a second implementation of the
// same rounding regime, not a new one: every kernel performs exactly the
// floating-point operations of its AVX2 twin in simd_avx2_amd64.s, and
// so of the math.FMA twins in simd_fma_ref.go, which
// TestKernelsMatchReference asserts for both assembly bodies.
//
// Lane layout: one 8-lane ZMM accumulator holds the eight partial sums
// t0..t7 that dotAVX2 keeps in two YMM accumulators — lanes 0-3 are its
// first YMM, lanes 4-7 its second — so the FMA chains are the same, and
// REDUCE8 first adds the upper half to the lower one, which is
// dotAVX2's first reduction step with the same operand order. The
// remaining steps and the scalar FMA tails are dotAVX2's instructions.
// stepRow is elementwise, with no lanes to keep: its per-element FMA
// chain is the AVX2 one, every FMA's operand roles (coefficient × row +
// accumulator) kept, so even NaN payloads propagate alike.
//
// Why these three: dot read faster end to end than on YMM, and the 32
// ZMM registers are what the AVX2 body lacks for dot4x2 (eight
// accumulators for two x rows × four B rows) and stepRow (a 64-element
// slice of its weight-gradient row in eight accumulators across a row's
// examples). The other kernels run their AVX2 bodies, whose ZMM forms
// bought a few percent at most (EXPERIMENTS.md). All end in VZEROUPPER.

// REDUCE8 reduces the ZMM accumulator Z (whose lower halves are Y and X)
// to the scalar ((t0+t4)+(t2+t6)) + ((t1+t5)+(t3+t7)) in X, using TY/TX
// as scratch. Z must be one of Z0-Z15 (the VEX steps address it as Y/X).
#define REDUCE8(Z, Y, X, TY, TX) \
	VEXTRACTF64X4 $1, Z, TY \
	VADDPD        TY, Y, Y  \ // [t0+t4 t1+t5 t2+t6 t3+t7]
	VEXTRACTF128  $1, Y, TX \
	VADDPD        TX, X, X  \ // [(t0+t4)+(t2+t6) (t1+t5)+(t3+t7)]
	VPERMILPD     $1, X, TX \
	VADDSD        TX, X, X

// stepRow's remainder pass covers the last 0-63 elements with R14 = f
// full 8-lane chunks starting at element AX; chunk c (1-based) is
// issued only when f >= c, else control jumps to END, which handles the
// masked chunk.
//
// REMFMA accumulates chunk N of the row at R13 into ACC with
// coefficient C: ACC = fma(C, row, ACC).
#define REMFMA(N, OFF, C, ACC, END) \
	CMPQ        R14, $N            \
	JLT         END                \
	VFMADD231PD OFF(R13)(AX*8), C, ACC

// REMSTEP writes chunk N of stepRow's output: dst = fma(a, ACC, w), with
// w at SI, dst at DX and a in Z31.
#define REMSTEP(N, OFF, ACC, END) \
	CMPQ        R14, $N           \
	JLT         END               \
	VMOVUPD     OFF(SI)(AX*8), Z16 \
	VFMADD231PD ACC, Z31, Z16     \
	VMOVUPD     Z16, OFF(DX)(AX*8)

// func dotAVX512(x, y []float64) float64
TEXT ·dotAVX512(SB), NOSPLIT, $0-56
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	MOVQ   y_base+24(FP), DI
	VPXORQ Z0, Z0, Z0           // [t0 .. t7]
	MOVQ   CX, BX
	ANDQ   $-8, BX
	XORQ   AX, AX
	CMPQ   BX, $0
	JE     zdreduce

zdloop:
	VMOVUPD     (SI)(AX*8), Z2
	VFMADD231PD (DI)(AX*8), Z2, Z0
	ADDQ        $8, AX
	CMPQ        AX, BX
	JLT         zdloop

zdreduce:
	REDUCE8(Z0, Y0, X0, Y1, X1)

zdscalar:
	CMPQ        AX, CX
	JGE         zddone
	VMOVSD      (SI)(AX*8), X2
	VFMADD231SD (DI)(AX*8), X2, X0
	INCQ        AX
	JMP         zdscalar

zddone:
	VMOVSD     X0, ret+48(FP)
	VZEROUPPER
	RET

// func dot4x2AVX512(x0, x1, y0, y1, y2, y3 []float64) (r00, r01, r02, r03, r10, r11, r12, r13 float64)
//
// The register-blocked GEMM microkernel: rij = dot(xi, yj) for two x
// rows and four B rows, eight accumulators fed by six loads per 8-element
// step, so each B chunk is loaded once for both x rows. Each output is
// accumulated and reduced exactly as dotAVX512 does it. len(x1) must
// equal len(x0).
TEXT ·dot4x2AVX512(SB), NOSPLIT, $0-208
	MOVQ   x0_base+0(FP), SI
	MOVQ   x0_len+8(FP), CX
	MOVQ   x1_base+24(FP), DX
	MOVQ   y0_base+48(FP), DI
	MOVQ   y1_base+72(FP), R8
	MOVQ   y2_base+96(FP), R9
	MOVQ   y3_base+120(FP), R10
	VPXORQ Z0, Z0, Z0           // x0·y0 .. x0·y3
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4           // x1·y0 .. x1·y3
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ   CX, BX
	ANDQ   $-8, BX
	XORQ   AX, AX
	CMPQ   BX, $0
	JE     z42reduce

z42loop:
	VMOVUPD     (SI)(AX*8), Z8
	VMOVUPD     (DX)(AX*8), Z9
	VMOVUPD     (DI)(AX*8), Z10
	VMOVUPD     (R8)(AX*8), Z11
	VMOVUPD     (R9)(AX*8), Z12
	VMOVUPD     (R10)(AX*8), Z13
	VFMADD231PD Z10, Z8, Z0
	VFMADD231PD Z10, Z9, Z4
	VFMADD231PD Z11, Z8, Z1
	VFMADD231PD Z11, Z9, Z5
	VFMADD231PD Z12, Z8, Z2
	VFMADD231PD Z12, Z9, Z6
	VFMADD231PD Z13, Z8, Z3
	VFMADD231PD Z13, Z9, Z7
	ADDQ        $8, AX
	CMPQ        AX, BX
	JLT         z42loop

z42reduce:
	REDUCE8(Z0, Y0, X0, Y8, X8)
	REDUCE8(Z1, Y1, X1, Y8, X8)
	REDUCE8(Z2, Y2, X2, Y8, X8)
	REDUCE8(Z3, Y3, X3, Y8, X8)
	REDUCE8(Z4, Y4, X4, Y8, X8)
	REDUCE8(Z5, Y5, X5, Y8, X8)
	REDUCE8(Z6, Y6, X6, Y8, X8)
	REDUCE8(Z7, Y7, X7, Y8, X8)

z42scalar:
	CMPQ        AX, CX
	JGE         z42done
	VMOVSD      (SI)(AX*8), X8
	VMOVSD      (DX)(AX*8), X9
	VFMADD231SD (DI)(AX*8), X8, X0
	VFMADD231SD (DI)(AX*8), X9, X4
	VFMADD231SD (R8)(AX*8), X8, X1
	VFMADD231SD (R8)(AX*8), X9, X5
	VFMADD231SD (R9)(AX*8), X8, X2
	VFMADD231SD (R9)(AX*8), X9, X6
	VFMADD231SD (R10)(AX*8), X8, X3
	VFMADD231SD (R10)(AX*8), X9, X7
	INCQ        AX
	JMP         z42scalar

z42done:
	VMOVSD     X0, r00+144(FP)
	VMOVSD     X1, r01+152(FP)
	VMOVSD     X2, r02+160(FP)
	VMOVSD     X3, r03+168(FP)
	VMOVSD     X4, r10+176(FP)
	VMOVSD     X5, r11+184(FP)
	VMOVSD     X6, r12+192(FP)
	VMOVSD     X7, r13+200(FP)
	VZEROUPPER
	RET

// func stepRowAVX512(dst, w []float64, a float64, cf []float64, rows [][]float64)
//
// One row of GemmTNRStep with its gradient held in registers: per
// element e, acc = +0, then acc = fma(cf[k], rows[k][e], acc) for k in
// order, then dst[e] = fma(a, acc, w[e]), where the caller passes
// a = −eta and only the nonzero coefficients. That is per element the
// FMA chain of the buffered path (Zero, the axpy4/axpyTo quads and
// tails into a row buffer, then AxpyTo), with the same operand roles.
// Elements go 64 per step (eight accumulators, enough independent FMA
// chains to cover the FMA latency), then the last 0-63 in one more pass
// over the examples: one accumulator per 8-lane chunk that holds
// elements, the last chunk masked. Every rows[k] must be at least
// len(w) long;
// dst may alias w, since each step reads w before it stores dst.
TEXT ·stepRowAVX512(SB), NOSPLIT, $0-104
	MOVQ         dst_base+0(FP), DX
	MOVQ         w_base+24(FP), SI
	MOVQ         w_len+32(FP), CX
	VBROADCASTSD a+48(FP), Z31
	MOVQ         cf_base+56(FP), R8
	MOVQ         cf_len+64(FP), R9
	MOVQ         rows_base+80(FP), R10
	MOVQ         CX, BX
	ANDQ         $-64, BX
	XORQ         AX, AX

zs64:
	CMPQ   AX, BX
	JGE    zsrem
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	XORQ   R11, R11             // k
	MOVQ   R10, R12             // &rows[k]

zs64k:
	CMPQ         R11, R9
	JGE          zs64w
	VBROADCASTSD (R8)(R11*8), Z8
	MOVQ         (R12), R13     // rows[k] base
	VFMADD231PD  (R13)(AX*8), Z8, Z0
	VFMADD231PD  64(R13)(AX*8), Z8, Z1
	VFMADD231PD  128(R13)(AX*8), Z8, Z2
	VFMADD231PD  192(R13)(AX*8), Z8, Z3
	VFMADD231PD  256(R13)(AX*8), Z8, Z4
	VFMADD231PD  320(R13)(AX*8), Z8, Z5
	VFMADD231PD  384(R13)(AX*8), Z8, Z6
	VFMADD231PD  448(R13)(AX*8), Z8, Z7
	ADDQ         $24, R12
	INCQ         R11
	JMP          zs64k

zs64w:
	VMOVUPD     (SI)(AX*8), Z16
	VMOVUPD     64(SI)(AX*8), Z17
	VMOVUPD     128(SI)(AX*8), Z18
	VMOVUPD     192(SI)(AX*8), Z19
	VMOVUPD     256(SI)(AX*8), Z20
	VMOVUPD     320(SI)(AX*8), Z21
	VMOVUPD     384(SI)(AX*8), Z22
	VMOVUPD     448(SI)(AX*8), Z23
	VFMADD231PD Z0, Z31, Z16
	VFMADD231PD Z1, Z31, Z17
	VFMADD231PD Z2, Z31, Z18
	VFMADD231PD Z3, Z31, Z19
	VFMADD231PD Z4, Z31, Z20
	VFMADD231PD Z5, Z31, Z21
	VFMADD231PD Z6, Z31, Z22
	VFMADD231PD Z7, Z31, Z23
	VMOVUPD     Z16, (DX)(AX*8)
	VMOVUPD     Z17, 64(DX)(AX*8)
	VMOVUPD     Z18, 128(DX)(AX*8)
	VMOVUPD     Z19, 192(DX)(AX*8)
	VMOVUPD     Z20, 256(DX)(AX*8)
	VMOVUPD     Z21, 320(DX)(AX*8)
	VMOVUPD     Z22, 384(DX)(AX*8)
	VMOVUPD     Z23, 448(DX)(AX*8)
	ADDQ        $64, AX
	JMP         zs64

zsrem:
	// The last 0-63 elements in one pass over the examples: f = rem/8
	// full chunks in Z0..Z6 and, if rem%8 > 0, one chunk under the lane
	// mask K1 = (1<<(rem%8))-1 in Z7, starting at element R15. Only the
	// chunks that hold lanes are issued; the masked loads and FMAs touch
	// no memory past the rows' ends.
	SUBQ   AX, CX
	JE     zsdone
	MOVQ   CX, R14
	SHRQ   $3, R14              // f
	ANDQ   $7, CX               // rem%8
	MOVQ   $1, BX
	SHLQ   CX, BX
	DECQ   BX
	KMOVW  BX, K1
	LEAQ   (AX)(R14*8), R15
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	XORQ   R11, R11
	MOVQ   R10, R12

zsrk:
	CMPQ         R11, R9
	JGE          zsrw
	VBROADCASTSD (R8)(R11*8), Z8
	MOVQ         (R12), R13
	REMFMA(1, 0, Z8, Z0, zsrt)
	REMFMA(2, 64, Z8, Z1, zsrt)
	REMFMA(3, 128, Z8, Z2, zsrt)
	REMFMA(4, 192, Z8, Z3, zsrt)
	REMFMA(5, 256, Z8, Z4, zsrt)
	REMFMA(6, 320, Z8, Z5, zsrt)
	REMFMA(7, 384, Z8, Z6, zsrt)

zsrt:
	TESTQ       CX, CX
	JE          zsrn
	VFMADD231PD (R13)(R15*8), Z8, K1, Z7

zsrn:
	ADDQ $24, R12
	INCQ R11
	JMP  zsrk

zsrw:
	REMSTEP(1, 0, Z0, zsrwt)
	REMSTEP(2, 64, Z1, zsrwt)
	REMSTEP(3, 128, Z2, zsrwt)
	REMSTEP(4, 192, Z3, zsrwt)
	REMSTEP(5, 256, Z4, zsrwt)
	REMSTEP(6, 320, Z5, zsrwt)
	REMSTEP(7, 384, Z6, zsrwt)

zsrwt:
	TESTQ       CX, CX
	JE          zsdone
	VMOVUPD.Z   (SI)(R15*8), K1, Z16
	VFMADD231PD Z7, Z31, Z16
	VMOVUPD     Z16, K1, (DX)(R15*8)

zsdone:
	VZEROUPPER
	RET
