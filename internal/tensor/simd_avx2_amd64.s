//go:build amd64

#include "textflag.h"

// AVX2+FMA implementations of the BLAS-1 hot kernels, executable only
// when cpufeat reports AVX2+FMA (the dispatch in simd_amd64.go checks).
//
// Rounding regime: VFMADD231 rounds a*b+c once, so this tier is NOT
// bitwise-comparable to the SSE2/generic tier — it is its own kernel
// class with its own golden fixtures. Within the class the bits are
// fully pinned: the lane layout below is reproduced exactly by the
// pure-Go math.FMA twins in simd_fma_ref.go (math.FMA is correctly
// rounded, so software and hardware FMA agree bit for bit), which
// TestKernelsMatchReference asserts on every unroll/tail combination.
//
// Lane layout, shared by dot and dot4: per output row, two 4-lane YMM
// accumulators advance eight partial sums t0..t7 by FMA over 8-element
// chunks of x; the reduction is the vectorized three-step tree
// ((t0+t4)+(t2+t6)) + ((t1+t5)+(t3+t7)), and the tail is scalar FMA.
// All vector ops are VEX-encoded with a trailing VZEROUPPER, so no
// SSE/AVX transition stalls leak into the surrounding Go code.

// func dotAVX2(x, y []float64) float64
TEXT ·dotAVX2(SB), NOSPLIT, $0-56
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	MOVQ   y_base+24(FP), DI
	VXORPD Y0, Y0, Y0         // [t0 t1 t2 t3]
	VXORPD Y1, Y1, Y1         // [t4 t5 t6 t7]
	MOVQ   CX, BX
	ANDQ   $-8, BX            // n rounded down to a multiple of 8
	XORQ   AX, AX
	CMPQ   BX, $0
	JE     dreduce

dloop:
	VMOVUPD     (SI)(AX*8), Y2
	VMOVUPD     32(SI)(AX*8), Y3
	VFMADD231PD (DI)(AX*8), Y2, Y0    // t0..t3 += x*y, one rounding
	VFMADD231PD 32(DI)(AX*8), Y3, Y1  // t4..t7 += x*y
	ADDQ        $8, AX
	CMPQ        AX, BX
	JLT         dloop

dreduce:
	// s = ((t0+t4)+(t2+t6)) + ((t1+t5)+(t3+t7)): one 4-lane add, one
	// 2-lane add, one scalar add — three serial rounding steps instead
	// of seven, mirrored exactly by dotFMARef's tree.
	VADDPD       Y1, Y0, Y0   // [t0+t4 t1+t5 t2+t6 t3+t7]
	VEXTRACTF128 $1, Y0, X4   // [t2+t6 t3+t7]
	VADDPD       X4, X0, X0   // [(t0+t4)+(t2+t6) (t1+t5)+(t3+t7)]
	VPERMILPD    $1, X0, X5
	VADDSD       X5, X0, X0   // s

dscalar:
	CMPQ        AX, CX
	JGE         ddone
	VMOVSD      (SI)(AX*8), X2
	VFMADD231SD (DI)(AX*8), X2, X0    // s = fma(x[i], y[i], s)
	INCQ        AX
	JMP         dscalar

ddone:
	VMOVSD     X0, ret+48(FP)
	VZEROUPPER
	RET

// func axpyToAVX2(dst []float64, a float64, x, y []float64)
//
// dst = fma(a, x, y); Axpy passes y as dst. Each chunk loads x and y
// before storing dst, so dst may alias either input.
TEXT ·axpyToAVX2(SB), NOSPLIT, $0-80
	MOVQ         dst_base+0(FP), DX
	VBROADCASTSD a+24(FP), Y0
	MOVQ         x_base+32(FP), SI
	MOVQ         x_len+40(FP), CX
	MOVQ         y_base+56(FP), DI
	MOVQ         CX, BX
	ANDQ         $-16, BX
	XORQ         AX, AX
	CMPQ         BX, $0
	JE           atail

aloop:
	VMOVUPD     (DI)(AX*8), Y1
	VMOVUPD     32(DI)(AX*8), Y2
	VMOVUPD     64(DI)(AX*8), Y3
	VMOVUPD     96(DI)(AX*8), Y4
	VFMADD231PD (SI)(AX*8), Y0, Y1    // y = fma(a, x, y)
	VFMADD231PD 32(SI)(AX*8), Y0, Y2
	VFMADD231PD 64(SI)(AX*8), Y0, Y3
	VFMADD231PD 96(SI)(AX*8), Y0, Y4
	VMOVUPD     Y1, (DX)(AX*8)
	VMOVUPD     Y2, 32(DX)(AX*8)
	VMOVUPD     Y3, 64(DX)(AX*8)
	VMOVUPD     Y4, 96(DX)(AX*8)
	ADDQ        $16, AX
	CMPQ        AX, BX
	JLT         aloop

atail:
	CMPQ        AX, CX
	JGE         adone
	VMOVSD      (DI)(AX*8), X1
	VFMADD231SD (SI)(AX*8), X0, X1    // dst[i] = fma(a, x[i], y[i])
	VMOVSD      X1, (DX)(AX*8)
	INCQ        AX
	JMP         atail

adone:
	VZEROUPPER
	RET

// func dot4AVX2(x, y0, y1, y2, y3 []float64) (r0, r1, r2, r3 float64)
//
// The 4-row fused GEMM microkernel: one pass over x feeds eight
// independent FMA chains (4 rows × 2 accumulators), amortizing the x
// loads fourfold and keeping the FMA pipes full without spilling — the
// 16-register YMM file is exactly why this tier fuses 4 rows where the
// SSE2 tier stops at 2. Each output reduces in dotAVX2's order, so
// dot4 and single dots mix freely without perturbing a bit.
TEXT ·dot4AVX2(SB), NOSPLIT, $0-152
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	MOVQ   y0_base+24(FP), DI
	MOVQ   y1_base+48(FP), R8
	MOVQ   y2_base+72(FP), R9
	MOVQ   y3_base+96(FP), R10
	VXORPD Y0, Y0, Y0         // row0 [t0..t3]
	VXORPD Y1, Y1, Y1         // row0 [t4..t7]
	VXORPD Y2, Y2, Y2         // row1
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4         // row2
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6         // row3
	VXORPD Y7, Y7, Y7
	MOVQ   CX, BX
	ANDQ   $-8, BX
	XORQ   AX, AX
	CMPQ   BX, $0
	JE     d4reduce

d4loop:
	VMOVUPD     (SI)(AX*8), Y8        // x[i:i+4]
	VMOVUPD     32(SI)(AX*8), Y9      // x[i+4:i+8]
	VFMADD231PD (DI)(AX*8), Y8, Y0
	VFMADD231PD 32(DI)(AX*8), Y9, Y1
	VFMADD231PD (R8)(AX*8), Y8, Y2
	VFMADD231PD 32(R8)(AX*8), Y9, Y3
	VFMADD231PD (R9)(AX*8), Y8, Y4
	VFMADD231PD 32(R9)(AX*8), Y9, Y5
	VFMADD231PD (R10)(AX*8), Y8, Y6
	VFMADD231PD 32(R10)(AX*8), Y9, Y7
	ADDQ        $8, AX
	CMPQ        AX, BX
	JLT         d4loop

d4reduce:
	// Per row: the same three-step tree as dotAVX2's dreduce; the four
	// rows' trees are independent and pipeline.
	VADDPD       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X8
	VADDPD       X8, X0, X0
	VPERMILPD    $1, X0, X8
	VADDSD       X8, X0, X0   // X0 = r0

	VADDPD       Y3, Y2, Y2
	VEXTRACTF128 $1, Y2, X8
	VADDPD       X8, X2, X2
	VPERMILPD    $1, X2, X8
	VADDSD       X8, X2, X2   // X2 = r1

	VADDPD       Y5, Y4, Y4
	VEXTRACTF128 $1, Y4, X8
	VADDPD       X8, X4, X4
	VPERMILPD    $1, X4, X8
	VADDSD       X8, X4, X4   // X4 = r2

	VADDPD       Y7, Y6, Y6
	VEXTRACTF128 $1, Y6, X8
	VADDPD       X8, X6, X6
	VPERMILPD    $1, X6, X8
	VADDSD       X8, X6, X6   // X6 = r3

d4scalar:
	CMPQ        AX, CX
	JGE         d4done
	VMOVSD      (SI)(AX*8), X10
	VFMADD231SD (DI)(AX*8), X10, X0
	VFMADD231SD (R8)(AX*8), X10, X2
	VFMADD231SD (R9)(AX*8), X10, X4
	VFMADD231SD (R10)(AX*8), X10, X6
	INCQ        AX
	JMP         d4scalar

d4done:
	VMOVSD     X0, r0+120(FP)
	VMOVSD     X2, r1+128(FP)
	VMOVSD     X4, r2+136(FP)
	VMOVSD     X6, r3+144(FP)
	VZEROUPPER
	RET

// Shifted exponential, 4 lanes per step: dst[i] = expFMA(x[i]-shift).
// Argument reduction v = k*ln2 + r (round-to-even k, Cody-Waite
// ln2Hi/ln2Lo), degree-13 Taylor polynomial in FMA Horner form, then
// reconstruction by two exact power-of-two multiplies 2^(k>>1) and
// 2^(k-(k>>1)) built in the exponent field. Overflow (v >= expHi), NaN
// and the flushed subnormal fringe (v <= expLo) are handled branch-free
// by two blends. exp_fma_ref.go's expFMA is the scalar twin: every lane
// performs exactly its operation sequence, so assembly and twin agree
// bit for bit (TestKernelsMatchReference covers the pair).

// Taylor coefficients 1/n!, n = 0..13, each replicated to 4 lanes, then
// invLn2, ln2Hi, ln2Lo, expHi, expLo, +Inf and the int64 exponent bias.
DATA expconst<>+0(SB)/8, $0x3ff0000000000000
DATA expconst<>+8(SB)/8, $0x3ff0000000000000
DATA expconst<>+16(SB)/8, $0x3ff0000000000000
DATA expconst<>+24(SB)/8, $0x3ff0000000000000
DATA expconst<>+32(SB)/8, $0x3ff0000000000000
DATA expconst<>+40(SB)/8, $0x3ff0000000000000
DATA expconst<>+48(SB)/8, $0x3ff0000000000000
DATA expconst<>+56(SB)/8, $0x3ff0000000000000
DATA expconst<>+64(SB)/8, $0x3fe0000000000000
DATA expconst<>+72(SB)/8, $0x3fe0000000000000
DATA expconst<>+80(SB)/8, $0x3fe0000000000000
DATA expconst<>+88(SB)/8, $0x3fe0000000000000
DATA expconst<>+96(SB)/8, $0x3fc5555555555555
DATA expconst<>+104(SB)/8, $0x3fc5555555555555
DATA expconst<>+112(SB)/8, $0x3fc5555555555555
DATA expconst<>+120(SB)/8, $0x3fc5555555555555
DATA expconst<>+128(SB)/8, $0x3fa5555555555555
DATA expconst<>+136(SB)/8, $0x3fa5555555555555
DATA expconst<>+144(SB)/8, $0x3fa5555555555555
DATA expconst<>+152(SB)/8, $0x3fa5555555555555
DATA expconst<>+160(SB)/8, $0x3f81111111111111
DATA expconst<>+168(SB)/8, $0x3f81111111111111
DATA expconst<>+176(SB)/8, $0x3f81111111111111
DATA expconst<>+184(SB)/8, $0x3f81111111111111
DATA expconst<>+192(SB)/8, $0x3f56c16c16c16c17
DATA expconst<>+200(SB)/8, $0x3f56c16c16c16c17
DATA expconst<>+208(SB)/8, $0x3f56c16c16c16c17
DATA expconst<>+216(SB)/8, $0x3f56c16c16c16c17
DATA expconst<>+224(SB)/8, $0x3f2a01a01a01a01a
DATA expconst<>+232(SB)/8, $0x3f2a01a01a01a01a
DATA expconst<>+240(SB)/8, $0x3f2a01a01a01a01a
DATA expconst<>+248(SB)/8, $0x3f2a01a01a01a01a
DATA expconst<>+256(SB)/8, $0x3efa01a01a01a01a
DATA expconst<>+264(SB)/8, $0x3efa01a01a01a01a
DATA expconst<>+272(SB)/8, $0x3efa01a01a01a01a
DATA expconst<>+280(SB)/8, $0x3efa01a01a01a01a
DATA expconst<>+288(SB)/8, $0x3ec71de3a556c734
DATA expconst<>+296(SB)/8, $0x3ec71de3a556c734
DATA expconst<>+304(SB)/8, $0x3ec71de3a556c734
DATA expconst<>+312(SB)/8, $0x3ec71de3a556c734
DATA expconst<>+320(SB)/8, $0x3e927e4fb7789f5c
DATA expconst<>+328(SB)/8, $0x3e927e4fb7789f5c
DATA expconst<>+336(SB)/8, $0x3e927e4fb7789f5c
DATA expconst<>+344(SB)/8, $0x3e927e4fb7789f5c
DATA expconst<>+352(SB)/8, $0x3e5ae64567f544e4
DATA expconst<>+360(SB)/8, $0x3e5ae64567f544e4
DATA expconst<>+368(SB)/8, $0x3e5ae64567f544e4
DATA expconst<>+376(SB)/8, $0x3e5ae64567f544e4
DATA expconst<>+384(SB)/8, $0x3e21eed8eff8d898
DATA expconst<>+392(SB)/8, $0x3e21eed8eff8d898
DATA expconst<>+400(SB)/8, $0x3e21eed8eff8d898
DATA expconst<>+408(SB)/8, $0x3e21eed8eff8d898
DATA expconst<>+416(SB)/8, $0x3de6124613a86d09
DATA expconst<>+424(SB)/8, $0x3de6124613a86d09
DATA expconst<>+432(SB)/8, $0x3de6124613a86d09
DATA expconst<>+440(SB)/8, $0x3de6124613a86d09
DATA expconst<>+448(SB)/8, $0x3ff71547652b82fe
DATA expconst<>+456(SB)/8, $0x3ff71547652b82fe
DATA expconst<>+464(SB)/8, $0x3ff71547652b82fe
DATA expconst<>+472(SB)/8, $0x3ff71547652b82fe
DATA expconst<>+480(SB)/8, $0x3fe62e42fee00000
DATA expconst<>+488(SB)/8, $0x3fe62e42fee00000
DATA expconst<>+496(SB)/8, $0x3fe62e42fee00000
DATA expconst<>+504(SB)/8, $0x3fe62e42fee00000
DATA expconst<>+512(SB)/8, $0x3dea39ef35793c76
DATA expconst<>+520(SB)/8, $0x3dea39ef35793c76
DATA expconst<>+528(SB)/8, $0x3dea39ef35793c76
DATA expconst<>+536(SB)/8, $0x3dea39ef35793c76
DATA expconst<>+544(SB)/8, $0x40862e42fefa39ef
DATA expconst<>+552(SB)/8, $0x40862e42fefa39ef
DATA expconst<>+560(SB)/8, $0x40862e42fefa39ef
DATA expconst<>+568(SB)/8, $0x40862e42fefa39ef
DATA expconst<>+576(SB)/8, $0xc086232bdd7abcd2
DATA expconst<>+584(SB)/8, $0xc086232bdd7abcd2
DATA expconst<>+592(SB)/8, $0xc086232bdd7abcd2
DATA expconst<>+600(SB)/8, $0xc086232bdd7abcd2
DATA expconst<>+608(SB)/8, $0x7ff0000000000000
DATA expconst<>+616(SB)/8, $0x7ff0000000000000
DATA expconst<>+624(SB)/8, $0x7ff0000000000000
DATA expconst<>+632(SB)/8, $0x7ff0000000000000
DATA expconst<>+640(SB)/8, $1023
DATA expconst<>+648(SB)/8, $1023
DATA expconst<>+656(SB)/8, $1023
DATA expconst<>+664(SB)/8, $1023
GLOBL expconst<>(SB), RODATA|NOPTR, $672

// Lane-enable masks for the <4 remainder: entry r has the first r
// lanes' sign bits set (entry 0 unused, kept for direct indexing).
DATA expmask<>+0(SB)/8, $0x0000000000000000
DATA expmask<>+8(SB)/8, $0x0000000000000000
DATA expmask<>+16(SB)/8, $0x0000000000000000
DATA expmask<>+24(SB)/8, $0x0000000000000000
DATA expmask<>+32(SB)/8, $0xffffffffffffffff
DATA expmask<>+40(SB)/8, $0x0000000000000000
DATA expmask<>+48(SB)/8, $0x0000000000000000
DATA expmask<>+56(SB)/8, $0x0000000000000000
DATA expmask<>+64(SB)/8, $0xffffffffffffffff
DATA expmask<>+72(SB)/8, $0xffffffffffffffff
DATA expmask<>+80(SB)/8, $0x0000000000000000
DATA expmask<>+88(SB)/8, $0x0000000000000000
DATA expmask<>+96(SB)/8, $0xffffffffffffffff
DATA expmask<>+104(SB)/8, $0xffffffffffffffff
DATA expmask<>+112(SB)/8, $0xffffffffffffffff
DATA expmask<>+120(SB)/8, $0x0000000000000000
GLOBL expmask<>(SB), RODATA|NOPTR, $128

// EXPLANE computes P = expFMA(V) lanewise. V is consumed; KD/XKD, R, P,
// S/XS are scratch (XKD and XS must be the X halves of KD and S). Y9
// and Y15 are never touched, so the caller can hold the remainder mask
// and the broadcast shift across invocations. Out-of-range and NaN
// lanes run the arithmetic path with garbage and are overwritten by the
// final two blends, exactly like the twin's early returns.
#define EXPLANE(V, KD, XKD, R, P, S, XS) \
	VMULPD      expconst<>+448(SB), V, KD  \ // v*invLn2
	VROUNDPD    $0, KD, KD                 \ // kd = roundeven
	VMOVAPD     V, R                       \
	VFNMADD231PD expconst<>+480(SB), KD, R \ // r = v - kd*ln2Hi
	VFNMADD231PD expconst<>+512(SB), KD, R \ // r -= kd*ln2Lo
	VMOVUPD     expconst<>+416(SB), P      \ // p = c13
	VFMADD213PD expconst<>+384(SB), R, P   \ // p = p*r + c12
	VFMADD213PD expconst<>+352(SB), R, P   \
	VFMADD213PD expconst<>+320(SB), R, P   \
	VFMADD213PD expconst<>+288(SB), R, P   \
	VFMADD213PD expconst<>+256(SB), R, P   \
	VFMADD213PD expconst<>+224(SB), R, P   \
	VFMADD213PD expconst<>+192(SB), R, P   \
	VFMADD213PD expconst<>+160(SB), R, P   \
	VFMADD213PD expconst<>+128(SB), R, P   \
	VFMADD213PD expconst<>+96(SB), R, P    \
	VFMADD213PD expconst<>+64(SB), R, P    \
	VFMADD213PD expconst<>+32(SB), R, P    \
	VFMADD213PD expconst<>+0(SB), R, P     \ // p = exp(r)
	VCVTPD2DQY  KD, XKD                    \ // k (int32 lanes)
	VPSRAD      $1, XKD, XS                \ // q1 = k>>1
	VPSUBD      XS, XKD, XKD               \ // q2 = k-q1
	VPMOVSXDQ   XS, S                      \
	VPADDQ      expconst<>+640(SB), S, S   \
	VPSLLQ      $52, S, S                  \ // 2^q1
	VMULPD      S, P, P                    \
	VPMOVSXDQ   XKD, S                     \
	VPADDQ      expconst<>+640(SB), S, S   \
	VPSLLQ      $52, S, S                  \ // 2^q2
	VMULPD      S, P, P                    \
	VCMPPD      $5, expconst<>+544(SB), V, KD \ // !(v < expHi): overflow|NaN
	VMULPD      expconst<>+608(SB), V, R   \ // v*Inf
	VBLENDVPD   KD, R, P, P                \
	VCMPPD      $2, expconst<>+576(SB), V, KD \ // v <= expLo: flush
	VXORPD      R, R, R                    \
	VBLENDVPD   KD, R, P, P

// func expShiftAVX2(dst, x []float64, shift float64)
TEXT ·expShiftAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	VBROADCASTSD shift+48(FP), Y15
	MOVQ         CX, BX
	ANDQ         $-8, BX
	XORQ         AX, AX
	CMPQ         BX, $0
	JE           e4

e8:
	// Two vectors per step: the two EXPLANE chains share no registers,
	// so out-of-order renaming overlaps their FMA latency.
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VSUBPD  Y15, Y0, Y0       // v = x - shift
	VSUBPD  Y15, Y1, Y1
	EXPLANE(Y0, Y2, X2, Y4, Y6, Y8, X8)
	EXPLANE(Y1, Y3, X3, Y5, Y7, Y10, X10)
	VMOVUPD Y6, (DI)(AX*8)
	VMOVUPD Y7, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     e8

e4:
	MOVQ CX, DX
	SUBQ AX, DX               // remaining 0..7
	CMPQ DX, $4
	JLT  etail
	VMOVUPD (SI)(AX*8), Y0
	VSUBPD  Y15, Y0, Y0
	EXPLANE(Y0, Y2, X2, Y4, Y6, Y8, X8)
	VMOVUPD Y6, (DI)(AX*8)
	ADDQ    $4, AX
	SUBQ    $4, DX

etail:
	TESTQ DX, DX
	JE    edone
	SHLQ  $5, DX              // remainder * 32 bytes per mask row
	LEAQ  expmask<>(SB), R8
	VMOVDQU    (R8)(DX*1), Y9 // lane-enable mask
	VMASKMOVPD (SI)(AX*8), Y9, Y0
	VSUBPD     Y15, Y0, Y0
	EXPLANE(Y0, Y2, X2, Y4, Y6, Y8, X8)
	VMASKMOVPD Y6, Y9, (DI)(AX*8)

edone:
	VZEROUPPER
	RET

// func axpy4AVX2(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64)
//
// Fused four-coefficient accumulation:
// y[i] = fma(a3,x3[i], fma(a2,x2[i], fma(a1,x1[i], fma(a0,x0[i],y[i])))).
// Per element this is exactly four sequential axpyAVX2 passes (same
// bits on every rung — see axpy4From), fused so y is loaded and stored
// once instead of four times; two vectors per step keep the dependent
// four-FMA chains pipelined. The scalar tail chains the same four FMAs.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	VBROADCASTSD a0+0(FP), Y0
	VBROADCASTSD a1+8(FP), Y1
	VBROADCASTSD a2+16(FP), Y2
	VBROADCASTSD a3+24(FP), Y3
	MOVQ         x0_base+32(FP), R8
	MOVQ         x1_base+56(FP), R9
	MOVQ         x2_base+80(FP), R10
	MOVQ         x3_base+104(FP), R11
	MOVQ         y_base+128(FP), DI
	MOVQ         y_len+136(FP), CX
	MOVQ         CX, BX
	ANDQ         $-8, BX
	XORQ         AX, AX
	CMPQ         BX, $0
	JE           a4tail

a4loop:
	VMOVUPD     (DI)(AX*8), Y4
	VMOVUPD     32(DI)(AX*8), Y5
	VFMADD231PD (R8)(AX*8), Y0, Y4
	VFMADD231PD 32(R8)(AX*8), Y0, Y5
	VFMADD231PD (R9)(AX*8), Y1, Y4
	VFMADD231PD 32(R9)(AX*8), Y1, Y5
	VFMADD231PD (R10)(AX*8), Y2, Y4
	VFMADD231PD 32(R10)(AX*8), Y2, Y5
	VFMADD231PD (R11)(AX*8), Y3, Y4
	VFMADD231PD 32(R11)(AX*8), Y3, Y5
	VMOVUPD     Y4, (DI)(AX*8)
	VMOVUPD     Y5, 32(DI)(AX*8)
	ADDQ        $8, AX
	CMPQ        AX, BX
	JLT         a4loop

a4tail:
	CMPQ        AX, CX
	JGE         a4done
	VMOVSD      (DI)(AX*8), X4
	VFMADD231SD (R8)(AX*8), X0, X4
	VFMADD231SD (R9)(AX*8), X1, X4
	VFMADD231SD (R10)(AX*8), X2, X4
	VFMADD231SD (R11)(AX*8), X3, X4
	VMOVSD      X4, (DI)(AX*8)
	INCQ        AX
	JMP         a4tail

a4done:
	VZEROUPPER
	RET

// func meanAVX2(dst []float64, inv float64, vecs [][]float64)
//
// The mean with its accumulators in registers: per element e,
// acc = +0, then acc = fma(1, vecs[j][e], acc) for j in order (the
// operand roles of axpyTo with a = 1), then dst[e] = acc·inv by
// VMULPD. Elements go 16 per step in four accumulators, then 4 per
// step, then one at a time. Each step loads every input before it
// stores dst, so dst may alias an input.
TEXT ·meanAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DX
	MOVQ         dst_len+8(FP), CX
	VBROADCASTSD inv+24(FP), Y15
	MOVQ         vecs_base+32(FP), R10
	MOVQ         vecs_len+40(FP), R9
	LEAQ         (R9)(R9*2), R9
	LEAQ         (R10)(R9*8), R9 // end of the vecs headers
	MOVQ         $0x3ff0000000000000, R8
	MOVQ         R8, X14
	VBROADCASTSD X14, Y14       // 1.0
	MOVQ         CX, BX
	ANDQ         $-16, BX
	XORQ         AX, AX

mbig:
	CMPQ   AX, BX
	JGE    mlane
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   R10, R12              // &vecs[j]

mbigk:
	CMPQ        R12, R9
	JGE         mbigs
	MOVQ        (R12), R13       // vecs[j] base
	VFMADD231PD (R13)(AX*8), Y14, Y0
	VFMADD231PD 32(R13)(AX*8), Y14, Y1
	VFMADD231PD 64(R13)(AX*8), Y14, Y2
	VFMADD231PD 96(R13)(AX*8), Y14, Y3
	ADDQ        $24, R12
	JMP         mbigk

mbigs:
	VMULPD  Y15, Y0, Y0
	VMULPD  Y15, Y1, Y1
	VMULPD  Y15, Y2, Y2
	VMULPD  Y15, Y3, Y3
	VMOVUPD Y0, (DX)(AX*8)
	VMOVUPD Y1, 32(DX)(AX*8)
	VMOVUPD Y2, 64(DX)(AX*8)
	VMOVUPD Y3, 96(DX)(AX*8)
	ADDQ    $16, AX
	JMP     mbig

mlane:
	MOVQ CX, BX
	ANDQ $-4, BX

mlanel:
	CMPQ   AX, BX
	JGE    mone
	VXORPS Y0, Y0, Y0
	MOVQ   R10, R12

mlanek:
	CMPQ        R12, R9
	JGE         mlanes
	MOVQ        (R12), R13
	VFMADD231PD (R13)(AX*8), Y14, Y0
	ADDQ        $24, R12
	JMP         mlanek

mlanes:
	VMULPD  Y15, Y0, Y0
	VMOVUPD Y0, (DX)(AX*8)
	ADDQ    $4, AX
	JMP     mlanel

mone:
	CMPQ   AX, CX
	JGE    mdone
	VXORPS X0, X0, X0
	MOVQ   R10, R12

monek:
	CMPQ        R12, R9
	JGE         mones
	MOVQ        (R12), R13
	VFMADD231SD (R13)(AX*8), X14, X0
	ADDQ        $24, R12
	JMP         monek

mones:
	VMULSD X15, X0, X0
	VMOVSD X0, (DX)(AX*8)
	INCQ   AX
	JMP    mone

mdone:
	VZEROUPPER
	RET
