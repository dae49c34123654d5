//go:build amd64

#include "textflag.h"

// Float32 AVX2+FMA implementations of the avx2f32 storage tier's hot
// kernels, executable only when cpufeat reports AVX2+FMA (the dispatch
// in simd_amd64.go checks).
//
// Rounding regime: VFMADD231PS rounds a*b+c once to float32 — exactly
// the correctly-rounded fma32 of simd_fma_ref.go (which repairs Go's
// missing float32 FMA with round-to-odd), so assembly and pure-Go twin
// agree bit for bit on every input (TestKernels32MatchReference).
//
// Lane layout, shared by dot32 and dot432: per output row, two 8-lane
// YMM accumulators advance sixteen partial sums t0..t15 by FMA over
// 16-element chunks of x; the reduction is the vectorized four-step
// tree — u_l = t_l + t_{l+8} (8-lane add), then
// ((u0+u4)+(u2+u6)) + ((u1+u5)+(u3+u7)) via one 4-lane add, one 2-lane
// add and one scalar add — and the tail is scalar FMA. All vector ops
// are VEX-encoded with a trailing VZEROUPPER.

// func dot32AVX2(x, y []float32) float32
TEXT ·dot32AVX2(SB), NOSPLIT, $0-52
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	MOVQ   y_base+24(FP), DI
	VXORPS Y0, Y0, Y0         // [t0 .. t7]
	VXORPS Y1, Y1, Y1         // [t8 .. t15]
	MOVQ   CX, BX
	ANDQ   $-16, BX           // n rounded down to a multiple of 16
	XORQ   AX, AX
	CMPQ   BX, $0
	JE     dreduce

dloop:
	VMOVUPS     (SI)(AX*4), Y2
	VMOVUPS     32(SI)(AX*4), Y3
	VFMADD231PS (DI)(AX*4), Y2, Y0    // t0..t7 += x*y, one rounding
	VFMADD231PS 32(DI)(AX*4), Y3, Y1  // t8..t15 += x*y
	ADDQ        $16, AX
	CMPQ        AX, BX
	JLT         dloop

dreduce:
	// u_l = t_l + t_{l+8}, then ((u0+u4)+(u2+u6)) + ((u1+u5)+(u3+u7)):
	// one 8-lane add, one 4-lane add, one 2-lane add, one scalar add —
	// mirrored exactly by dot32Ref's tree.
	VADDPS       Y1, Y0, Y0   // [u0 .. u7]
	VEXTRACTF128 $1, Y0, X4   // [u4 .. u7]
	VADDPS       X4, X0, X0   // [u0+u4 u1+u5 u2+u6 u3+u7]
	VPERMILPS    $0x0E, X0, X5
	VADDPS       X5, X0, X0   // [(u0+u4)+(u2+u6) (u1+u5)+(u3+u7) . .]
	VMOVSHDUP    X0, X5
	VADDSS       X5, X0, X0   // s

dscalar:
	CMPQ        AX, CX
	JGE         ddone
	VMOVSS      (SI)(AX*4), X2
	VFMADD231SS (DI)(AX*4), X2, X0    // s = fma32(x[i], y[i], s)
	INCQ        AX
	JMP         dscalar

ddone:
	VMOVSS     X0, ret+48(FP)
	VZEROUPPER
	RET

// func axpyTo32AVX2(dst []float32, a float32, x, y []float32)
//
// dst = fma32(a, x, y); Axpy passes y as dst. Each chunk loads x and y
// before storing dst, so dst may alias either input.
TEXT ·axpyTo32AVX2(SB), NOSPLIT, $0-80
	MOVQ         dst_base+0(FP), DX
	VBROADCASTSS a+24(FP), Y0
	MOVQ         x_base+32(FP), SI
	MOVQ         x_len+40(FP), CX
	MOVQ         y_base+56(FP), DI
	MOVQ         CX, BX
	ANDQ         $-32, BX
	XORQ         AX, AX
	CMPQ         BX, $0
	JE           atail

aloop:
	VMOVUPS     (DI)(AX*4), Y1
	VMOVUPS     32(DI)(AX*4), Y2
	VMOVUPS     64(DI)(AX*4), Y3
	VMOVUPS     96(DI)(AX*4), Y4
	VFMADD231PS (SI)(AX*4), Y0, Y1    // y = fma32(a, x, y)
	VFMADD231PS 32(SI)(AX*4), Y0, Y2
	VFMADD231PS 64(SI)(AX*4), Y0, Y3
	VFMADD231PS 96(SI)(AX*4), Y0, Y4
	VMOVUPS     Y1, (DX)(AX*4)
	VMOVUPS     Y2, 32(DX)(AX*4)
	VMOVUPS     Y3, 64(DX)(AX*4)
	VMOVUPS     Y4, 96(DX)(AX*4)
	ADDQ        $32, AX
	CMPQ        AX, BX
	JLT         aloop

atail:
	CMPQ        AX, CX
	JGE         adone
	VMOVSS      (DI)(AX*4), X1
	VFMADD231SS (SI)(AX*4), X0, X1    // dst[i] = fma32(a, x[i], y[i])
	VMOVSS      X1, (DX)(AX*4)
	INCQ        AX
	JMP         atail

adone:
	VZEROUPPER
	RET

// func dot432AVX2(x, y0, y1, y2, y3 []float32) (r0, r1, r2, r3 float32)
//
// The float32 4-row fused GEMM microkernel: one pass over x feeds
// eight independent 8-lane FMA chains (4 rows x 2 accumulators). Each
// output reduces in dot32AVX2's order, so dot4 and single dots mix
// freely without perturbing a bit.
TEXT ·dot432AVX2(SB), NOSPLIT, $0-136
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	MOVQ   y0_base+24(FP), DI
	MOVQ   y1_base+48(FP), R8
	MOVQ   y2_base+72(FP), R9
	MOVQ   y3_base+96(FP), R10
	VXORPS Y0, Y0, Y0         // row0 [t0..t7]
	VXORPS Y1, Y1, Y1         // row0 [t8..t15]
	VXORPS Y2, Y2, Y2         // row1
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4         // row2
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6         // row3
	VXORPS Y7, Y7, Y7
	MOVQ   CX, BX
	ANDQ   $-16, BX
	XORQ   AX, AX
	CMPQ   BX, $0
	JE     d4reduce

d4loop:
	VMOVUPS     (SI)(AX*4), Y8        // x[i:i+8]
	VMOVUPS     32(SI)(AX*4), Y9      // x[i+8:i+16]
	VFMADD231PS (DI)(AX*4), Y8, Y0
	VFMADD231PS 32(DI)(AX*4), Y9, Y1
	VFMADD231PS (R8)(AX*4), Y8, Y2
	VFMADD231PS 32(R8)(AX*4), Y9, Y3
	VFMADD231PS (R9)(AX*4), Y8, Y4
	VFMADD231PS 32(R9)(AX*4), Y9, Y5
	VFMADD231PS (R10)(AX*4), Y8, Y6
	VFMADD231PS 32(R10)(AX*4), Y9, Y7
	ADDQ        $16, AX
	CMPQ        AX, BX
	JLT         d4loop

d4reduce:
	// Per row: the same four-step tree as dot32AVX2's dreduce; the four
	// rows' trees are independent and pipeline.
	VADDPS       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X8
	VADDPS       X8, X0, X0
	VPERMILPS    $0x0E, X0, X8
	VADDPS       X8, X0, X0
	VMOVSHDUP    X0, X8
	VADDSS       X8, X0, X0   // X0 = r0

	VADDPS       Y3, Y2, Y2
	VEXTRACTF128 $1, Y2, X8
	VADDPS       X8, X2, X2
	VPERMILPS    $0x0E, X2, X8
	VADDPS       X8, X2, X2
	VMOVSHDUP    X2, X8
	VADDSS       X8, X2, X2   // X2 = r1

	VADDPS       Y5, Y4, Y4
	VEXTRACTF128 $1, Y4, X8
	VADDPS       X8, X4, X4
	VPERMILPS    $0x0E, X4, X8
	VADDPS       X8, X4, X4
	VMOVSHDUP    X4, X8
	VADDSS       X8, X4, X4   // X4 = r2

	VADDPS       Y7, Y6, Y6
	VEXTRACTF128 $1, Y6, X8
	VADDPS       X8, X6, X6
	VPERMILPS    $0x0E, X6, X8
	VADDPS       X8, X6, X6
	VMOVSHDUP    X6, X8
	VADDSS       X8, X6, X6   // X6 = r3

d4scalar:
	CMPQ        AX, CX
	JGE         d4done
	VMOVSS      (SI)(AX*4), X10
	VFMADD231SS (DI)(AX*4), X10, X0
	VFMADD231SS (R8)(AX*4), X10, X2
	VFMADD231SS (R9)(AX*4), X10, X4
	VFMADD231SS (R10)(AX*4), X10, X6
	INCQ        AX
	JMP         d4scalar

d4done:
	VMOVSS     X0, r0+120(FP)
	VMOVSS     X2, r1+124(FP)
	VMOVSS     X4, r2+128(FP)
	VMOVSS     X6, r3+132(FP)
	VZEROUPPER
	RET

// Shifted exponential, 8 lanes per step: dst[i] = exp32(x[i]-shift).
// Argument reduction v = k*ln2 + r (round-to-even k, FDLIBM float
// Cody-Waite ln2Hi/ln2Lo), degree-8 Taylor polynomial in FMA Horner
// form, then reconstruction by two power-of-two multiplies 2^(k>>1)
// and 2^(k-(k>>1)) built in the exponent field — all 4-byte integer
// lane ops, no widening needed. Overflow (v >= exp32Hi), NaN and the
// flushed k <= -127 fringe (v <= exp32Lo) are handled branch-free by
// two blends. exp_f32_ref.go's exp32 is the scalar twin: every lane
// performs exactly its operation sequence.

// Taylor coefficients 1/n! (n = 0,1,2,3,4,5,6,7,8 at offsets
// 0,32,...,256), then invLn2, ln2Hi, ln2Lo, expHi, expLo, +Inf and the
// int32 exponent bias, each replicated to 8 float32 lanes (two lanes
// per 8-byte word).
DATA expconst32<>+0(SB)/8, $0x3F8000003F800000
DATA expconst32<>+8(SB)/8, $0x3F8000003F800000
DATA expconst32<>+16(SB)/8, $0x3F8000003F800000
DATA expconst32<>+24(SB)/8, $0x3F8000003F800000
DATA expconst32<>+32(SB)/8, $0x3F8000003F800000
DATA expconst32<>+40(SB)/8, $0x3F8000003F800000
DATA expconst32<>+48(SB)/8, $0x3F8000003F800000
DATA expconst32<>+56(SB)/8, $0x3F8000003F800000
DATA expconst32<>+64(SB)/8, $0x3F0000003F000000
DATA expconst32<>+72(SB)/8, $0x3F0000003F000000
DATA expconst32<>+80(SB)/8, $0x3F0000003F000000
DATA expconst32<>+88(SB)/8, $0x3F0000003F000000
DATA expconst32<>+96(SB)/8, $0x3E2AAAAB3E2AAAAB
DATA expconst32<>+104(SB)/8, $0x3E2AAAAB3E2AAAAB
DATA expconst32<>+112(SB)/8, $0x3E2AAAAB3E2AAAAB
DATA expconst32<>+120(SB)/8, $0x3E2AAAAB3E2AAAAB
DATA expconst32<>+128(SB)/8, $0x3D2AAAAB3D2AAAAB
DATA expconst32<>+136(SB)/8, $0x3D2AAAAB3D2AAAAB
DATA expconst32<>+144(SB)/8, $0x3D2AAAAB3D2AAAAB
DATA expconst32<>+152(SB)/8, $0x3D2AAAAB3D2AAAAB
DATA expconst32<>+160(SB)/8, $0x3C0888893C088889
DATA expconst32<>+168(SB)/8, $0x3C0888893C088889
DATA expconst32<>+176(SB)/8, $0x3C0888893C088889
DATA expconst32<>+184(SB)/8, $0x3C0888893C088889
DATA expconst32<>+192(SB)/8, $0x3AB60B613AB60B61
DATA expconst32<>+200(SB)/8, $0x3AB60B613AB60B61
DATA expconst32<>+208(SB)/8, $0x3AB60B613AB60B61
DATA expconst32<>+216(SB)/8, $0x3AB60B613AB60B61
DATA expconst32<>+224(SB)/8, $0x39500D0139500D01
DATA expconst32<>+232(SB)/8, $0x39500D0139500D01
DATA expconst32<>+240(SB)/8, $0x39500D0139500D01
DATA expconst32<>+248(SB)/8, $0x39500D0139500D01
DATA expconst32<>+256(SB)/8, $0x37D00D0137D00D01
DATA expconst32<>+264(SB)/8, $0x37D00D0137D00D01
DATA expconst32<>+272(SB)/8, $0x37D00D0137D00D01
DATA expconst32<>+280(SB)/8, $0x37D00D0137D00D01
DATA expconst32<>+288(SB)/8, $0x3FB8AA3B3FB8AA3B
DATA expconst32<>+296(SB)/8, $0x3FB8AA3B3FB8AA3B
DATA expconst32<>+304(SB)/8, $0x3FB8AA3B3FB8AA3B
DATA expconst32<>+312(SB)/8, $0x3FB8AA3B3FB8AA3B
DATA expconst32<>+320(SB)/8, $0x3F3172003F317200
DATA expconst32<>+328(SB)/8, $0x3F3172003F317200
DATA expconst32<>+336(SB)/8, $0x3F3172003F317200
DATA expconst32<>+344(SB)/8, $0x3F3172003F317200
DATA expconst32<>+352(SB)/8, $0x35BFBE8E35BFBE8E
DATA expconst32<>+360(SB)/8, $0x35BFBE8E35BFBE8E
DATA expconst32<>+368(SB)/8, $0x35BFBE8E35BFBE8E
DATA expconst32<>+376(SB)/8, $0x35BFBE8E35BFBE8E
DATA expconst32<>+384(SB)/8, $0x42B1721842B17218
DATA expconst32<>+392(SB)/8, $0x42B1721842B17218
DATA expconst32<>+400(SB)/8, $0x42B1721842B17218
DATA expconst32<>+408(SB)/8, $0x42B1721842B17218
DATA expconst32<>+416(SB)/8, $0xC2AEAC50C2AEAC50
DATA expconst32<>+424(SB)/8, $0xC2AEAC50C2AEAC50
DATA expconst32<>+432(SB)/8, $0xC2AEAC50C2AEAC50
DATA expconst32<>+440(SB)/8, $0xC2AEAC50C2AEAC50
DATA expconst32<>+448(SB)/8, $0x7F8000007F800000
DATA expconst32<>+456(SB)/8, $0x7F8000007F800000
DATA expconst32<>+464(SB)/8, $0x7F8000007F800000
DATA expconst32<>+472(SB)/8, $0x7F8000007F800000
DATA expconst32<>+480(SB)/8, $0x0000007F0000007F
DATA expconst32<>+488(SB)/8, $0x0000007F0000007F
DATA expconst32<>+496(SB)/8, $0x0000007F0000007F
DATA expconst32<>+504(SB)/8, $0x0000007F0000007F
GLOBL expconst32<>(SB), RODATA|NOPTR, $512

// Lane-enable masks for the <8 remainder: entry r has the first r
// 4-byte lanes fully set (entry 0 unused, kept for direct indexing).
DATA expmask32<>+0(SB)/8, $0x0000000000000000
DATA expmask32<>+8(SB)/8, $0x0000000000000000
DATA expmask32<>+16(SB)/8, $0x0000000000000000
DATA expmask32<>+24(SB)/8, $0x0000000000000000
DATA expmask32<>+32(SB)/8, $0x00000000FFFFFFFF
DATA expmask32<>+40(SB)/8, $0x0000000000000000
DATA expmask32<>+48(SB)/8, $0x0000000000000000
DATA expmask32<>+56(SB)/8, $0x0000000000000000
DATA expmask32<>+64(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA expmask32<>+72(SB)/8, $0x0000000000000000
DATA expmask32<>+80(SB)/8, $0x0000000000000000
DATA expmask32<>+88(SB)/8, $0x0000000000000000
DATA expmask32<>+96(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA expmask32<>+104(SB)/8, $0x00000000FFFFFFFF
DATA expmask32<>+112(SB)/8, $0x0000000000000000
DATA expmask32<>+120(SB)/8, $0x0000000000000000
DATA expmask32<>+128(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA expmask32<>+136(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA expmask32<>+144(SB)/8, $0x0000000000000000
DATA expmask32<>+152(SB)/8, $0x0000000000000000
DATA expmask32<>+160(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA expmask32<>+168(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA expmask32<>+176(SB)/8, $0x00000000FFFFFFFF
DATA expmask32<>+184(SB)/8, $0x0000000000000000
DATA expmask32<>+192(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA expmask32<>+200(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA expmask32<>+208(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA expmask32<>+216(SB)/8, $0x0000000000000000
DATA expmask32<>+224(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA expmask32<>+232(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA expmask32<>+240(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA expmask32<>+248(SB)/8, $0x00000000FFFFFFFF
GLOBL expmask32<>(SB), RODATA|NOPTR, $256

// EXPLANE32 computes P = exp32(V) lanewise. V is consumed; KD, R, P, S
// are scratch. Y9 and Y15 are never touched, so the caller can hold
// the remainder mask and the broadcast shift across invocations.
// Out-of-range and NaN lanes run the arithmetic path with garbage and
// are overwritten by the final two blends, exactly like the twin's
// early returns.
#define EXPLANE32(V, KD, R, P, S) \
	VMULPS       expconst32<>+288(SB), V, KD  \ // v*invLn2
	VROUNDPS     $0, KD, KD                   \ // kd = roundeven
	VMOVAPS      V, R                         \
	VFNMADD231PS expconst32<>+320(SB), KD, R  \ // r = v - kd*ln2Hi
	VFNMADD231PS expconst32<>+352(SB), KD, R  \ // r -= kd*ln2Lo
	VMOVUPS      expconst32<>+256(SB), P      \ // p = c8
	VFMADD213PS  expconst32<>+224(SB), R, P   \ // p = p*r + c7
	VFMADD213PS  expconst32<>+192(SB), R, P   \
	VFMADD213PS  expconst32<>+160(SB), R, P   \
	VFMADD213PS  expconst32<>+128(SB), R, P   \
	VFMADD213PS  expconst32<>+96(SB), R, P    \
	VFMADD213PS  expconst32<>+64(SB), R, P    \
	VFMADD213PS  expconst32<>+32(SB), R, P    \
	VFMADD213PS  expconst32<>+0(SB), R, P     \ // p = exp(r)
	VCVTPS2DQ    KD, KD                       \ // k (int32 lanes)
	VPSRAD       $1, KD, S                    \ // q1 = k>>1
	VPSUBD       S, KD, KD                    \ // q2 = k-q1
	VPADDD       expconst32<>+480(SB), S, S   \
	VPSLLD       $23, S, S                    \ // 2^q1
	VMULPS       S, P, P                      \
	VPADDD       expconst32<>+480(SB), KD, KD \
	VPSLLD       $23, KD, KD                  \ // 2^q2
	VMULPS       KD, P, P                     \
	VCMPPS       $5, expconst32<>+384(SB), V, KD \ // !(v < expHi): overflow|NaN
	VMULPS       expconst32<>+448(SB), V, R   \ // v*Inf
	VBLENDVPS    KD, R, P, P                  \
	VCMPPS       $2, expconst32<>+416(SB), V, KD \ // v <= expLo: flush
	VXORPS       R, R, R                      \
	VBLENDVPS    KD, R, P, P

// func expShift32AVX2(dst, x []float32, shift float32)
TEXT ·expShift32AVX2(SB), NOSPLIT, $0-52
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	VBROADCASTSS shift+48(FP), Y15
	MOVQ         CX, BX
	ANDQ         $-16, BX
	XORQ         AX, AX
	CMPQ         BX, $0
	JE           e8

e16:
	// Two vectors per step: the two EXPLANE32 chains share no
	// registers, so out-of-order renaming overlaps their FMA latency.
	VMOVUPS (SI)(AX*4), Y0
	VMOVUPS 32(SI)(AX*4), Y1
	VSUBPS  Y15, Y0, Y0       // v = x - shift
	VSUBPS  Y15, Y1, Y1
	EXPLANE32(Y0, Y2, Y4, Y6, Y8)
	EXPLANE32(Y1, Y3, Y5, Y7, Y10)
	VMOVUPS Y6, (DI)(AX*4)
	VMOVUPS Y7, 32(DI)(AX*4)
	ADDQ    $16, AX
	CMPQ    AX, BX
	JLT     e16

e8:
	MOVQ CX, DX
	SUBQ AX, DX               // remaining 0..15
	CMPQ DX, $8
	JLT  etail
	VMOVUPS (SI)(AX*4), Y0
	VSUBPS  Y15, Y0, Y0
	EXPLANE32(Y0, Y2, Y4, Y6, Y8)
	VMOVUPS Y6, (DI)(AX*4)
	ADDQ    $8, AX
	SUBQ    $8, DX

etail:
	TESTQ DX, DX
	JE    edone
	SHLQ  $5, DX              // remainder * 32 bytes per mask row
	LEAQ  expmask32<>(SB), R8
	VMOVDQU    (R8)(DX*1), Y9 // lane-enable mask
	VMASKMOVPS (SI)(AX*4), Y9, Y0
	VSUBPS     Y15, Y0, Y0
	EXPLANE32(Y0, Y2, Y4, Y6, Y8)
	VMASKMOVPS Y6, Y9, (DI)(AX*4)

edone:
	VZEROUPPER
	RET

// func axpy432AVX2(a0, a1, a2, a3 float32, x0, x1, x2, x3, y []float32)
//
// Fused four-coefficient float32 accumulation: per element exactly
// four sequential axpyTo32AVX2 passes (same bits — see axpy4FMA),
// fused so y is loaded and stored once; two vectors per step keep the
// dependent four-FMA chains pipelined. The scalar tail chains the same
// four FMAs.
TEXT ·axpy432AVX2(SB), NOSPLIT, $0-136
	VBROADCASTSS a0+0(FP), Y0
	VBROADCASTSS a1+4(FP), Y1
	VBROADCASTSS a2+8(FP), Y2
	VBROADCASTSS a3+12(FP), Y3
	MOVQ         x0_base+16(FP), R8
	MOVQ         x1_base+40(FP), R9
	MOVQ         x2_base+64(FP), R10
	MOVQ         x3_base+88(FP), R11
	MOVQ         y_base+112(FP), DI
	MOVQ         y_len+120(FP), CX
	MOVQ         CX, BX
	ANDQ         $-16, BX
	XORQ         AX, AX
	CMPQ         BX, $0
	JE           a4tail

a4loop:
	VMOVUPS     (DI)(AX*4), Y4
	VMOVUPS     32(DI)(AX*4), Y5
	VFMADD231PS (R8)(AX*4), Y0, Y4
	VFMADD231PS 32(R8)(AX*4), Y0, Y5
	VFMADD231PS (R9)(AX*4), Y1, Y4
	VFMADD231PS 32(R9)(AX*4), Y1, Y5
	VFMADD231PS (R10)(AX*4), Y2, Y4
	VFMADD231PS 32(R10)(AX*4), Y2, Y5
	VFMADD231PS (R11)(AX*4), Y3, Y4
	VFMADD231PS 32(R11)(AX*4), Y3, Y5
	VMOVUPS     Y4, (DI)(AX*4)
	VMOVUPS     Y5, 32(DI)(AX*4)
	ADDQ        $16, AX
	CMPQ        AX, BX
	JLT         a4loop

a4tail:
	CMPQ        AX, CX
	JGE         a4done
	VMOVSS      (DI)(AX*4), X4
	VFMADD231SS (R8)(AX*4), X0, X4
	VFMADD231SS (R9)(AX*4), X1, X4
	VFMADD231SS (R10)(AX*4), X2, X4
	VFMADD231SS (R11)(AX*4), X3, X4
	VMOVSS      X4, (DI)(AX*4)
	INCQ        AX
	JMP         a4tail

a4done:
	VZEROUPPER
	RET

// func cvt64to32AVX2(dst []float32, x []float64)
//
// dst[i] = float32(x[i]) for i < len(x): VCVTPD2PS on two 4-lane
// blocks per step (8 elements), scalar VCVTSD2SS remainder. One IEEE
// rounding per element — bit-identical to the Go conversion, so this
// kernel binds on CPU capability, not kernel class.
TEXT ·cvt64to32AVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ BX, $0
	JEQ  c32tail

c32loop:
	VCVTPD2PSY (SI)(AX*8), X0
	VCVTPD2PSY 32(SI)(AX*8), X1
	VMOVUPS    X0, (DI)(AX*4)
	VMOVUPS    X1, 16(DI)(AX*4)
	ADDQ       $8, AX
	CMPQ       AX, BX
	JLT        c32loop

c32tail:
	CMPQ AX, CX
	JGE  c32done
	VMOVSD    (SI)(AX*8), X0
	VCVTSD2SS X0, X0, X0
	VMOVSS    X0, (DI)(AX*4)
	INCQ      AX
	JMP       c32tail

c32done:
	VZEROUPPER
	RET

// func cvt32to64AVX2(dst []float64, x []float32)
//
// dst[i] = float64(x[i]) for i < len(x): VCVTPS2PD widening, always
// exact.
TEXT ·cvt32to64AVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ BX, $0
	JEQ  c64tail

c64loop:
	VCVTPS2PD (SI)(AX*4), Y0
	VCVTPS2PD 16(SI)(AX*4), Y1
	VMOVUPD   Y0, (DI)(AX*8)
	VMOVUPD   Y1, 32(DI)(AX*8)
	ADDQ      $8, AX
	CMPQ      AX, BX
	JLT       c64loop

c64tail:
	CMPQ AX, CX
	JGE  c64done
	VMOVSS    (SI)(AX*4), X0
	VCVTSS2SD X0, X0, X0
	VMOVSD    X0, (DI)(AX*8)
	INCQ      AX
	JMP       c64tail

c64done:
	VZEROUPPER
	RET

// func round32AVX2(x []float64)
//
// x[i] = float64(float32(x[i])) in place: the storage-regime rounding
// chokepoint (AverageInto, ProjectW). Narrow then widen, 8 elements
// per step.
TEXT ·round32AVX2(SB), NOSPLIT, $0-24
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ BX, $0
	JEQ  r32tail

r32loop:
	VCVTPD2PSY (SI)(AX*8), X0
	VCVTPD2PSY 32(SI)(AX*8), X1
	VCVTPS2PD  X0, Y0
	VCVTPS2PD  X1, Y1
	VMOVUPD    Y0, (SI)(AX*8)
	VMOVUPD    Y1, 32(SI)(AX*8)
	ADDQ       $8, AX
	CMPQ       AX, BX
	JLT        r32loop

r32tail:
	CMPQ AX, CX
	JGE  r32done
	VMOVSD    (SI)(AX*8), X0
	VCVTSD2SS X0, X0, X0
	VCVTSS2SD X0, X0, X0
	VMOVSD    X0, (SI)(AX*8)
	INCQ      AX
	JMP       r32tail

r32done:
	VZEROUPPER
	RET

// func mean32AVX2(dst []float32, inv float32, vecs [][]float32)
//
// The mean with its accumulators in registers: per element e,
// acc = +0, then acc = fma32(1, vecs[j][e], acc) for j in order (the
// operand roles of axpyTo with a = 1), then dst[e] = acc·inv by
// VMULPS. Elements go 32 per step in four accumulators, then 8 per
// step, then one at a time. Each step loads every input before it
// stores dst, so dst may alias an input.
TEXT ·mean32AVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DX
	MOVQ         dst_len+8(FP), CX
	VBROADCASTSS inv+24(FP), Y15
	MOVQ         vecs_base+32(FP), R10
	MOVQ         vecs_len+40(FP), R9
	LEAQ         (R9)(R9*2), R9
	LEAQ         (R10)(R9*8), R9 // end of the vecs headers
	MOVL         $0x3f800000, R8
	MOVQ         R8, X14
	VBROADCASTSS X14, Y14       // 1.0
	MOVQ         CX, BX
	ANDQ         $-32, BX
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
	VFMADD231PS (R13)(AX*4), Y14, Y0
	VFMADD231PS 32(R13)(AX*4), Y14, Y1
	VFMADD231PS 64(R13)(AX*4), Y14, Y2
	VFMADD231PS 96(R13)(AX*4), Y14, Y3
	ADDQ        $24, R12
	JMP         mbigk

mbigs:
	VMULPS  Y15, Y0, Y0
	VMULPS  Y15, Y1, Y1
	VMULPS  Y15, Y2, Y2
	VMULPS  Y15, Y3, Y3
	VMOVUPS Y0, (DX)(AX*4)
	VMOVUPS Y1, 32(DX)(AX*4)
	VMOVUPS Y2, 64(DX)(AX*4)
	VMOVUPS Y3, 96(DX)(AX*4)
	ADDQ    $32, AX
	JMP     mbig

mlane:
	MOVQ CX, BX
	ANDQ $-8, BX

mlanel:
	CMPQ   AX, BX
	JGE    mone
	VXORPS Y0, Y0, Y0
	MOVQ   R10, R12

mlanek:
	CMPQ        R12, R9
	JGE         mlanes
	MOVQ        (R12), R13
	VFMADD231PS (R13)(AX*4), Y14, Y0
	ADDQ        $24, R12
	JMP         mlanek

mlanes:
	VMULPS  Y15, Y0, Y0
	VMOVUPS Y0, (DX)(AX*4)
	ADDQ    $8, AX
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
	VFMADD231SS (R13)(AX*4), X14, X0
	ADDQ        $24, R12
	JMP         monek

mones:
	VMULSS X15, X0, X0
	VMOVSS X0, (DX)(AX*4)
	INCQ   AX
	JMP    mone

mdone:
	VZEROUPPER
	RET
