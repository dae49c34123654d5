//go:build amd64

#include "textflag.h"

// AVX2 bodies of the range scan and the 8-bit uniform pack and unpack
// (lanes_amd64.go). Each lane performs the scalar loop's operations on
// its element, in the same order and with the same IEEE rounding, so the
// results are the scalar kernels' bits (TestUniformKernelsMatchReference
// and FuzzPackUniform run both paths against the reference).

// 8-bit grid constants: levels = 255.0 in four lanes, the top code 0xff
// in four dwords, and the VPSHUFB control that gathers the low byte of
// each dword into the low four bytes.
DATA quant8<>+0(SB)/8, $0x406fe00000000000
DATA quant8<>+8(SB)/8, $0x406fe00000000000
DATA quant8<>+16(SB)/8, $0x406fe00000000000
DATA quant8<>+24(SB)/8, $0x406fe00000000000
DATA quant8<>+32(SB)/8, $0x000000ff000000ff
DATA quant8<>+40(SB)/8, $0x000000ff000000ff
DATA quant8<>+48(SB)/8, $0x808080800c080400
DATA quant8<>+56(SB)/8, $0x8080808080808080
GLOBL quant8<>(SB), RODATA|NOPTR, $64

// func boundsAVX2(x []float64) (lo, hi float64, ok bool)
//
// Lane step: lo = v < lo ? v : lo and hi = v > hi ? v : hi, which is
// what VMINPD/VMAXPD compute with v as the first source, so a NaN v
// never replaces a bound, exactly as in the scalar loop. Four lane pairs
// start from the first quad and take 16 elements a step; the last
// quads go to the first pair. A bound can only be NaN if the lane's
// first element was, and then it is NaN in all four pairs.
TEXT ·boundsAVX2(SB), NOSPLIT, $0-41
	MOVQ    x_base+0(FP), SI
	MOVQ    x_len+8(FP), CX
	VMOVUPD (SI), Y0          // lo lanes
	VMOVUPD Y0, Y1            // hi lanes
	VMOVUPD Y0, Y2
	VMOVUPD Y0, Y3
	VMOVUPD Y0, Y4
	VMOVUPD Y0, Y5
	VMOVUPD Y0, Y6
	VMOVUPD Y0, Y7
	MOVQ    $4, AX
	MOVQ    CX, BX
	SUBQ    $12, BX           // 16 more elements fit while AX < len-12

b16:
	CMPQ    AX, BX
	JGE     b4
	VMOVUPD (SI)(AX*8), Y8
	VMOVUPD 32(SI)(AX*8), Y9
	VMOVUPD 64(SI)(AX*8), Y10
	VMOVUPD 96(SI)(AX*8), Y11
	VMINPD  Y0, Y8, Y0
	VMAXPD  Y1, Y8, Y1
	VMINPD  Y2, Y9, Y2
	VMAXPD  Y3, Y9, Y3
	VMINPD  Y4, Y10, Y4
	VMAXPD  Y5, Y10, Y5
	VMINPD  Y6, Y11, Y6
	VMAXPD  Y7, Y11, Y7
	ADDQ    $16, AX
	JMP     b16

b4:
	CMPQ    AX, CX
	JGE     bmerge
	VMOVUPD (SI)(AX*8), Y8
	VMINPD  Y0, Y8, Y0
	VMAXPD  Y1, Y8, Y1
	ADDQ    $4, AX
	JMP     b4

bmerge:
	VMINPD       Y2, Y0, Y0
	VMINPD       Y6, Y4, Y4
	VMINPD       Y4, Y0, Y0
	VMAXPD       Y3, Y1, Y1
	VMAXPD       Y7, Y5, Y5
	VMAXPD       Y5, Y1, Y1
	VCMPPD       $3, Y1, Y0, Y2 // unordered: a NaN lane
	VMOVMSKPD    Y2, DX
	VEXTRACTF128 $1, Y0, X2
	VMINPD       X2, X0, X0
	VPERMILPD    $1, X0, X2
	VMINSD       X2, X0, X0
	VEXTRACTF128 $1, Y1, X3
	VMAXPD       X3, X1, X1
	VPERMILPD    $1, X1, X3
	VMAXSD       X3, X1, X1
	VMOVSD       X0, lo+24(FP)
	VMOVSD       X1, hi+32(FP)
	TESTQ        DX, DX
	SETEQ        ok+40(FP)
	VZEROUPPER
	RET

// func pack8AVX2(code []byte, x, u []float64, lo, scale float64)
//
// Per quad, uniformGrid.code lane by lane: t = (v-lo)/scale,
// base = floor(t), inc = u < frac with frac = t - base (ordered, so a
// NaN frac gives 0), base clamped to levels keeping a NaN base NaN,
// truncated to int32 (NaN becomes 0x80000000), masked to 8 bits, then
// min(base + inc, 255); the four low bytes are stored as one dword.
TEXT ·pack8AVX2(SB), NOSPLIT, $0-88
	MOVQ         code_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	MOVQ         u_base+48(FP), DX
	VBROADCASTSD lo+72(FP), Y15
	VBROADCASTSD scale+80(FP), Y14
	VMOVUPD      quant8<>+0(SB), Y13  // levels
	VMOVDQU      quant8<>+32(SB), X12 // 0xff
	VMOVDQU      quant8<>+48(SB), X11 // byte gather
	XORQ         AX, AX
	CMPQ         CX, $0
	JE           pdone

ploop:
	VMOVUPD      (SI)(AX*8), Y0
	VSUBPD       Y15, Y0, Y0            // v - lo
	VDIVPD       Y14, Y0, Y0            // t
	VROUNDPD     $1, Y0, Y1             // base = floor(t)
	VSUBPD       Y1, Y0, Y0             // frac
	VCMPPD       $0x1e, (DX)(AX*8), Y0, Y2 // frac > u, ordered: inc mask
	VMINPD       Y1, Y13, Y1            // levels < base ? levels : base
	VCVTTPD2DQY  Y1, X1
	VPAND        X12, X1, X1
	VEXTRACTF128 $1, Y2, X3
	VSHUFPS      $0x88, X3, X2, X2      // one dword per lane: -1 or 0
	VPSUBD       X2, X1, X1             // base + inc
	VPMINUD      X12, X1, X1
	VPSHUFB      X11, X1, X1
	VMOVD        X1, (DI)(AX*1)
	ADDQ         $4, AX
	CMPQ         AX, CX
	JLT          ploop

pdone:
	VZEROUPPER
	RET

// func unpack8AVX2(x []float64, code []byte, lo, scale float64)
//
// x = lo + float64(code)*scale as a separate multiply and add, the
// scalar value's two roundings (not one fused multiply-add).
TEXT ·unpack8AVX2(SB), NOSPLIT, $0-64
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), CX
	MOVQ         code_base+24(FP), SI
	VBROADCASTSD lo+48(FP), Y15
	VBROADCASTSD scale+56(FP), Y14
	XORQ         AX, AX
	CMPQ         CX, $0
	JE           udone

uloop:
	VPMOVZXBD (SI)(AX*1), X0
	VCVTDQ2PD X0, Y0
	VMULPD    Y14, Y0, Y0
	VADDPD    Y15, Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	CMPQ      AX, CX
	JLT       uloop

udone:
	VZEROUPPER
	RET
