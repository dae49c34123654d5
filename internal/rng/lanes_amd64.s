//go:build amd64

#include "textflag.h"

// SplitMix64 in four AVX2 lanes. Lane j of step k holds the state of
// draw 4k+j, state + (4k+j+1)·gamma, and mixes it exactly as Uint64
// does. AVX2 has no 64-bit multiply, so each product is assembled from
// three 32×32→64 VPMULUDQ partial products (the high×high term only
// reaches bits 64 and up). The 53 kept bits z >> 11 are converted to
// float64 without a 64-bit convert either: a = z >> 32 and the 21 bits
// b below it are planted in the mantissas of 2^20 and 2^-12, and
// (2^20 + a·2^-32 - (2^20 + 2^-12)) + (2^-12 + b·2^-53) is exact at
// every step, so the lane yields float64(z>>11) / 2^53 bit for bit.

// Constants, each replicated to four lanes: the two multipliers and
// their high halves, the lane offsets gamma..4·gamma, the step 4·gamma,
// the magic 2^-12, the mask of bits 11..31, the magic 2^20 and the bias
// 2^20 + 2^-12.
DATA splitmix<>+0(SB)/8, $0xbf58476d1ce4e5b9
DATA splitmix<>+8(SB)/8, $0xbf58476d1ce4e5b9
DATA splitmix<>+16(SB)/8, $0xbf58476d1ce4e5b9
DATA splitmix<>+24(SB)/8, $0xbf58476d1ce4e5b9
DATA splitmix<>+32(SB)/8, $0xbf58476d
DATA splitmix<>+40(SB)/8, $0xbf58476d
DATA splitmix<>+48(SB)/8, $0xbf58476d
DATA splitmix<>+56(SB)/8, $0xbf58476d
DATA splitmix<>+64(SB)/8, $0x94d049bb133111eb
DATA splitmix<>+72(SB)/8, $0x94d049bb133111eb
DATA splitmix<>+80(SB)/8, $0x94d049bb133111eb
DATA splitmix<>+88(SB)/8, $0x94d049bb133111eb
DATA splitmix<>+96(SB)/8, $0x94d049bb
DATA splitmix<>+104(SB)/8, $0x94d049bb
DATA splitmix<>+112(SB)/8, $0x94d049bb
DATA splitmix<>+120(SB)/8, $0x94d049bb
DATA splitmix<>+128(SB)/8, $0x9e3779b97f4a7c15
DATA splitmix<>+136(SB)/8, $0x3c6ef372fe94f82a
DATA splitmix<>+144(SB)/8, $0xdaa66d2c7ddf743f
DATA splitmix<>+152(SB)/8, $0x78dde6e5fd29f054
DATA splitmix<>+160(SB)/8, $0x78dde6e5fd29f054
DATA splitmix<>+168(SB)/8, $0x78dde6e5fd29f054
DATA splitmix<>+176(SB)/8, $0x78dde6e5fd29f054
DATA splitmix<>+184(SB)/8, $0x78dde6e5fd29f054
DATA splitmix<>+192(SB)/8, $0x3f30000000000000
DATA splitmix<>+200(SB)/8, $0x3f30000000000000
DATA splitmix<>+208(SB)/8, $0x3f30000000000000
DATA splitmix<>+216(SB)/8, $0x3f30000000000000
DATA splitmix<>+224(SB)/8, $0x00000000fffff800
DATA splitmix<>+232(SB)/8, $0x00000000fffff800
DATA splitmix<>+240(SB)/8, $0x00000000fffff800
DATA splitmix<>+248(SB)/8, $0x00000000fffff800
DATA splitmix<>+256(SB)/8, $0x4130000000000000
DATA splitmix<>+264(SB)/8, $0x4130000000000000
DATA splitmix<>+272(SB)/8, $0x4130000000000000
DATA splitmix<>+280(SB)/8, $0x4130000000000000
DATA splitmix<>+288(SB)/8, $0x4130000000100000
DATA splitmix<>+296(SB)/8, $0x4130000000100000
DATA splitmix<>+304(SB)/8, $0x4130000000100000
DATA splitmix<>+312(SB)/8, $0x4130000000100000
GLOBL splitmix<>(SB), RODATA|NOPTR, $320

// MUL64 sets A = A·M mod 2^64 lanewise, with MH = M>>32; T1 and T2 are
// scratch: A·M = lo(A)·lo(M) + ((hi(A)·lo(M) + lo(A)·hi(M)) << 32).
// VPMULUDQ reads the low dword of each lane, so VPSHUFD $0xf5 (copy
// each high dword down) serves as hi(A).
#define MUL64(A, M, MH, T1, T2) \
	VPSHUFD  $0xf5, A, T1 \
	VPMULUDQ M, T1, T1  \
	VPMULUDQ MH, A, T2  \
	VPADDQ   T2, T1, T1 \
	VPSLLQ   $32, T1, T1 \
	VPMULUDQ M, A, A    \
	VPADDQ   T1, A, A

// func float64sAVX2(dst []float64, state uint64)
TEXT ·float64sAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	VPBROADCASTQ state+24(FP), Y0
	VPADDQ       splitmix<>+128(SB), Y0, Y0 // lane j: state + (j+1)·gamma
	VMOVDQU      splitmix<>+160(SB), Y15    // step 4·gamma
	VMOVDQU      splitmix<>+0(SB), Y14
	VMOVDQU      splitmix<>+32(SB), Y13
	VMOVDQU      splitmix<>+64(SB), Y12
	VMOVDQU      splitmix<>+96(SB), Y11
	VMOVDQU      splitmix<>+192(SB), Y8
	VMOVDQU      splitmix<>+224(SB), Y10
	VMOVDQU      splitmix<>+256(SB), Y9
	VMOVDQU      splitmix<>+288(SB), Y7
	XORQ         AX, AX
	CMPQ         CX, $0
	JE           done

loop:
	VPSRLQ   $30, Y0, Y1
	VPXOR    Y0, Y1, Y1         // z ^= z >> 30
	MUL64(Y1, Y14, Y13, Y2, Y3)
	VPSRLQ   $27, Y1, Y2
	VPXOR    Y1, Y2, Y1         // z ^= z >> 27
	MUL64(Y1, Y12, Y11, Y2, Y3)
	VPSRLQ   $31, Y1, Y2
	VPXOR    Y1, Y2, Y1         // z ^= z >> 31: the draw
	VPSHUFD  $0xf5, Y1, Y2
	VPBLENDD $0xaa, Y9, Y2, Y2  // 2^20 + a·2^-32, a = z >> 32
	VPAND    Y10, Y1, Y3
	VPOR     Y8, Y3, Y3         // 2^-12 + b·2^-53, b = z >> 11 & (2^21 - 1)
	VSUBPD   Y7, Y2, Y2         // a·2^-32 - 2^-12
	VADDPD   Y2, Y3, Y3         // (z >> 11) / 2^53
	VMOVUPD  Y3, (DI)(AX*8)
	VPADDQ   Y15, Y0, Y0
	ADDQ     $4, AX
	CMPQ     AX, CX
	JLT      loop

done:
	VZEROUPPER
	RET
