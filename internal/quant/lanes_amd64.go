//go:build amd64

package quant

import (
	"repro/internal/rng"
	"repro/internal/tensor/cpufeat"
)

// useLanes selects the AVX2 bodies of the range scan and of the 8-bit
// uniform pack and unpack. It is chosen by CPU feature, not by kernel
// class: the lanes compute the scalar loops' bits, so every class codes
// alike. Tests switch it off to run the scalar loops on AVX2 machines.
var useLanes = cpufeat.X86.HasAVX2

// boundsAVX2 scans x (len a positive multiple of 4) in four lanes, each
// lane keeping the scalar loop's bounds over its own elements, and
// returns the smallest and largest lane bound. ok is false when a lane
// bound is NaN, which only a NaN first element of a lane can cause.
//
//go:noescape
func boundsAVX2(x []float64) (lo, hi float64, ok bool)

// pack8AVX2 sets code[i] = uniformGrid.code(x[i], u[i]) on the 255-level
// grid over lo and scale, four lanes at a time; len(x) is a multiple of
// 4 and len(code), len(u) >= len(x).
//
//go:noescape
func pack8AVX2(code []byte, x, u []float64, lo, scale float64)

// unpack8AVX2 sets x[i] = lo + float64(code[i])*scale, four lanes at a
// time; len(x) is a multiple of 4 and len(code) >= len(x).
//
//go:noescape
func unpack8AVX2(x []float64, code []byte, lo, scale float64)

// boundsLanes returns x's bounds over its first n = len(x) &^ 3
// elements, or n = 0 when the lanes cannot decide them: without AVX2, a
// lane whose first element is NaN, or a bound of ±0, whose sign the
// scalar loop takes from the first zero in element order.
func boundsLanes(x []float64) (lo, hi float64, n int) {
	n = len(x) &^ 3
	if !useLanes || n == 0 {
		return 0, 0, 0
	}
	lo, hi, ok := boundsAVX2(x[:n])
	if !ok || lo == 0 || hi == 0 {
		return 0, 0, 0
	}
	return lo, hi, n
}

// pack8Lanes codes the first len(x) &^ 3 elements at 8 bits, drawing
// their stream values in L1-sized chunks into a stack buffer, and
// returns how many it coded: none without AVX2.
func (g uniformGrid) pack8Lanes(code []byte, x []float64, s *rng.Stream) int {
	n := len(x) &^ 3
	if !useLanes || n == 0 {
		return 0
	}
	var u [512]float64
	for i := 0; i < n; i += len(u) {
		c := min(n-i, len(u))
		s.Float64s(u[:c])
		pack8AVX2(code[i:i+c], x[i:i+c], u[:c], g.lo, g.scale)
	}
	return n
}

// unpack8Lanes dequantizes the first len(x) &^ 3 8-bit codes and
// returns how many it did: none without AVX2.
func (g uniformGrid) unpack8Lanes(x []float64, code []byte) int {
	n := len(x) &^ 3
	if !useLanes || n == 0 {
		return 0
	}
	unpack8AVX2(x[:n], code[:n], g.lo, g.scale)
	return n
}
