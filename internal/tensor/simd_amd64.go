//go:build amd64

package tensor

import "repro/internal/tensor/cpufeat"

// Assembly kernel declarations and the per-arch dispatch table. SSE2 is
// part of the amd64 baseline, so the sse2 rung always binds to assembly
// here; the avx2 rung binds to the AVX2+FMA assembly only when the
// CPUID probe confirms both features (plus OS YMM state), and otherwise
// falls back to the bit-identical math.FMA twins.

// SSE2 kernels (simd_amd64.s). Each routine performs the identical
// IEEE-754 operations of its *Ref counterpart: the two 128-bit
// accumulators hold the reference code's four partial sums lane for
// lane, horizontal reduction follows the same left-to-right order, and
// the tail loop is scalar — so the results are bitwise equal to the
// pure-Go path on every input (see TestKernelsMatchReference).

//go:noescape
func dotSSE2(x, y []float64) float64

// axpyToSSE2 computes dst = y + a*x; Axpy passes y as dst.
//
//go:noescape
func axpyToSSE2(dst []float64, a float64, x, y []float64)

//go:noescape
func dot2SSE2(x, y0, y1 []float64) (r0, r1 float64)

// AVX2+FMA kernels (simd_avx2_amd64.s), bit-identical to the math.FMA
// twins in simd_fma_ref.go. Callable only when cpufeat reports
// AVX2+FMA.

//go:noescape
func dotAVX2(x, y []float64) float64

// axpyToAVX2 computes dst = fma(a, x, y); Axpy passes y as dst.
//
//go:noescape
func axpyToAVX2(dst []float64, a float64, x, y []float64)

//go:noescape
func dot4AVX2(x, y0, y1, y2, y3 []float64) (r0, r1, r2, r3 float64)

//go:noescape
func axpy4AVX2(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64)

// expShiftAVX2 computes dst[i] = expFMA(x[i]-shift) for i < len(x),
// 4 lanes per step with a masked remainder, so it covers every element
// itself (no scalar tail in Go). dst must have at least len(x)
// elements; the wrapper below trims it.
//
//go:noescape
func expShiftAVX2(dst, x []float64, shift float64)

// expShiftAsm adapts the assembly to the kernelSet signature.
func expShiftAsm(dst, x []float64, shift float64) {
	if len(x) == 0 {
		return
	}
	expShiftAVX2(dst[:len(x)], x, shift)
}

// sumExpShiftAsm materializes expFMA(x[i]-shift) through the assembly
// in stack-buffer chunks and sums sequentially in index order — the
// identical elementwise-then-ordered-sum bits of sumExpShiftFMARef. The
// common case (a logits row, a handful of classes) takes a small
// buffer: Go zero-initializes the whole array on entry, so sizing it
// for the large case would spend a 2KB memclr per 10-element row.
func sumExpShiftAsm(x []float64, shift float64) float64 {
	if len(x) == 0 {
		return 0
	}
	if len(x) <= 32 {
		var buf [32]float64
		expShiftAVX2(buf[:len(x)], x, shift)
		s := 0.0
		for _, e := range buf[:len(x)] {
			s += e
		}
		return s
	}
	return sumExpShiftAsmChunked(x, shift)
}

func sumExpShiftAsmChunked(x []float64, shift float64) float64 {
	var buf [256]float64
	s := 0.0
	for len(x) > 0 {
		c := len(x)
		if c > len(buf) {
			c = len(buf)
		}
		expShiftAVX2(buf[:c], x[:c], shift)
		for _, e := range buf[:c] {
			s += e
		}
		x = x[c:]
	}
	return s
}

// haveAVX2Asm reports whether the avx2 rung can run its assembly on
// this machine (otherwise the rung is served by the pure-Go twins).
func haveAVX2Asm() bool { return cpufeat.X86.HasAVX2 && cpufeat.X86.HasFMA }

// backingAsm reports whether class c runs its SIMD assembly on this
// CPU (false means the rung is served by the pure-Go twins). SSE2 is
// amd64 baseline, so only the AVX2-family rungs depend on the probe.
func backingAsm(c KernelClass) bool {
	switch c {
	case KernelAVX2, KernelAVX2F32:
		return haveAVX2Asm()
	case KernelSSE2:
		return true
	}
	return false
}

// defaultKernel picks the fastest rung the CPU supports.
func defaultKernel() KernelClass {
	if haveAVX2Asm() {
		return KernelAVX2
	}
	return KernelSSE2
}

// kernelsFor binds a class to its amd64 implementations. The avx2f32
// class binds the avx2 float64 set: its residual float64 arithmetic is
// defined to be the FMA regime's, and the float32 hot path dispatches
// separately through kernels32 (f32.go, simd_f32_amd64.go).
func kernelsFor(c KernelClass) kernelSet[float64] {
	switch c {
	case KernelAVX2, KernelAVX2F32:
		if !haveAVX2Asm() {
			return fmaRefKernels()
		}
		return kernelSet[float64]{
			dot: dotAVX2, axpyTo: axpyToAVX2, dot2: dot2From(dotAVX2), dot4: dot4AVX2,
			axpy4:    axpy4AVX2,
			expShift: expShiftAsm, sumExpShift: sumExpShiftAsm,
			fuse4: true, fusedCE: true,
		}
	case KernelSSE2:
		return kernelSet[float64]{
			dot: dotSSE2, axpyTo: axpyToSSE2, dot2: dot2SSE2, dot4: dot4From(dotSSE2),
			axpy4:    axpy4From(axpyToSSE2),
			expShift: expShiftRef, sumExpShift: sumExpShiftRef,
		}
	default:
		return genericKernels()
	}
}
