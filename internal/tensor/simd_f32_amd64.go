//go:build amd64

package tensor

// Float32 assembly kernel declarations and the tier binding. The
// avx2f32 tier rebinds kernels32 to the 8-wide AVX2+FMA float32
// assembly when the CPUID probe confirms the features, and otherwise
// keeps the bit-identical fma32 pure-Go twins (simd_f32_ref.go) — same
// contract as the float64 avx2 tier.

// Float32 AVX2+FMA kernels (simd_avx2f32_amd64.s), bit-identical to
// the fma32 twins: VFMADD231PS rounds a·b+c once to float32, exactly
// what fma32 computes via round-to-odd.

//go:noescape
func dot32AVX2(x, y []float32) float32

//go:noescape
func axpy32AVX2(a float32, x, y []float32)

// axpyTo32Asm adapts the in-place assembly to the kernelSet's axpyTo
// form, dst = y + a*x: copy y into dst, then accumulate in place. A dst
// that is x would be clobbered by the copy, so it runs the twin.
func axpyTo32Asm(dst []float32, a float32, x, y []float32) {
	if len(x) > 0 && &dst[0] == &x[0] && &dst[0] != &y[0] {
		axpyTo32Ref(dst, a, x, y)
		return
	}
	copy(dst, y)
	axpy32AVX2(a, x, dst)
}

//go:noescape
func dot432AVX2(x, y0, y1, y2, y3 []float32) (r0, r1, r2, r3 float32)

//go:noescape
func axpy432AVX2(a0, a1, a2, a3 float32, x0, x1, x2, x3, y []float32)

// expShift32AVX2 computes dst[i] = exp32(x[i]-shift) for i < len(x),
// 8 lanes per step with a masked remainder. dst must have at least
// len(x) elements; the wrapper below trims it.
//
//go:noescape
func expShift32AVX2(dst, x []float32, shift float32)

// expShift32Asm adapts the assembly to the kernelSet signature.
func expShift32Asm(dst, x []float32, shift float32) {
	if len(x) == 0 {
		return
	}
	expShift32AVX2(dst[:len(x)], x, shift)
}

// sumExpShift32Asm materializes exp32(x[i]-shift) through the assembly
// in stack-buffer chunks and sums sequentially in index order — the
// identical elementwise-then-ordered-sum bits of sumExpShift32Ref.
// Calling expShift32AVX2 (//go:noescape) directly keeps the buffer on
// the stack; the small-buffer fast path avoids a large memclr on the
// common logits-row case.
func sumExpShift32Asm(x []float32, shift float32) float32 {
	if len(x) == 0 {
		return 0
	}
	if len(x) <= 32 {
		var buf [32]float32
		expShift32AVX2(buf[:len(x)], x, shift)
		s := float32(0)
		for _, e := range buf[:len(x)] {
			s += e
		}
		return s
	}
	return sumExpShift32AsmChunked(x, shift)
}

func sumExpShift32AsmChunked(x []float32, shift float32) float32 {
	var buf [256]float32
	s := float32(0)
	for len(x) > 0 {
		c := len(x)
		if c > len(buf) {
			c = len(buf)
		}
		expShift32AVX2(buf[:c], x[:c], shift)
		for _, e := range buf[:c] {
			s += e
		}
		x = x[c:]
	}
	return s
}

// Regime-boundary conversion kernels (VCVTPD2PS / VCVTPS2PD): a single
// IEEE conversion per element, bit-identical to the scalar loops on
// every input, so they bind on CPU capability alone (see f32.go).

//go:noescape
func cvt64to32AVX2(dst []float32, x []float64)

//go:noescape
func cvt32to64AVX2(dst []float64, x []float32)

//go:noescape
func round32AVX2(x []float64)

func init() {
	if haveAVX2Asm() {
		kernels32 = kernelSet[float32]{
			dot: dot32AVX2, axpyTo: axpyTo32Asm, dot2: dot2From(dot32AVX2), dot4: dot432AVX2,
			axpy4: axpy432AVX2, expShift: expShift32Asm, sumExpShift: sumExpShift32Asm,
			fuse4: true, fusedCE: true,
		}
		cvtTo32 = cvt64to32AVX2
		cvtTo64 = cvt32to64AVX2
		roundTo32 = round32AVX2
	}
}
