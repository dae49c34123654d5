//go:build amd64

package tensor

// Float32 assembly kernel declarations of the avx2f32 tier, bound by
// fmaKernels32 (simd_amd64.go) when the CPUID probe confirms AVX2+FMA,
// and the regime-boundary conversion kernels.

// Float32 AVX2+FMA kernels (simd_avx2f32_amd64.s), bit-identical to
// the fma32 twins: VFMADD231PS rounds a·b+c once to float32, exactly
// what fma32 computes via round-to-odd.

//go:noescape
func dot32AVX2(x, y []float32) float32

// axpyTo32AVX2 computes dst = fma32(a, x, y); Axpy passes y as dst.
//
//go:noescape
func axpyTo32AVX2(dst []float32, a float32, x, y []float32)

//go:noescape
func dot432AVX2(x, y0, y1, y2, y3 []float32) (r0, r1, r2, r3 float32)

//go:noescape
func axpy432AVX2(a0, a1, a2, a3 float32, x0, x1, x2, x3, y []float32)

// mean32AVX2 is the float32 tier's mean, its accumulators in YMM
// registers.
//
//go:noescape
func mean32AVX2(dst []float32, inv float32, vecs [][]float32)

// stepRows32AVX2 is the float32 tier's stepRows on its assembly,
// composed as stepRowsAVX2 is: per row and column chunk of a zeroed
// stack buffer, the nonzero coefficients' axpy4 quads and axpyTo tails,
// then the AxpyTo epilogue, through direct calls so the buffer stays on
// the stack.
func stepRows32AVX2(dst, w Mat[float32], eta, alpha float32, a Mat[float32], ys [][]float32) {
	var buf [stepChunk]float32
	for i := 0; i < w.Rows; i++ {
		wr, dr := w.Row(i), dst.Row(i)
		for c0 := 0; c0 < len(wr); c0 += stepChunk {
			c1 := min(c0+stepChunk, len(wr))
			acc := buf[:c1-c0]
			clear(acc)
			var cf [4]float32
			var rows [4][]float32
			nq := 0
			for k, y := range ys {
				v := a.Data[k*a.Cols+i]
				if v == 0 {
					continue
				}
				cf[nq], rows[nq] = alpha*v, y[c0:c1]
				if nq++; nq == 4 {
					axpy432AVX2(cf[0], cf[1], cf[2], cf[3], rows[0], rows[1], rows[2], rows[3], acc)
					nq = 0
				}
			}
			for q := range nq {
				axpyTo32AVX2(acc, cf[q], rows[q], acc)
			}
			axpyTo32AVX2(dr[c0:c1], -eta, acc, wr[c0:c1])
		}
	}
}

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
// identical elementwise-then-ordered-sum bits of sumExpShiftFMA.
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

// conversionKernels returns the AVX2 conversions where the CPU has them,
// else the scalar loops.
func conversionKernels() (func([]float32, []float64), func([]float64, []float32), func([]float64)) {
	if haveAVX2Asm() {
		return cvt64to32AVX2, cvt32to64AVX2, round32AVX2
	}
	return round64to32Ref, widen32to64Ref, round32Ref
}
