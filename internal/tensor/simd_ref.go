package tensor

import "math"

// Portable reference implementations of the BLAS-1 kernels. On amd64
// the exported entry points dispatch to the SSE2 assembly in
// simd_amd64.s instead; these bodies remain the semantic definition —
// the assembly reproduces their floating-point operation order exactly,
// lane for lane (asserted bitwise by TestKernelsMatchReference) — and
// serve as the fallback for every other architecture.

// dotRef is the scalar Dot kernel: four partial sums over a 4-way
// unrolled loop, combined left-to-right, then a sequential tail.
func dotRef(x, y []float64) float64 {
	n := len(x)
	y = y[:n] // lets the compiler drop the per-iteration bound checks
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += x[i] * y[i]
	}
	return s
}

// axpyToRef is the scalar Axpy kernel with a destination:
// dst = y + a*x, elementwise. The explicit float64 conversion rounds the
// product before the add, so no compiler may fuse the two into an FMA
// (the Go spec allows that for an unconverted x*y + z, and the non-amd64
// backends do it). dst may alias x or y; partial overlap is not
// supported.
func axpyToRef(dst []float64, a float64, x, y []float64) {
	n := len(x)
	y = y[:n]
	dst = dst[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] = y[i] + float64(a*x[i])
		dst[i+1] = y[i+1] + float64(a*x[i+1])
		dst[i+2] = y[i+2] + float64(a*x[i+2])
		dst[i+3] = y[i+3] + float64(a*x[i+3])
	}
	for ; i < n; i++ {
		dst[i] = y[i] + float64(a*x[i])
	}
}

// expShiftRef is the non-FMA shifted-exponential kernel:
// dst[i] = math.Exp(x[i]-shift), elementwise in index order. It is the
// exact arithmetic of the pre-dispatch LogSumExp/Softmax loops, so the
// generic and sse2 rungs keep their historical bits.
func expShiftRef(dst, x []float64, shift float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = math.Exp(v - shift)
	}
}

// sumExpShiftRef returns sum_i math.Exp(x[i]-shift), accumulated
// sequentially in index order — bit for bit the historical LogSumExp
// inner loop.
func sumExpShiftRef(x []float64, shift float64) float64 {
	s := 0.0
	for _, v := range x {
		s += math.Exp(v - shift)
	}
	return s
}

// dot2Ref is the scalar fused two-output dot: both results accumulate
// in exactly dotRef's order while sharing the loads of x.
func dot2Ref(x, y0, y1 []float64) (r0, r1 float64) {
	n := len(x)
	y0 = y0[:n]
	y1 = y1[:n]
	var a0, a1, a2, a3 float64
	var b0, b1, b2, b3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		a0 += x0 * y0[i]
		a1 += x1 * y0[i+1]
		a2 += x2 * y0[i+2]
		a3 += x3 * y0[i+3]
		b0 += x0 * y1[i]
		b1 += x1 * y1[i+1]
		b2 += x2 * y1[i+2]
		b3 += x3 * y1[i+3]
	}
	r0 = a0 + a1 + a2 + a3
	r1 = b0 + b1 + b2 + b3
	for ; i < n; i++ {
		r0 += x[i] * y0[i]
		r1 += x[i] * y1[i]
	}
	return r0, r1
}
