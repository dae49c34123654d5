package tensor

import "math"

// Pure-Go twins of the AVX2+FMA kernel tier (simd_avx2_amd64.s). Go's
// math.FMA is a correctly-rounded fused multiply-add on every platform
// (hardware FMA where available, exact soft-float otherwise), so these
// bodies produce bit-identical results to the assembly on any machine —
// they are the semantic definition of the KernelAVX2 rounding regime,
// its fallback on CPUs without AVX2+FMA, and the oracle the property
// tests compare the assembly against.
//
// Lane layout mirrors the assembly exactly: eight concurrent partial
// sums (two 4-lane YMM accumulators) advanced by FMA over 8-element
// chunks, reduced by the vectorized tree
// ((t0+t4)+(t2+t6)) + ((t1+t5)+(t3+t7)) — one 4-lane add of the two
// accumulators, one 2-lane add of the halves, one final scalar add,
// three serial rounding steps instead of seven — then a scalar FMA
// tail. The tail uses FMA too, so the whole class rounds once per
// multiply-add everywhere.

// dotFMARef is the FMA-class Dot kernel.
func dotFMARef(x, y []float64) float64 {
	n := len(x)
	y = y[:n]
	var t0, t1, t2, t3, t4, t5, t6, t7 float64
	i := 0
	for ; i+8 <= n; i += 8 {
		t0 = math.FMA(x[i], y[i], t0)
		t1 = math.FMA(x[i+1], y[i+1], t1)
		t2 = math.FMA(x[i+2], y[i+2], t2)
		t3 = math.FMA(x[i+3], y[i+3], t3)
		t4 = math.FMA(x[i+4], y[i+4], t4)
		t5 = math.FMA(x[i+5], y[i+5], t5)
		t6 = math.FMA(x[i+6], y[i+6], t6)
		t7 = math.FMA(x[i+7], y[i+7], t7)
	}
	s := ((t0 + t4) + (t2 + t6)) + ((t1 + t5) + (t3 + t7))
	for ; i < n; i++ {
		s = math.FMA(x[i], y[i], s)
	}
	return s
}

// axpyToFMARef is the FMA-class Axpy kernel with a destination:
// dst[i] = fma(a, x[i], y[i]). Elements are independent, so vector
// width is irrelevant to the bits; only the single rounding per element
// distinguishes it from axpyToRef.
func axpyToFMARef(dst []float64, a float64, x, y []float64) {
	n := len(x)
	y = y[:n]
	dst = dst[:n]
	for i := 0; i < n; i++ {
		dst[i] = math.FMA(a, x[i], y[i])
	}
}

// axpy4FMARef is the FMA-class fused four-coefficient Axpy:
// y[i] = fma(a3,x3[i], fma(a2,x2[i], fma(a1,x1[i], fma(a0,x0[i],y[i])))).
// Per element this is exactly four sequential axpyToFMARef passes, so
// fusing never changes a bit — it only amortizes the loads and stores
// of y fourfold (GemmTN/GemmTNR use it for the batched weight
// gradient).
func axpy4FMARef(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	n := len(y)
	x0 = x0[:n]
	x1 = x1[:n]
	x2 = x2[:n]
	x3 = x3[:n]
	for i := 0; i < n; i++ {
		v := math.FMA(a0, x0[i], y[i])
		v = math.FMA(a1, x1[i], v)
		v = math.FMA(a2, x2[i], v)
		y[i] = math.FMA(a3, x3[i], v)
	}
}

// dot4FMARef is the FMA-class fused four-row dot: each output
// accumulates in exactly dotFMARef's order while sharing the loads of
// x, so mixing dot4 and single dots cannot perturb a bit.
func dot4FMARef(x, y0, y1, y2, y3 []float64) (r0, r1, r2, r3 float64) {
	n := len(x)
	y0 = y0[:n]
	y1 = y1[:n]
	y2 = y2[:n]
	y3 = y3[:n]
	var a [8]float64
	var b [8]float64
	var c [8]float64
	var d [8]float64
	i := 0
	for ; i+8 <= n; i += 8 {
		for l := 0; l < 8; l++ {
			a[l] = math.FMA(x[i+l], y0[i+l], a[l])
			b[l] = math.FMA(x[i+l], y1[i+l], b[l])
			c[l] = math.FMA(x[i+l], y2[i+l], c[l])
			d[l] = math.FMA(x[i+l], y3[i+l], d[l])
		}
	}
	r0 = ((a[0] + a[4]) + (a[2] + a[6])) + ((a[1] + a[5]) + (a[3] + a[7]))
	r1 = ((b[0] + b[4]) + (b[2] + b[6])) + ((b[1] + b[5]) + (b[3] + b[7]))
	r2 = ((c[0] + c[4]) + (c[2] + c[6])) + ((c[1] + c[5]) + (c[3] + c[7]))
	r3 = ((d[0] + d[4]) + (d[2] + d[6])) + ((d[1] + d[5]) + (d[3] + d[7]))
	for ; i < n; i++ {
		r0 = math.FMA(x[i], y0[i], r0)
		r1 = math.FMA(x[i], y1[i], r1)
		r2 = math.FMA(x[i], y2[i], r2)
		r3 = math.FMA(x[i], y3[i], r3)
	}
	return r0, r1, r2, r3
}
