package tensor

import (
	"math"
	"unsafe"
)

// Pure-Go twins of the two FMA kernel tiers, one generic body per kernel
// for both storage widths: at float64 the avx2 class's kernels
// (simd_avx2_amd64.s, simd_avx512_amd64.s), at float32 the avx2f32
// tier's (simd_avx2f32_amd64.s). Every multiply-add rounds once
// (fmaOf), so these bodies reproduce the assembly bit for bit on any
// machine: they are the semantic definition of both FMA rounding
// regimes, their implementation on CPUs without AVX2+FMA and off amd64,
// and the oracle the property tests compare the assembly against.
//
// Lane layout mirrors the assembly exactly: two YMM accumulators of
// concurrent partial sums — 8 float64 lanes or 16 float32 lanes
// (fmaLanes) — advanced by FMA over chunks of that many elements, then
// reduced by the vectorized tree of reduceLanes, then a scalar FMA
// tail. The tail uses FMA too, so each class rounds once per
// multiply-add everywhere.

// fmaOf returns a*b + c rounded once to T: math.FMA at float64 (hardware
// FMA where available, exact soft-float otherwise), fma32 at float32.
func fmaOf[T Float](a, b, c T) T {
	if unsafe.Sizeof(a) == 4 {
		return T(fma32(float32(a), float32(b), float32(c)))
	}
	return T(math.FMA(float64(a), float64(b), float64(c)))
}

// fmaLanes is the twins' partial-sum count at width T: two 32-byte YMM
// accumulators, 8 float64 lanes or 16 float32 lanes.
func fmaLanes[T Float]() int { return 64 / int(unsafe.Sizeof(T(0))) }

// reduceLanes folds the partial sums t[:fmaLanes[T]()] the way the
// assembly does: at float32 one 8-lane add u_l = t_l + t_{l+8}, then at
// both widths ((u0+u4)+(u2+u6)) + ((u1+u5)+(u3+u7)) — one 4-lane add of
// the two halves, one 2-lane add, one final scalar add, so three or four
// serial rounding steps instead of seven or fifteen.
func reduceLanes[T Float](t *[16]T) T {
	if fmaLanes[T]() == 16 {
		for l := range 8 {
			t[l] += t[l+8]
		}
	}
	return ((t[0] + t[4]) + (t[2] + t[6])) + ((t[1] + t[5]) + (t[3] + t[7]))
}

// dotFMA is the FMA-class Dot kernel.
func dotFMA[T Float](x, y []T) T {
	n, w := len(x), fmaLanes[T]()
	y = y[:n]
	var t [16]T
	i := 0
	for ; i+w <= n; i += w {
		for l := range w {
			t[l] = fmaOf(x[i+l], y[i+l], t[l])
		}
	}
	s := reduceLanes(&t)
	for ; i < n; i++ {
		s = fmaOf(x[i], y[i], s)
	}
	return s
}

// dot4FMA is the FMA-class fused four-row dot: each output accumulates
// in exactly dotFMA's order while sharing the loads of x, so mixing dot4
// and single dots cannot perturb a bit.
func dot4FMA[T Float](x, y0, y1, y2, y3 []T) (r0, r1, r2, r3 T) {
	n, w := len(x), fmaLanes[T]()
	y0, y1, y2, y3 = y0[:n], y1[:n], y2[:n], y3[:n]
	var a, b, c, d [16]T
	i := 0
	for ; i+w <= n; i += w {
		for l := range w {
			a[l] = fmaOf(x[i+l], y0[i+l], a[l])
			b[l] = fmaOf(x[i+l], y1[i+l], b[l])
			c[l] = fmaOf(x[i+l], y2[i+l], c[l])
			d[l] = fmaOf(x[i+l], y3[i+l], d[l])
		}
	}
	r0, r1, r2, r3 = reduceLanes(&a), reduceLanes(&b), reduceLanes(&c), reduceLanes(&d)
	for ; i < n; i++ {
		r0 = fmaOf(x[i], y0[i], r0)
		r1 = fmaOf(x[i], y1[i], r1)
		r2 = fmaOf(x[i], y2[i], r2)
		r3 = fmaOf(x[i], y3[i], r3)
	}
	return r0, r1, r2, r3
}

// axpyToFMA is the FMA-class Axpy kernel with a destination:
// dst[i] = fma(a, x[i], y[i]). Elements are independent, so vector
// width is irrelevant to the bits; only the single rounding per element
// distinguishes it from axpyToRef. dst may alias x or y.
func axpyToFMA[T Float](dst []T, a T, x, y []T) {
	n := len(x)
	y, dst = y[:n], dst[:n]
	for i := range n {
		dst[i] = fmaOf(a, x[i], y[i])
	}
}

// axpy4FMA is the FMA-class fused four-coefficient Axpy:
// y[i] = fma(a3,x3[i], fma(a2,x2[i], fma(a1,x1[i], fma(a0,x0[i],y[i])))).
// Per element this is exactly four sequential axpyToFMA passes, so
// fusing never changes a bit — it only amortizes the loads and stores of
// y fourfold (GemmTN/GemmTNR use it for the batched weight gradient).
func axpy4FMA[T Float](a0, a1, a2, a3 T, x0, x1, x2, x3, y []T) {
	n := len(y)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	for i := range n {
		v := fmaOf(a0, x0[i], y[i])
		v = fmaOf(a1, x1[i], v)
		v = fmaOf(a2, x2[i], v)
		y[i] = fmaOf(a3, x3[i], v)
	}
}

// stepRowsFMA is the FMA-class stepRows, composed as stepRowsRef is:
// per row and column chunk of a zeroed stack buffer, one axpyToFMA per
// nonzero coefficient in ascending order, then dst = fma(−eta, buf, w).
// The calls are direct so the buffer stays on the stack.
func stepRowsFMA[T Float](dst, w Mat[T], eta, alpha T, a Mat[T], ys [][]T) {
	var buf [stepChunk]T
	for i := 0; i < w.Rows; i++ {
		wr, dr := w.Row(i), dst.Row(i)
		for c0 := 0; c0 < len(wr); c0 += stepChunk {
			c1 := min(c0+stepChunk, len(wr))
			acc := buf[:c1-c0]
			clear(acc)
			for k, y := range ys {
				if v := a.Data[k*a.Cols+i]; v != 0 {
					axpyToFMA(acc, alpha*v, y[c0:c1], acc)
				}
			}
			axpyToFMA(dr[c0:c1], -eta, acc, wr[c0:c1])
		}
	}
}

// meanFMA is the FMA-class mean, composed as meanRef is: per column
// block of dst (of a stack buffer when dst is an input), zeroed, one
// axpyToFMA(·, 1, v, ·) per input in list order, then one multiply by
// inv per element.
func meanFMA[T Float](dst []T, inv T, vecs [][]T) {
	var buf [stepChunk]T
	aliased := aliasesInput(dst, vecs)
	for c0 := 0; c0 < len(dst); c0 += stepChunk {
		c1 := min(c0+stepChunk, len(dst))
		acc := dst[c0:c1]
		if aliased {
			acc = buf[:c1-c0]
		}
		clear(acc)
		for _, v := range vecs {
			axpyToFMA(acc, 1, v[c0:c1], acc)
		}
		out := dst[c0:c1]
		for i := range out {
			out[i] = acc[i] * inv
		}
	}
}

// expOf is the FMA classes' exponential at width T: expFMA at float64,
// exp32 at float32 (the two polynomials differ).
func expOf[T Float](v T) T {
	if unsafe.Sizeof(v) == 4 {
		return T(exp32(float32(v)))
	}
	return T(expFMA(float64(v)))
}

// expShiftFMA is the FMA-class expShift kernel:
// dst[i] = expOf(x[i]-shift), elementwise in index order.
func expShiftFMA[T Float](dst, x []T, shift T) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = expOf(v - shift)
	}
}

// sumExpShiftFMA returns sum_i expOf(x[i]-shift), accumulated
// sequentially in index order — the same order the assembly-backed sets
// use after materializing the exponentials, so both bind to one regime.
func sumExpShiftFMA[T Float](x []T, shift T) T {
	var s T
	for _, v := range x {
		s += expOf(v - shift)
	}
	return s
}

// The one subtlety of the float32 twins is the scalar twin of
// VFMADD231PS itself. Go has no float32 math.FMA, and
// float32(math.FMA(float64(a), float64(b), float64(c))) is NOT always
// the correctly-rounded float32 result: the product a·b is exact in
// double (≤48 significand bits), but the sum with c rounds to 53 bits
// and then again to 24 — classic double rounding, wrong by one ulp near
// float32 midpoints. fma32 repairs it with round-to-odd
// (Boldo–Melquiond: rounding first to p≥2·24+2 bits with the odd rule,
// then to 24 bits to nearest, equals a single rounding to 24; float64's
// p=53 qualifies): compute s = RN64(a·b+c), extract the exact residual
// with a TwoSum, and if the sum was inexact while s's last bit is even,
// nudge s one ulp toward the residual so the subsequent float32
// conversion sees the odd-rounded value. TestFMA32Oracle pins fma32
// against an exact big.Float evaluation and the hardware instruction.

// fma32 returns the correctly-rounded float32 value of a*b + c — the
// scalar twin of one VFMADD231PS lane.
func fma32(a, b, c float32) float32 {
	p := float64(a) * float64(b) // exact: 24+24 significand bits ≤ 53
	cd := float64(c)
	s := p + cd
	if math.IsNaN(s) || math.IsInf(s, 0) {
		// Non-finite: IEEE propagation; no residual arithmetic applies.
		return float32(s)
	}
	// Knuth TwoSum: err is exactly (p + cd) − s for any magnitudes.
	bv := s - p
	err := (p - (s - bv)) + (cd - bv)
	if err != 0 && math.Float64bits(s)&1 == 0 {
		// Inexact and even: replace s by its neighbor toward the true
		// sum, which has an odd last bit (round-to-odd).
		if err > 0 {
			s = math.Nextafter(s, math.Inf(1))
		} else {
			s = math.Nextafter(s, math.Inf(-1))
		}
	}
	return float32(s)
}
