package tensor

import "math"

// Pure-Go twins of the float32 AVX2+FMA kernel tier
// (simd_avx2f32_amd64.s). They are the semantic definition of the
// KernelAVX2F32 rounding regime, its implementation off amd64 (and on
// amd64 CPUs without AVX2+FMA), and the oracle the property tests
// compare the assembly against.
//
// The one subtlety is the scalar twin of VFMADD231PS itself. Go has no
// float32 math.FMA, and float32(math.FMA(float64(a), float64(b),
// float64(c))) is NOT always the correctly-rounded float32 result: the
// product a·b is exact in double (≤48 significand bits), but the sum
// with c rounds to 53 bits and then again to 24 — classic double
// rounding, wrong by one ulp near float32 midpoints. fma32 repairs it
// with round-to-odd (Boldo–Melquiond: rounding first to p≥2·24+2 bits
// with the odd rule, then to 24 bits to nearest, equals a single
// rounding to 24; float64's p=53 qualifies): compute s = RN64(a·b+c),
// extract the exact residual with a TwoSum, and if the sum was inexact
// while s's last bit is even, nudge s one ulp toward the residual so
// the subsequent float32 conversion sees the odd-rounded value.
// TestFMA32Oracle pins fma32 against an exact big.Float evaluation and
// the hardware instruction.

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

// dot32Ref is the float32 FMA-class Dot kernel. Lane layout mirrors the
// assembly exactly: sixteen concurrent partial sums (two 8-lane YMM
// accumulators, t0..t7 and t8..t15) advanced by FMA over 16-element
// chunks, reduced by the vectorized tree — lanewise u_l = t_l + t_{l+8}
// (one 8-lane add), then ((u0+u4)+(u2+u6)) + ((u1+u5)+(u3+u7)) (one
// 4-lane add, one 2-lane add, one scalar add) — then a scalar FMA tail.
func dot32Ref(x, y []float32) float32 {
	n := len(x)
	y = y[:n]
	var t [16]float32
	i := 0
	for ; i+16 <= n; i += 16 {
		for l := 0; l < 16; l++ {
			t[l] = fma32(x[i+l], y[i+l], t[l])
		}
	}
	var u [8]float32
	for l := 0; l < 8; l++ {
		u[l] = t[l] + t[l+8]
	}
	s := ((u[0] + u[4]) + (u[2] + u[6])) + ((u[1] + u[5]) + (u[3] + u[7]))
	for ; i < n; i++ {
		s = fma32(x[i], y[i], s)
	}
	return s
}

// axpyTo32Ref is the float32 FMA-class AxpyTo kernel:
// dst[i] = fma32(a, x[i], y[i]). Elements are independent, so vector
// width is irrelevant to the bits, and dst may alias x or y.
func axpyTo32Ref(dst []float32, a float32, x, y []float32) {
	n := len(x)
	y, dst = y[:n], dst[:n]
	for i := 0; i < n; i++ {
		dst[i] = fma32(a, x[i], y[i])
	}
}

// axpy432Ref is the float32 fused four-coefficient Axpy: per element
// exactly four sequential axpyTo32Ref passes (the fusion changes no
// bits), loading and storing y once — the batched weight-gradient
// kernel of GemmTN/GemmTNR on float32 operands.
func axpy432Ref(a0, a1, a2, a3 float32, x0, x1, x2, x3, y []float32) {
	n := len(y)
	x0 = x0[:n]
	x1 = x1[:n]
	x2 = x2[:n]
	x3 = x3[:n]
	for i := 0; i < n; i++ {
		v := fma32(a0, x0[i], y[i])
		v = fma32(a1, x1[i], v)
		v = fma32(a2, x2[i], v)
		y[i] = fma32(a3, x3[i], v)
	}
}

// dot432Ref is the float32 fused four-row dot: each output accumulates
// in exactly dot32Ref's order while sharing the loads of x, so dot4 and
// single dots mix freely without perturbing a bit.
func dot432Ref(x, y0, y1, y2, y3 []float32) (r0, r1, r2, r3 float32) {
	n := len(x)
	y0 = y0[:n]
	y1 = y1[:n]
	y2 = y2[:n]
	y3 = y3[:n]
	var a, b, c, d [16]float32
	i := 0
	for ; i+16 <= n; i += 16 {
		for l := 0; l < 16; l++ {
			a[l] = fma32(x[i+l], y0[i+l], a[l])
			b[l] = fma32(x[i+l], y1[i+l], b[l])
			c[l] = fma32(x[i+l], y2[i+l], c[l])
			d[l] = fma32(x[i+l], y3[i+l], d[l])
		}
	}
	r0 = dot32Reduce(&a)
	r1 = dot32Reduce(&b)
	r2 = dot32Reduce(&c)
	r3 = dot32Reduce(&d)
	for ; i < n; i++ {
		r0 = fma32(x[i], y0[i], r0)
		r1 = fma32(x[i], y1[i], r1)
		r2 = fma32(x[i], y2[i], r2)
		r3 = fma32(x[i], y3[i], r3)
	}
	return r0, r1, r2, r3
}

// dot32Reduce folds sixteen partial sums with dot32Ref's tree.
func dot32Reduce(t *[16]float32) float32 {
	var u [8]float32
	for l := 0; l < 8; l++ {
		u[l] = t[l] + t[l+8]
	}
	return ((u[0] + u[4]) + (u[2] + u[6])) + ((u[1] + u[5]) + (u[3] + u[7]))
}
