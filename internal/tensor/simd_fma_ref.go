package tensor

import "math"

// Pure-Go twins of the FMA kernel tier: the avx2 class's kernels
// (simd_avx2_amd64.s, simd_avx512_amd64.s). Every multiply-add rounds
// once (math.FMA: hardware FMA where available, exact soft-float
// otherwise), so these bodies reproduce the assembly bit for bit on any
// machine: they are the semantic definition of the FMA rounding regime,
// its implementation on CPUs without AVX2+FMA and off amd64, and the
// oracle the property tests compare the assembly against.
//
// Lane layout mirrors the assembly exactly: two YMM accumulators of
// concurrent partial sums — fmaLanes float64 lanes — advanced by FMA
// over chunks of that many elements, then reduced by the vectorized
// tree of reduceLanes, then a scalar FMA tail. The tail uses FMA too,
// so the class rounds once per multiply-add everywhere.

// fmaLanes is the twins' partial-sum count: two 32-byte YMM
// accumulators of 4 float64 lanes each.
const fmaLanes = 8

// reduceLanes folds the partial sums the way the assembly does:
// ((t0+t4)+(t2+t6)) + ((t1+t5)+(t3+t7)) — one 4-lane add of the two
// halves, one 2-lane add, one final scalar add, so three serial rounding
// steps instead of seven.
func reduceLanes(t *[fmaLanes]float64) float64 {
	return ((t[0] + t[4]) + (t[2] + t[6])) + ((t[1] + t[5]) + (t[3] + t[7]))
}

// dotFMA is the FMA-class Dot kernel.
func dotFMA(x, y []float64) float64 {
	n := len(x)
	y = y[:n]
	var t [fmaLanes]float64
	i := 0
	for ; i+fmaLanes <= n; i += fmaLanes {
		for l := range fmaLanes {
			t[l] = math.FMA(x[i+l], y[i+l], t[l])
		}
	}
	s := reduceLanes(&t)
	for ; i < n; i++ {
		s = math.FMA(x[i], y[i], s)
	}
	return s
}

// dot4FMA is the FMA-class fused four-row dot: each output accumulates
// in exactly dotFMA's order while sharing the loads of x, so mixing dot4
// and single dots cannot perturb a bit.
func dot4FMA(x, y0, y1, y2, y3 []float64) (r0, r1, r2, r3 float64) {
	n := len(x)
	y0, y1, y2, y3 = y0[:n], y1[:n], y2[:n], y3[:n]
	var a, b, c, d [fmaLanes]float64
	i := 0
	for ; i+fmaLanes <= n; i += fmaLanes {
		for l := range fmaLanes {
			a[l] = math.FMA(x[i+l], y0[i+l], a[l])
			b[l] = math.FMA(x[i+l], y1[i+l], b[l])
			c[l] = math.FMA(x[i+l], y2[i+l], c[l])
			d[l] = math.FMA(x[i+l], y3[i+l], d[l])
		}
	}
	r0, r1, r2, r3 = reduceLanes(&a), reduceLanes(&b), reduceLanes(&c), reduceLanes(&d)
	for ; i < n; i++ {
		r0 = math.FMA(x[i], y0[i], r0)
		r1 = math.FMA(x[i], y1[i], r1)
		r2 = math.FMA(x[i], y2[i], r2)
		r3 = math.FMA(x[i], y3[i], r3)
	}
	return r0, r1, r2, r3
}

// axpyToFMA is the FMA-class Axpy kernel with a destination:
// dst[i] = fma(a, x[i], y[i]). Elements are independent, so vector
// width is irrelevant to the bits; only the single rounding per element
// distinguishes it from axpyToRef. dst may alias x or y.
func axpyToFMA(dst []float64, a float64, x, y []float64) {
	n := len(x)
	y, dst = y[:n], dst[:n]
	for i := range n {
		dst[i] = math.FMA(a, x[i], y[i])
	}
}

// axpy4FMA is the FMA-class fused four-coefficient Axpy:
// y[i] = fma(a3,x3[i], fma(a2,x2[i], fma(a1,x1[i], fma(a0,x0[i],y[i])))).
// Per element this is exactly four sequential axpyToFMA passes, so
// fusing never changes a bit — it only amortizes the loads and stores of
// y fourfold (GemmTN/GemmTNR use it for the batched weight gradient).
func axpy4FMA(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	n := len(y)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	for i := range n {
		v := math.FMA(a0, x0[i], y[i])
		v = math.FMA(a1, x1[i], v)
		v = math.FMA(a2, x2[i], v)
		y[i] = math.FMA(a3, x3[i], v)
	}
}

// stepRowsFMA is the FMA-class stepRows, composed as stepRowsRef is:
// per row and column chunk of a zeroed stack buffer, one axpyToFMA per
// nonzero coefficient in ascending order, then dst = fma(−eta, buf, w).
// The calls are direct so the buffer stays on the stack.
func stepRowsFMA(dst, w Matrix, eta, alpha float64, a Matrix, ys [][]float64) {
	var buf [stepChunk]float64
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
func meanFMA(dst []float64, inv float64, vecs [][]float64) {
	var buf [stepChunk]float64
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

// expShiftFMA is the FMA-class expShift kernel:
// dst[i] = expFMA(x[i]-shift), elementwise in index order.
func expShiftFMA(dst, x []float64, shift float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = expFMA(v - shift)
	}
}

// sumExpShiftFMA returns sum_i expFMA(x[i]-shift), accumulated
// sequentially in index order — the same order the assembly-backed sets
// use after materializing the exponentials, so both bind to one regime.
func sumExpShiftFMA(x []float64, shift float64) float64 {
	s := 0.0
	for _, v := range x {
		s += expFMA(v - shift)
	}
	return s
}
