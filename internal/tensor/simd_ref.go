package tensor

import "math"

// Portable reference implementations of the non-FMA kernels: the
// bodies the generic and sse2 classes run on every architecture, and
// the semantic definition of that rounding regime.

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

// stepRowsRef is the non-FMA stepRows, written as its definition: per
// row and column chunk of a zeroed stack buffer, run one axpyToRef per
// nonzero coefficient alpha·a[k][i] in ascending k, then
// dst = w + (−eta)·buf with axpyToRef. The calls are direct so the
// buffer stays on the stack.
func stepRowsRef(dst, w Matrix, eta, alpha float64, a Matrix, ys [][]float64) {
	var buf [stepChunk]float64
	for i := 0; i < w.Rows; i++ {
		wr, dr := w.Row(i), dst.Row(i)
		for c0 := 0; c0 < len(wr); c0 += stepChunk {
			c1 := min(c0+stepChunk, len(wr))
			acc := buf[:c1-c0]
			clear(acc)
			for k, y := range ys {
				if v := a.Data[k*a.Cols+i]; v != 0 {
					axpyToRef(acc, alpha*v, y[c0:c1], acc)
				}
			}
			axpyToRef(dr[c0:c1], -eta, acc, wr[c0:c1])
		}
	}
}

// meanRef is the non-FMA mean, written as its definition: per column
// block of dst, zeroed, one axpyToRef(·, 1, v, ·) per input in list
// order, then one multiply by inv per element. When dst is one of the
// inputs the block sums in a stack buffer instead, so no input is
// overwritten before it is read.
func meanRef(dst []float64, inv float64, vecs [][]float64) {
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
			axpyToRef(acc, 1, v[c0:c1], acc)
		}
		out := dst[c0:c1]
		for i := range out {
			out[i] = acc[i] * inv
		}
	}
}

// aliasesInput reports whether dst starts where one of vecs does: the
// one overlap the mean kernel's contract allows.
func aliasesInput(dst []float64, vecs [][]float64) bool {
	for _, v := range vecs {
		if len(dst) > 0 && len(v) > 0 && &v[0] == &dst[0] {
			return true
		}
	}
	return false
}

// expShiftRef is the non-FMA shifted-exponential kernel:
// dst[i] = math.Exp(x[i]-shift), elementwise in index order. It is the
// exact arithmetic of the pre-dispatch LogSumExp/Softmax loops, so the
// non-FMA regime keeps its historical bits.
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

// dot4Ref is the scalar fused four-output dot: each result accumulates
// in exactly dotRef's order while the four share the loads of x. The
// four partial sums of dotRef's unrolled loop are independent, so they
// run in two passes over x — lanes 0-1, then lanes 2-3 — which keeps the
// eight live accumulators of each pass in registers.
func dot4Ref(x, y0, y1, y2, y3 []float64) (r0, r1, r2, r3 float64) {
	n := len(x)
	y0, y1, y2, y3 = y0[:n], y1[:n], y2[:n], y3[:n]
	m := n &^ 3
	var a0, a1, b0, b1, c0, c1, d0, d1 float64
	for i := 0; i < m; i += 4 {
		x0, x1 := x[i], x[i+1]
		a0 += x0 * y0[i]
		a1 += x1 * y0[i+1]
		b0 += x0 * y1[i]
		b1 += x1 * y1[i+1]
		c0 += x0 * y2[i]
		c1 += x1 * y2[i+1]
		d0 += x0 * y3[i]
		d1 += x1 * y3[i+1]
	}
	var a2, a3, b2, b3, c2, c3, d2, d3 float64
	for i := 0; i < m; i += 4 {
		x2, x3 := x[i+2], x[i+3]
		a2 += x2 * y0[i+2]
		a3 += x3 * y0[i+3]
		b2 += x2 * y1[i+2]
		b3 += x3 * y1[i+3]
		c2 += x2 * y2[i+2]
		c3 += x3 * y2[i+3]
		d2 += x2 * y3[i+2]
		d3 += x3 * y3[i+3]
	}
	r0, r1, r2, r3 = a0+a1+a2+a3, b0+b1+b2+b3, c0+c1+c2+c3, d0+d1+d2+d3
	for i := m; i < n; i++ {
		r0 += x[i] * y0[i]
		r1 += x[i] * y1[i]
		r2 += x[i] * y2[i]
		r3 += x[i] * y3[i]
	}
	return r0, r1, r2, r3
}
