// Package tensor implements the dense linear algebra kernels used by the
// models and optimizers: BLAS-1 vector operations, BLAS-2/3 matrix
// kernels, and the numerically careful reductions (log-sum-exp, softmax)
// needed for cross-entropy training.
//
// Everything operates on plain slices and a row-major Mat so the
// federated engines can serialize parameters as flat buffers with zero
// copying. All kernels are allocation-free when given destination
// buffers, which keeps the inner SGD loops off the garbage collector.
package tensor

import "math"

// Dot returns the inner product of x and y. It panics on length
// mismatch. The accumulation order is fixed per kernel class (partial
// sums combined left-to-right after the unrolled loop — see dotRef and
// dotFMA) and is part of the package's determinism contract: the
// blocked GEMM kernels and every implementation of the active class
// reproduce exactly that order per output element.
func Dot(x, y []float64) float64 {
	checkLen(len(x), len(y))
	return kernels.dot(x, y)
}

// Axpy computes y += a*x in place (axpyToRef order; elements are
// independent, so vector width changes no result bits — only the FMA
// tier's single rounding per element distinguishes classes). y == x
// aliasing is supported; partial overlap is not.
func Axpy(a float64, x, y []float64) {
	checkLen(len(x), len(y))
	kernels.axpyTo(y, a, x, y)
}

// AxpyTo computes dst = y + a*x with Axpy's per-element arithmetic, so
// copy(dst, y) followed by Axpy(a, x, dst) gives the same bits in one
// pass instead of two. dst may alias x or y; partial overlap is not
// supported.
func AxpyTo(dst []float64, a float64, x, y []float64) {
	checkLen(len(x), len(y))
	checkLen(len(dst), len(y))
	kernels.axpyTo(dst, a, x, y)
}

// Scale computes x *= a in place.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Zero sets every element of x to 0.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Norm2 returns the Euclidean norm of x, guarding against overflow for
// large magnitudes by scaling.
func Norm2(x []float64) float64 {
	maxAbs := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	if maxAbs > 1e150 || maxAbs < 1e-150 {
		// Scaled accumulation for extreme ranges.
		s := 0.0
		for _, v := range x {
			r := v / maxAbs
			s += r * r
		}
		return maxAbs * math.Sqrt(s)
	}
	return math.Sqrt(Dot(x, x))
}

// SquaredDistance returns ||x - y||^2.
func SquaredDistance(x, y []float64) float64 {
	checkLen(len(x), len(y))
	s := 0.0
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return s
}

// Sum returns the sum of the elements of x using Kahan compensation so
// that long accumulations (loss averaging across thousands of batches)
// stay accurate.
func Sum(x []float64) float64 {
	var s, c float64
	for _, v := range x {
		y := v - c
		t := s + y
		c = (t - s) - y
		s = t
	}
	return s
}

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return Sum(x) / float64(len(x))
}

// Variance returns the population variance of x, or 0 for len(x) < 2.
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	s := 0.0
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// Min returns the minimum element of x. It panics on an empty slice.
func Min(x []float64) float64 {
	if len(x) == 0 {
		panic("tensor: Min of empty slice")
	}
	m := x[0]
	for _, v := range x[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum element of x. It panics on an empty slice.
func Max(x []float64) float64 {
	if len(x) == 0 {
		panic("tensor: Max of empty slice")
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the index of the maximum element (first on ties). It
// panics on an empty slice.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		panic("tensor: ArgMax of empty slice")
	}
	best, bi := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// LogSumExp returns log(sum_i exp(x_i)) with max-shifting for
// stability. The shifted exponentials come from the active class's
// kernel set (math.Exp on the non-FMA rungs, the vectorized polynomial
// exponential on the AVX2 tier) and are summed in index order.
func LogSumExp(x []float64) float64 {
	if len(x) == 0 {
		panic("tensor: LogSumExp of empty slice")
	}
	m := Max(x)
	if math.IsInf(m, -1) {
		return math.Inf(-1)
	}
	return m + math.Log(kernels.sumExpShift(x, m))
}

// Softmax writes softmax(x) into dst (dst may alias x; partial overlap
// is not supported).
func Softmax(dst, x []float64) {
	checkLen(len(dst), len(x))
	m := Max(x)
	kernels.expShift(dst, x, m)
	s := 0.0
	for _, e := range dst {
		s += e
	}
	inv := 1 / s
	for i := range dst {
		dst[i] *= inv
	}
}

// ReLU writes max(x, 0) elementwise into dst (dst may alias x).
func ReLU(dst, x []float64) {
	checkLen(len(dst), len(x))
	for i, v := range x {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// ReLUGrad multiplies grad elementwise by the ReLU derivative evaluated
// at pre-activation z: dst[i] = grad[i] if z[i] > 0 else 0. dst may alias
// grad.
func ReLUGrad(dst, grad, z []float64) {
	checkLen(len(dst), len(grad))
	checkLen(len(grad), len(z))
	for i := range dst {
		if z[i] > 0 {
			dst[i] = grad[i]
		} else {
			dst[i] = 0
		}
	}
}

func checkLen(a, b int) {
	if a != b {
		panic("tensor: length mismatch")
	}
}
