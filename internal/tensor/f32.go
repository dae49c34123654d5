package tensor

import (
	"math"
	"sync"
)

// float32 storage-tier primitives: the BLAS-1 surface of the avx2f32
// kernel class, the float64↔float32 regime-boundary conversions, and
// the storage-regime aggregation helpers the engines share.
//
// Determinism contract: like the float64 kernels, every float32 kernel
// accumulates in a fixed index order per class — there is exactly one
// float32 class, whose order is defined by the pure-Go twins in
// simd_f32_ref.go and reproduced bit for bit by the assembly.

// kernelSet32 is the float32 tier's implementation of every dispatched
// float32 kernel. Unlike the float64 kernelSet it is bound once at
// process start (kernels32): only the avx2f32 class uses it, and within
// that class assembly and pure-Go twins are bit-identical, so there is
// nothing to swap.
type kernelSet32 struct {
	dot   func(x, y []float32) float32
	axpy  func(a float32, x, y []float32)
	dot4  func(x, y0, y1, y2, y3 []float32) (r0, r1, r2, r3 float32)
	axpy4 func(a0, a1, a2, a3 float32, x0, x1, x2, x3, y []float32)
	// expShift computes dst[i] = exp32(x[i]-shift) elementwise.
	expShift func(dst, x []float32, shift float32)
	// sumExpShift returns sum_i exp32(x[i]-shift), float32-accumulated
	// in index order — the loss path's allocation-free companion of
	// expShift (the asm-backed binding materializes the exponentials
	// into stack chunks; see sumExpShift32Asm).
	sumExpShift func(x []float32, shift float32) float32
}

var kernels32 = kernels32Impl()

// --- regime-boundary conversions ---

// The conversion kernels are hardware-dispatched, not class-dispatched:
// float64↔float32 conversion is a single IEEE rounding (or exact
// widening) per element, so the vectorized VCVTPD2PS/VCVTPS2PD paths
// are bit-identical to the scalar loops on every input — unlike the
// arithmetic kernels they cannot define a rounding regime, and binding
// them by CPU capability alone never changes a trajectory.
var (
	cvtTo32   = round64to32Ref
	cvtTo64   = widen32to64Ref
	roundTo32 = round32Ref
)

func round64to32Ref(dst []float32, src []float64) {
	for i, v := range src {
		dst[i] = float32(v)
	}
}

func widen32to64Ref(dst []float64, src []float32) {
	for i, v := range src {
		dst[i] = float64(v)
	}
}

func round32Ref(x []float64) {
	for i, v := range x {
		x[i] = float64(float32(v))
	}
}

// Round32 rounds every element of x through float32 in place: the
// storage-regime boundary operation. Applying it after an aggregation
// restores the avx2f32 invariant that model vectors always hold
// float32-representable values.
func Round32(x []float64) {
	roundTo32(x)
}

// ToF32 converts src into dst elementwise (one rounding per element; a
// no-op bit change when src already holds float32-representable
// values). Panics on length mismatch.
func ToF32(dst []float32, src []float64) {
	checkLen(len(dst), len(src))
	cvtTo32(dst, src)
}

// ToF64 widens src into dst elementwise (always exact). Panics on
// length mismatch.
func ToF64(dst []float64, src []float32) {
	checkLen(len(dst), len(src))
	cvtTo64(dst, src)
}

// Average32Into averages the float32 vectors into dst in the avx2f32
// regime's native aggregation arithmetic: zero, one fma32-rounded add
// per input in argument order (Axpy32(1, v, dst) — exactly a float32
// add), one float32 scale. This IS the regime's definition of model
// averaging; AverageInto's float32-storage branch computes the same
// bits from float64-interchange vectors, so every engine aggregates
// identically whether it holds float32 buffers or widened mirrors.
func Average32Into(dst []float32, vecs ...[]float32) {
	if len(vecs) == 0 {
		panic("tensor: Average32Into with no inputs")
	}
	Zero32(dst)
	for _, v := range vecs {
		checkLen(len(dst), len(v))
		kernels32.axpy(1, v, dst)
	}
	Scale32(1/float32(len(vecs)), dst)
}

// avgPool recycles the float32 staging blocks of AverageInto's
// storage-regime branch (accumulator + per-input narrowing scratch).
var avgPool = sync.Pool{New: func() any { return new(avgScratch) }}

type avgScratch struct{ acc, tmp [avgBlock]float32 }

// averageInto32Regime computes AverageInto in the avx2f32 regime from
// float64-interchange vectors, one avgBlock column block at a time:
// narrow each input (exact — interchange vectors are
// storage-representable), run the native float32 average, widen the
// result. Bit-identical to Average32Into on the inputs' float32
// mirrors.
func averageInto32Regime(dst []float64, vecs [][]float64) {
	s := avgPool.Get().(*avgScratch)
	inv := 1 / float32(len(vecs))
	for c0 := 0; c0 < len(dst); c0 += avgBlock {
		c1 := min(c0+avgBlock, len(dst))
		acc, tmp := s.acc[:c1-c0], s.tmp[:c1-c0]
		Zero32(acc)
		for _, v := range vecs {
			ToF32(tmp, v[c0:c1])
			kernels32.axpy(1, tmp, acc)
		}
		Scale32(inv, acc)
		ToF64(dst[c0:c1], acc)
	}
	avgPool.Put(s)
}

// StorageAdd computes dst += src in the active storage regime's
// arithmetic: a float32 add per element on the avx2f32 tier, the
// class's Axpy(1, src, dst) elsewhere (bit-identical to the historical
// call — fma(1, x, y) and x+y round the same). The engines use it for
// every iterate-sum and WSum accumulation so the running sums stay
// storage-representable (and hence exactly encodable on the wire).
func StorageAdd(dst, src []float64) {
	checkLen(len(dst), len(src))
	if StorageF32() {
		for i := range dst {
			dst[i] = float64(float32(dst[i]) + float32(src[i]))
		}
		return
	}
	kernels.axpyTo(dst, 1, src, dst)
}

// --- float32 BLAS-1 ---

// Axpy32 computes y += a*x in place, one fma32 rounding per element.
func Axpy32(a float32, x, y []float32) {
	checkLen(len(x), len(y))
	kernels32.axpy(a, x, y)
}

// Scale32 computes x *= a in place.
func Scale32(a float32, x []float32) {
	for i := range x {
		x[i] *= a
	}
}

// Zero32 sets every element of x to 0.
func Zero32(x []float32) {
	for i := range x {
		x[i] = 0
	}
}

// Max32 returns the maximum element of x. It panics on an empty slice.
func Max32(x []float32) float32 {
	if len(x) == 0 {
		panic("tensor: Max32 of empty slice")
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ReLU32 writes max(x, 0) elementwise into dst (dst may alias x).
func ReLU32(dst, x []float32) {
	checkLen(len(dst), len(x))
	for i, v := range x {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// ReLUGrad32 multiplies grad elementwise by the ReLU derivative at
// pre-activation z: dst[i] = grad[i] if z[i] > 0 else 0 (dst may alias
// grad).
func ReLUGrad32(dst, grad, z []float32) {
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

// LogSumExp32 returns log(sum_i exp(x_i)) with max-shifting: the class
// exponential and index-order float32 summation (the fused sumExpShift
// kernel, allocation-free), with the final log rounded through float64
// math.Log (deterministic — pure Go on every platform).
func LogSumExp32(x []float32) float32 {
	if len(x) == 0 {
		panic("tensor: LogSumExp32 of empty slice")
	}
	m := Max32(x)
	if math.IsInf(float64(m), -1) {
		return float32(math.Inf(-1))
	}
	return m + float32(math.Log(float64(kernels32.sumExpShift(x, m))))
}

// --- Matrix32 ---

// Matrix32 is the float32 sibling of Matrix: a dense row-major matrix
// over a flat slice, backing the models' float32 activation scratch.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// Matrix32From wraps an existing flat buffer as a rows x cols matrix
// without copying. It panics if the buffer has the wrong length.
func Matrix32From(data []float32, rows, cols int) *Matrix32 {
	if len(data) != rows*cols {
		panic("tensor: Matrix32From buffer length mismatch")
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: data}
}

// Row returns a view (not a copy) of row i.
func (m *Matrix32) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Reshape resizes m to rows×cols, reusing (and growing when needed) the
// backing buffer; contents after a growing Reshape are unspecified.
func (m *Matrix32) Reshape(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	need := rows * cols
	if cap(m.Data) < need {
		m.Data = make([]float32, need)
	}
	m.Data = m.Data[:need]
	m.Rows, m.Cols = rows, cols
}
