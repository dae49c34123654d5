package tensor

import "sync"

// float32 storage-tier primitives: the tier's kernel set, the
// float64↔float32 regime-boundary conversions, and the storage-regime
// aggregation helpers the engines share. The tier has no routines of
// its own: the GEMM, cross-entropy and BLAS-1 bodies are generic over
// the storage width and run on float32 operands through kernels32.
//
// Determinism contract: like the float64 kernels, every float32 kernel
// accumulates in a fixed index order per class — there is exactly one
// float32 class, whose order is defined by the pure-Go twins in
// simd_fma_ref.go at float32 and reproduced bit for bit by the assembly.
// Its kernel set, kernels32, is bound in dispatch.go.

// --- regime-boundary conversions ---

// The conversion kernels are hardware-dispatched, not class-dispatched:
// float64↔float32 conversion is a single IEEE rounding (or exact
// widening) per element, so the vectorized VCVTPD2PS/VCVTPS2PD paths
// are bit-identical to the scalar loops on every input — unlike the
// arithmetic kernels they cannot define a rounding regime, and binding
// them by CPU capability alone never changes a trajectory
// (conversionKernels, per architecture).
var cvtTo32, cvtTo64, roundTo32 = conversionKernels()

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

// avgPool recycles the staging of AverageInto's storage-regime branch.
var avgPool = sync.Pool{New: func() any { return new(avgScratch) }}

// avgScratch is one avgBlock column block of float32 accumulator and
// narrowing scratch, and the input list handed to the mean kernel.
type avgScratch struct {
	acc, tmp [avgBlock]float32
	rows     [][]float32
}

// avgBlock is averageInto32Regime's column block: 2048 float32s (8 KiB)
// of staging, L1-resident between the mean kernel and the widening.
const avgBlock = 2048

// averageInto32Regime computes AverageInto in the avx2f32 regime, one
// avgBlock column block at a time: the float32 tier's mean kernel (a
// float32 add per input in list order, one float32 multiply by
// 1/float32(n)) into a float32 block, then the widening into dst. This
// is the regime's definition of model averaging; MeanAccumulator streams
// the same arithmetic. Float32 rows go to the kernel as they are.
// Float64 inputs are narrowed first, which is exact for
// storage-representable vectors, and summed into the block one at a
// time; the kernel then runs over that one sum, whose (+0 + sum)·inv is
// sum·inv since a sum from +0 is never −0.
func averageInto32Regime[T Float](dst []float64, vecs [][]T) {
	s := avgPool.Get().(*avgScratch)
	inv := 1 / float32(len(vecs))
	rows32, native := any(vecs).([][]float32)
	for c0 := 0; c0 < len(dst); c0 += avgBlock {
		c1 := min(c0+avgBlock, len(dst))
		acc := s.acc[:c1-c0]
		s.rows = s.rows[:0]
		if native {
			for _, v := range rows32 {
				s.rows = append(s.rows, v[c0:c1])
			}
		} else {
			Zero(acc)
			tmp := s.tmp[:c1-c0]
			for _, v := range vecs {
				ToF32(tmp, any(v[c0:c1]).([]float64))
				Axpy(1, tmp, acc)
			}
			s.rows = append(s.rows, acc)
		}
		kernels32.mean(acc, inv, s.rows)
		ToF64(dst[c0:c1], acc)
	}
	clear(s.rows[:cap(s.rows)]) // hold no caller's vector in the pool
	avgPool.Put(s)
}

// StorageAdd computes dst += src in the active storage regime's
// arithmetic: a float32 add per element on the avx2f32 tier (where src
// may be a float32 row), the class's Axpy(1, src, dst) elsewhere
// (bit-identical to the historical call — fma(1, x, y) and x+y round
// the same). The engines use it for every iterate-sum and WSum
// accumulation so the running sums stay storage-representable (and
// hence exactly encodable on the wire).
func StorageAdd[T Float](dst []float64, src []T) {
	checkLen(len(dst), len(src))
	if src64, ok := any(src).([]float64); ok && !StorageF32() {
		kernels.axpyTo(dst, 1, src64, dst)
		return
	}
	for i := range dst {
		dst[i] = float64(float32(dst[i]) + float32(src[i]))
	}
}
