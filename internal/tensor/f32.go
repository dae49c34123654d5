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
// simd_f32_ref.go and reproduced bit for bit by the assembly.

// kernels32 is the float32 tier's kernel set. Unlike the float64 set it
// is bound once at process start: only the avx2f32 class uses it, and
// within that class assembly and pure-Go twins are bit-identical, so
// there is nothing to swap. It starts as the fma32 twins; on amd64 with
// AVX2+FMA, init in simd_f32_amd64.go rebinds it to the assembly. The
// tier is an FMA tier, so it always takes the 4-row dot fusion and the
// fused single-exponential cross-entropy.
var kernels32 = kernelSet[float32]{
	dot: dot32Ref, axpyTo: axpyTo32Ref, dot4: dot432Ref,
	dot4x2: dot4x2From(dot432Ref), axpy4: axpy432Ref, stepRow: stepRow32Ref,
	expShift: expShift32Ref, sumExpShift: sumExpShift32Ref,
	fuse4: true, fusedCE: true,
}

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

// avgPool recycles the float32 staging blocks of AverageInto's
// storage-regime branch (accumulator + per-input narrowing scratch).
var avgPool = sync.Pool{New: func() any { return new(avgScratch) }}

type avgScratch struct{ acc, tmp [avgBlock]float32 }

// averageInto32Regime computes AverageInto in the avx2f32 regime, one
// avgBlock column block at a time: zero a float32 accumulator, add the
// inputs in list order (one float32 add each, Axpy with a = 1; a
// float64 input narrowed first, which is exact for storage-representable
// vectors), multiply by 1/float32(n) and widen. This is the regime's
// definition of model averaging; MeanAccumulator streams the same
// arithmetic.
func averageInto32Regime[T Float](dst []float64, vecs [][]T) {
	s := avgPool.Get().(*avgScratch)
	inv := 1 / float32(len(vecs))
	for c0 := 0; c0 < len(dst); c0 += avgBlock {
		c1 := min(c0+avgBlock, len(dst))
		acc := s.acc[:c1-c0]
		Zero(acc)
		for _, v := range vecs {
			row, ok := any(v[c0:c1]).([]float32)
			if !ok {
				row = s.tmp[:c1-c0]
				ToF32(row, any(v[c0:c1]).([]float64))
			}
			Axpy(1, row, acc)
		}
		Scale(inv, acc)
		ToF64(dst[c0:c1], acc)
	}
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
