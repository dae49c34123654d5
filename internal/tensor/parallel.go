package tensor

import (
	"runtime"
	"sync"
)

// ParallelFor splits [0, n) into contiguous chunks of at least grain
// iterations and runs fn(lo, hi) on each chunk across GOMAXPROCS workers.
// It is deterministic in its partitioning (chunk boundaries depend only
// on n, grain and GOMAXPROCS at call time), so callers that write
// disjoint outputs per index get reproducible results regardless of
// scheduling.
func ParallelFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	workers := runtime.GOMAXPROCS(0)
	chunks := (n + grain - 1) / grain
	if chunks < workers {
		workers = chunks
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// AverageInto writes the elementwise average of the given vectors into
// dst. All vectors must share dst's length; the list must be non-empty.
// The summation order is the list order, so the result is deterministic.
// Every engine aggregates model vectors through this one function — the
// single chokepoint that defines the regime's averaging arithmetic. On
// the float32 storage tier the average is computed natively in float32
// (one float32 add per input in list order, one float32 scale; see
// averageInto32Regime), so engines that fold float32 rows through a
// MeanAccumulator and engines holding widened float64 mirrors aggregate
// to identical bits, and the result stays storage-representable.
//
// The work runs in column blocks of avgBlock elements: per block, zero,
// one Axpy(1, v, ·) per input in list order, then the scale. Elements
// are independent, so the bits are those of the three whole-vector
// passes, while the block of dst stays in L1 and each input is read
// once.
func AverageInto(dst []float64, vecs ...[]float64) {
	if len(vecs) == 0 {
		panic("tensor: AverageInto with no inputs")
	}
	for _, v := range vecs {
		checkLen(len(dst), len(v))
	}
	if StorageF32() {
		averageInto32Regime(dst, vecs)
		return
	}
	inv := 1 / float64(len(vecs))
	for c0 := 0; c0 < len(dst); c0 += avgBlock {
		c1 := min(c0+avgBlock, len(dst))
		blk := dst[c0:c1]
		Zero(blk)
		for _, v := range vecs {
			kernels.axpyTo(blk, 1, v[c0:c1], blk)
		}
		Scale(inv, blk)
	}
}

// avgBlock is AverageInto's column block: 2048 float64s (16 KiB) of dst
// stay L1-resident while the inputs stream past.
const avgBlock = 2048

// MeanAccumulator is the streaming form of AverageInto: callers fold
// vectors in one at a time (in a deterministic order) and finish into a
// destination, producing bit-for-bit the result AverageInto would have
// computed from the whole list — same kernels, same summation order,
// same storage-regime arithmetic (a float32 accumulator with exact
// per-input narrowing on the avx2f32 tier, exactly like
// averageInto32Regime). The population engines aggregate cohort replies
// through it so edge/cloud accumulators stay O(d) instead of holding a
// per-client table.
//
// A zero MeanAccumulator is ready after Reset; instances are reusable
// and safe to keep per-slot (not concurrently).
type MeanAccumulator struct {
	acc          []float64
	acc32, tmp32 []float32
	n            int
	f32          bool
}

// Reset readies the accumulator for d-dimensional inputs and zeroes it.
func (a *MeanAccumulator) Reset(d int) {
	a.n = 0
	a.f32 = StorageF32()
	if a.f32 {
		if cap(a.acc32) < d {
			a.acc32 = make([]float32, d)
			a.tmp32 = make([]float32, d)
		}
		a.acc32, a.tmp32 = a.acc32[:d], a.tmp32[:d]
		Zero(a.acc32)
		return
	}
	if cap(a.acc) < d {
		a.acc = make([]float64, d)
	}
	a.acc = a.acc[:d]
	Zero(a.acc)
}

// Add folds one vector into the running sum.
func (a *MeanAccumulator) Add(v []float64) {
	if a.f32 {
		ToF32(a.tmp32, v)
		a.Add32(a.tmp32)
		return
	}
	a.n++
	Axpy(1, v, a.acc)
}

// Add32 folds one float32 vector into a storage-tier accumulator (reset
// while StorageF32 holds): Add's float32 add without the narrowing, for
// callers whose rows are already float32.
func (a *MeanAccumulator) Add32(v []float32) {
	a.n++
	Axpy(1, v, a.acc32)
}

// FinishInto writes the mean of the folded vectors into dst and leaves
// the accumulator consumed (Reset before reuse). Panics when nothing
// was folded, mirroring AverageInto's empty-list panic.
func (a *MeanAccumulator) FinishInto(dst []float64) {
	if a.n == 0 {
		panic("tensor: MeanAccumulator.FinishInto with no inputs")
	}
	// Scale while copying out: the same multiplication per element as
	// AverageInto's in-place Scale (and, on the storage tier, the same
	// widening), in one pass over dst.
	if a.f32 {
		checkLen(len(dst), len(a.acc32))
		inv := 1 / float32(a.n)
		for i, v := range a.acc32 {
			dst[i] = float64(v * inv)
		}
		return
	}
	checkLen(len(dst), len(a.acc))
	inv := 1 / float64(a.n)
	for i, v := range a.acc {
		dst[i] = v * inv
	}
}
