package tensor

// AverageInto writes the elementwise average of the given vectors into
// dst. All vectors must share dst's length; the list must be non-empty.
// The summation order is the list order, so the result is deterministic.
// Every engine aggregates model vectors through this one function — the
// single chokepoint that defines the regime's averaging arithmetic. On
// the float32 storage tier the average is computed natively in float32
// (one float32 add per input in list order, one float32 scale; see
// averageInto32Regime), from float32 storage rows or their widened
// float64 mirrors to identical bits, and the result stays
// storage-representable. Float32 rows belong to that tier only.
//
// The work runs in column blocks of avgBlock elements: per block, zero,
// one Axpy(1, v, ·) per input in list order, then the scale. Elements
// are independent, so the bits are those of the three whole-vector
// passes, while the block of dst stays in L1 and each input is read
// once.
func AverageInto[T Float](dst []float64, vecs ...[]T) {
	if len(vecs) == 0 {
		panic("tensor: AverageInto with no inputs")
	}
	for _, v := range vecs {
		checkLen(len(dst), len(v))
	}
	vecs64, ok := any(vecs).([][]float64)
	if !ok || StorageF32() {
		averageInto32Regime(dst, vecs)
		return
	}
	inv := 1 / float64(len(vecs))
	for c0 := 0; c0 < len(dst); c0 += avgBlock {
		c1 := min(c0+avgBlock, len(dst))
		blk := dst[c0:c1]
		Zero(blk)
		for _, v := range vecs64 {
			kernels.axpyTo(blk, 1, v[c0:c1], blk)
		}
		Scale(inv, blk)
	}
}

// avgBlock is AverageInto's column block: 2048 float64s (16 KiB) of dst
// stay L1-resident while the inputs stream past.
const avgBlock = 2048

// MeanAccumulator is the streaming form of AverageInto at storage width
// T: callers fold vectors in one at a time (in a deterministic order)
// and finish into a float64 destination, producing bit-for-bit the
// result AverageInto computes from the same list — same kernels, same
// summation order, and on the avx2f32 tier (T = float32) the same
// float32 arithmetic as from the widened rows. fl.Fold streams a
// cohort through it, so its accumulators stay O(d) instead of holding
// a per-client table.
//
// A zero MeanAccumulator is ready after Reset; FinishInto leaves it
// empty and ready for the next mean. Instances are reusable and safe to
// keep per slot (not concurrently).
type MeanAccumulator[T Float] struct {
	acc []T // all zero while n == 0
	n   int
}

// Reset readies the accumulator for d-dimensional inputs and empties it.
func (a *MeanAccumulator[T]) Reset(d int) {
	a.n = 0
	if cap(a.acc) < d {
		a.acc = make([]T, d)
	}
	a.acc = a.acc[:d]
	Zero(a.acc)
}

// Add folds one vector into the running sum.
func (a *MeanAccumulator[T]) Add(v []T) {
	a.n++
	Axpy(1, v, a.acc)
}

// Len returns the number of vectors folded since the accumulator was
// last emptied.
func (a *MeanAccumulator[T]) Len() int { return a.n }

// FinishInto writes the mean of the folded vectors into dst and empties
// the accumulator. Panics when nothing was folded, mirroring
// AverageInto's empty-list panic.
func (a *MeanAccumulator[T]) FinishInto(dst []float64) {
	if a.n == 0 {
		panic("tensor: MeanAccumulator.FinishInto with no inputs")
	}
	checkLen(len(dst), len(a.acc))
	// Scale while copying out and zeroing: the same multiplication per
	// element as AverageInto's in-place Scale, and the same widening.
	inv := 1 / T(a.n)
	for i, v := range a.acc {
		dst[i] = float64(v * inv)
		a.acc[i] = 0
	}
	a.n = 0
}
