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
// The float64 classes run the class's mean kernel once: per element a
// +0 accumulator, one axpy(1, v, ·) per input in list order, then one
// multiply by 1/n, with the accumulators in registers, so each input is
// read once and dst written once.
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
	kernels.mean(dst, 1/float64(len(vecs)), vecs64)
}

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
	// self is {acc}, the input list FinishInto hands the mean kernel.
	self [1][]T
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
	// acc sums from +0 in round-to-nearest, so it is never −0 and
	// (+0 + acc)·inv is acc·inv: the mean kernel over {acc} gives the
	// bits of AverageInto's one multiply. The float32 tier makes the
	// same multiply in one loop that also widens and zeroes.
	inv := 1 / T(a.n)
	if dstT, ok := any(dst).([]T); ok {
		a.self[0] = a.acc
		kernelsOf[T]().mean(dstT, inv, a.self[:])
		Zero(a.acc)
	} else {
		for i, v := range a.acc {
			dst[i] = float64(v * inv)
			a.acc[i] = 0
		}
	}
	a.n = 0
}
