package tensor

// AverageInto writes the elementwise average of the given vectors into
// dst. All vectors must share dst's length; the list must be non-empty.
// The summation order is the list order, so the result is deterministic.
// Every engine aggregates model vectors through this one function — the
// single chokepoint that defines the regime's averaging arithmetic. It
// runs the class's mean kernel once: per element a +0 accumulator, one
// axpy(1, v, ·) per input in list order, then one multiply by 1/n, with
// the accumulators in registers, so each input is read once and dst
// written once.
func AverageInto(dst []float64, vecs ...[]float64) {
	if len(vecs) == 0 {
		panic("tensor: AverageInto with no inputs")
	}
	for _, v := range vecs {
		checkLen(len(dst), len(v))
	}
	kernels.mean(dst, 1/float64(len(vecs)), vecs)
}

// MeanAccumulator is the streaming form of AverageInto: callers fold
// vectors in one at a time (in a deterministic order) and finish into a
// destination, producing bit-for-bit the result AverageInto computes
// from the same list — same kernels, same summation order. fl.Fold
// streams a cohort through it, so its accumulators stay O(d) instead of
// holding a per-client table.
//
// A zero MeanAccumulator is ready after Reset; FinishInto leaves it
// empty and ready for the next mean. Instances are reusable and safe to
// keep per slot (not concurrently).
type MeanAccumulator struct {
	acc []float64 // all zero while n == 0
	n   int
	// self is {acc}, the input list FinishInto hands the mean kernel.
	self [1][]float64
}

// Reset readies the accumulator for d-dimensional inputs and empties it.
func (a *MeanAccumulator) Reset(d int) {
	a.n = 0
	if cap(a.acc) < d {
		a.acc = make([]float64, d)
	}
	a.acc = a.acc[:d]
	Zero(a.acc)
}

// Add folds one vector into the running sum.
func (a *MeanAccumulator) Add(v []float64) {
	a.n++
	Axpy(1, v, a.acc)
}

// Len returns the number of vectors folded since the accumulator was
// last emptied.
func (a *MeanAccumulator) Len() int { return a.n }

// FinishInto writes the mean of the folded vectors into dst and empties
// the accumulator. Panics when nothing was folded, mirroring
// AverageInto's empty-list panic.
func (a *MeanAccumulator) FinishInto(dst []float64) {
	if a.n == 0 {
		panic("tensor: MeanAccumulator.FinishInto with no inputs")
	}
	checkLen(len(dst), len(a.acc))
	// acc sums from +0 in round-to-nearest, so it is never −0 and
	// (+0 + acc)·inv is acc·inv: the mean kernel over {acc} gives the
	// bits of AverageInto's one multiply.
	a.self[0] = a.acc
	kernels.mean(dst, 1/float64(a.n), a.self[:])
	Zero(a.acc)
	a.n = 0
}
