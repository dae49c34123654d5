package tensor

import (
	"math"
	"testing"
)

// TestMeanAccumulatorMatchesAverageInto pins the streaming-fold
// contract: folding vectors one at a time must produce bit-for-bit the
// vector AverageInto computes from the whole list, in every kernel
// class (ci.sh runs this suite under all four forced classes), on
// float32 rows on the storage tier, and again once FinishInto has
// emptied the accumulator.
func TestMeanAccumulatorMatchesAverageInto(t *testing.T) {
	const d = 257 // odd length exercises the kernel tails
	state := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(int64(state%2000)-1000) / 512
	}
	for _, n := range []int{1, 2, 3, 7, 30} {
		vecs := make([][]float64, n)
		for i := range vecs {
			vecs[i] = make([]float64, d)
			for j := range vecs[i] {
				vecs[i][j] = next()
			}
		}
		want := make([]float64, d)
		AverageInto(want, vecs...)

		got := make([]float64, d)
		if !StorageF32() {
			streamMean(t, n, vecs, got, want)
			continue
		}
		// The storage tier streams float32 rows (the values are
		// float32-representable).
		rows := make([][]float32, n)
		for i, v := range vecs {
			rows[i] = make([]float32, d)
			ToF32(rows[i], v)
		}
		streamMean(t, n, rows, got, want)
	}
}

// streamMean folds vecs through one MeanAccumulator twice — the second
// time after FinishInto emptied it — and checks both means against want.
func streamMean[T Float](t *testing.T, n int, vecs [][]T, got, want []float64) {
	t.Helper()
	var acc MeanAccumulator[T]
	acc.Reset(len(want))
	for pass := 0; pass < 2; pass++ {
		for _, v := range vecs {
			acc.Add(v)
		}
		acc.FinishInto(got)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("n=%d pass %d: streaming mean differs from AverageInto at %d: %x vs %x",
					n, pass, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
			}
		}
	}
}

// TestMeanAccumulatorEmptyPanics mirrors AverageInto's contract.
func TestMeanAccumulatorEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FinishInto with no inputs did not panic")
		}
	}()
	var acc MeanAccumulator[float64]
	acc.Reset(8)
	acc.FinishInto(make([]float64, 8))
}
