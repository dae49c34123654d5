package tensor

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// TestMeanAccumulatorMatchesAverageInto pins the streaming-fold
// contract: folding vectors one at a time must produce bit-for-bit the
// vector AverageInto computes from the whole list, in every kernel
// class, and again once FinishInto
// has emptied the accumulator — on ordinary values, and on special ones
// (±0, subnormals, infinities, NaN) across the kernels' tail lengths,
// where FinishInto's kernel over the lone sum must still give
// AverageInto's one multiply.
func TestMeanAccumulatorMatchesAverageInto(t *testing.T) {
	forEachClass(t, func(t *testing.T) {
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
			checkStreamMean(t, vecs)
		}
		r := rng.New(61)
		for _, d := range tailLengths {
			for _, n := range meanInputs {
				vecs := make([][]float64, n)
				for i := range vecs {
					vecs[i] = make([]float64, d)
					fillSpecial(r, vecs[i])
					sprinkleSpecials(r, vecs[i])
				}
				checkStreamMean(t, vecs)
			}
		}
	})
}

// checkStreamMean folds vecs through one MeanAccumulator twice — the
// second time after FinishInto emptied it — and checks both means
// against AverageInto over the same list.
func checkStreamMean(t *testing.T, vecs [][]float64) {
	t.Helper()
	d, n := len(vecs[0]), len(vecs)
	want := make([]float64, d)
	AverageInto(want, vecs...)
	got := make([]float64, d)
	var acc MeanAccumulator
	acc.Reset(d)
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

// TestAveragingAllocatesNothing: a warm AverageInto over a list and a
// warm MeanAccumulator round allocate nothing in any class, at a length
// past the kernels' column chunk.
func TestAveragingAllocatesNothing(t *testing.T) {
	forEachClass(t, func(t *testing.T) {
		const d = 2*2048 + 5
		vecs := [][]float64{make([]float64, d), make([]float64, d), make([]float64, d)}
		dst := make([]float64, d)
		avg := func() { AverageInto(dst, vecs...) }
		avg()
		if a := testing.AllocsPerRun(5, avg); a != 0 {
			t.Errorf("AverageInto: %v allocs per warm call, want 0", a)
		}
		var acc MeanAccumulator
		fold := func() {
			acc.Reset(d)
			acc.Add(vecs[0])
			acc.FinishInto(dst)
		}
		fold()
		if a := testing.AllocsPerRun(5, fold); a != 0 {
			t.Errorf("MeanAccumulator: %v allocs per warm round, want 0", a)
		}
	})
}

// TestMeanAccumulatorEmptyPanics mirrors AverageInto's contract.
func TestMeanAccumulatorEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FinishInto with no inputs did not panic")
		}
	}()
	var acc MeanAccumulator
	acc.Reset(8)
	acc.FinishInto(make([]float64, 8))
}
