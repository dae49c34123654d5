package tensor

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// TestMeanAccumulatorMatchesAverageInto pins the streaming-fold
// contract: folding vectors one at a time must produce bit-for-bit the
// vector AverageInto computes from the whole list, in every kernel
// class, on float32 rows on the storage tier, and again once FinishInto
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
					Round32(vecs[i]) // the storage tier's vectors are float32-representable
				}
				checkStreamMean(t, vecs)
			}
		}
	})
}

// checkStreamMean compares AverageInto over vecs with the streamed mean
// of the same vectors at the active class's storage width.
func checkStreamMean(t *testing.T, vecs [][]float64) {
	t.Helper()
	d, n := len(vecs[0]), len(vecs)
	want := make([]float64, d)
	AverageInto(want, vecs...)
	got := make([]float64, d)
	if !StorageF32() {
		streamMean(t, n, vecs, got, want)
		return
	}
	rows := make([][]float32, n)
	for i, v := range vecs {
		rows[i] = make([]float32, d)
		ToF32(rows[i], v)
	}
	streamMean(t, n, rows, got, want)
}

// TestAveragingAllocatesNothing: a warm AverageInto over a list and a
// warm MeanAccumulator round allocate nothing in any class, at a length
// past the storage tier's column block.
func TestAveragingAllocatesNothing(t *testing.T) {
	forEachClass(t, func(t *testing.T) {
		const d = 2*avgBlock + 5
		vecs := [][]float64{make([]float64, d), make([]float64, d), make([]float64, d)}
		dst := make([]float64, d)
		avg := func() { AverageInto(dst, vecs...) }
		avg()
		if a := testing.AllocsPerRun(5, avg); a != 0 {
			t.Errorf("AverageInto: %v allocs per warm call, want 0", a)
		}
		var acc MeanAccumulator[float64]
		var acc32 MeanAccumulator[float32]
		row32 := make([]float32, d)
		fold := func() {
			acc.Reset(d)
			acc.Add(vecs[0])
			acc.FinishInto(dst)
			acc32.Reset(d)
			acc32.Add(row32)
			acc32.FinishInto(dst)
		}
		fold()
		if a := testing.AllocsPerRun(5, fold); a != 0 {
			t.Errorf("MeanAccumulator: %v allocs per warm round, want 0", a)
		}
	})
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
