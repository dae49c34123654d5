package fl

import (
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// TestLocalSGDScratchZeroAllocs pins the training hot path: once the
// scratch is warm, a full local-SGD block must not allocate at all.
func TestLocalSGDScratchZeroAllocs(t *testing.T) {
	m := model.NewLinear(4, 2)
	shard := toyShard(7, 40)
	w := make([]float64, m.Dim())
	rng.New(1).Fill(w, 0.1)
	iterSum := make([]float64, m.Dim())
	wChk := make([]float64, m.Dim())
	r := rng.New(2)
	var s Scratch

	// Warm the scratch and the model's batched scratch.
	LocalSGDScratch(m, w, shard, 8, 4, 0.05, nil, r, 3, iterSum, wChk, &s)

	allocs := testing.AllocsPerRun(100, func() {
		LocalSGDScratch(m, w, shard, 8, 4, 0.05, nil, r, 3, iterSum, wChk, &s)
	})
	if allocs != 0 {
		t.Fatalf("LocalSGDScratch steady state allocates %.1f objects per run, want 0", allocs)
	}
}

// TestLocalSGDScratchMatchesLocalSGD checks the in-place entry point
// against the allocating wrapper: same stream draws, same trajectory,
// same checkpoint.
func TestLocalSGDScratchMatchesLocalSGD(t *testing.T) {
	m := model.NewLinear(4, 2)
	shard := toyShard(8, 30)
	w0 := make([]float64, m.Dim())
	rng.New(3).Fill(w0, 0.2)

	wantFinal, wantChk := LocalSGD(m, w0, shard, 6, 3, 0.1, nil, rng.New(4), 4, nil)

	w := append([]float64(nil), w0...)
	chk := make([]float64, m.Dim())
	if !LocalSGDScratch(m, w, shard, 6, 3, 0.1, nil, rng.New(4), 4, nil, chk, new(Scratch)) {
		t.Fatal("LocalSGDScratch did not report a checkpoint at chkAt=4")
	}
	for i := range w {
		if w[i] != wantFinal[i] || chk[i] != wantChk[i] {
			t.Fatal("LocalSGDScratch diverged from LocalSGD")
		}
	}
}

// TestLocalSGDFromStartMatchesCopy pins localSGD(start ≠ w), the call a
// Fold lane makes, to copy(w, start) + LocalSGDScratch bit for bit —
// final model, checkpoint, iterate sum and report — with start left
// untouched: with the checkpoint off, at the first step, mid-block and
// at the last step (the one case that copies), with no steps, with and
// without the iterate sum, in every kernel class
// (on the avx2f32 tier on float32 rows, as the lanes train there).
func TestLocalSGDFromStartMatchesCopy(t *testing.T) {
	for _, c := range tensor.Classes() {
		t.Run(c.String(), func(t *testing.T) {
			defer tensor.SetKernel(c)()
			m := model.NewLinear(4, 2)
			d := m.Dim()
			shard := toyShard(9, 30)
			start := make([]float64, d)
			rng.New(10).Fill(start, 0.5)
			tensor.Round32(start) // storage-representable on every tier
			orig := append([]float64(nil), start...)
			for _, steps := range []int{0, 4} {
				for _, chkAt := range []int{0, 1, 2, 4} {
					for _, track := range []bool{false, true} {
						name := fmt.Sprintf("steps=%d chkAt=%d track=%v", steps, chkAt, track)
						var sumWant, sumGot []float64
						if track {
							sumWant, sumGot = make([]float64, d), make([]float64, d)
						}
						want, chkWant := append([]float64(nil), start...), make([]float64, d)
						okWant := LocalSGDScratch(m, want, shard, steps, 3, 0.2, nil, rng.New(11), chkAt, sumWant, chkWant, new(Scratch))

						got, chkGot := make([]float64, d), make([]float64, d)
						var okGot bool
						if tensor.StorageF32() {
							okGot = fromStart32(t, m, start, got, shard, steps, chkAt, sumGot, chkGot)
						} else {
							okGot = localSGD(m, start, got, shard, steps, 3, 0.2, rng.New(11), chkAt, sumGot, chkGot, new(Scratch))
						}
						if okGot != okWant {
							t.Fatalf("%s: reported %v, want %v", name, okGot, okWant)
						}
						sameBits(t, name+" w", got, want)
						sameBits(t, name+" chk", chkGot, chkWant)
						if track {
							sameBits(t, name+" iterate sum", sumGot, sumWant)
						}
						sameBits(t, name+" start", start, orig)
					}
				}
			}
		})
	}
}

// fromStart32 runs the float32 localSGD from the narrowed start into
// float32 rows and widens the final model, checkpoint and iterate sum
// into w, wChk and iterSum, failing if it wrote to start.
func fromStart32(t *testing.T, m model.Model, start, w []float64, shard data.Subset, steps, chkAt int, iterSum, wChk []float64) bool {
	t.Helper()
	d := len(start)
	start32, w32, chk32 := make([]float32, d), make([]float32, d), make([]float32, d)
	tensor.ToF32(start32, start)
	orig := append([]float32(nil), start32...)
	var sum32 []float32
	if iterSum != nil {
		sum32 = make([]float32, d)
		tensor.ToF32(sum32, iterSum)
	}
	ok := localSGD(m, start32, w32, shard, steps, 3, 0.2, rng.New(11), chkAt, sum32, chk32, new(Scratch))
	for j := range start32 {
		if start32[j] != orig[j] {
			t.Fatalf("localSGD wrote to its float32 start at %d", j)
		}
	}
	tensor.ToF64(w, w32)
	if ok {
		tensor.ToF64(wChk, chk32)
	}
	if sum32 != nil {
		tensor.ToF64(iterSum, sum32)
	}
	return ok
}
