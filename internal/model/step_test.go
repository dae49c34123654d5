package model

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// checkStep pins m.Step to Grad followed by AxpyTo(dst, -eta, grad, w),
// and m.StepF32 to the same on the float32 views of w and the batch,
// bit for bit in the loss and every parameter, with a separate
// destination and with dst == w, and with NaN garbage in the grad
// scratch (a step must not read what it did not write).
func checkStep(t *testing.T, m Model, n int, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	w := make([]float64, m.Dim())
	m.Init(w, r)
	r.Fill(w, 0.05) // nonzero biases too
	xs, ys := randBatch(r, n, m.InputDim(), m.NumClasses())
	checkStepAt(t, n, "Step", w, xs, ys, m.Grad, m.Step)

	w32 := make([]float32, len(w))
	tensor.ToF32(w32, w)
	xs32 := make([][]float32, n)
	for i, x := range xs {
		xs32[i] = make([]float32, len(x))
		tensor.ToF32(xs32[i], x)
	}
	grad32 := func(w, grad []float32, xs [][]float32, ys []int) float32 { return gradF32(m, w, grad, xs, ys) }
	checkStepAt(t, n, "StepF32", w32, xs32, ys, grad32, m.StepF32)
}

func checkStepAt[T tensor.Float](t *testing.T, n int, name string, w []T, xs [][]T, ys []int,
	grad func(w, grad []T, xs [][]T, ys []int) T, step func(w, dst, grad []T, xs [][]T, ys []int, eta T) T) {
	t.Helper()
	const eta = 0.05
	g := make([]T, len(w))
	wantLoss := grad(w, g, xs, ys)
	want := make([]T, len(w))
	tensor.AxpyTo(want, -eta, g, w)

	scratch := make([]T, len(w))
	fillNaN(scratch)
	dst := make([]T, len(w))
	loss := step(w, dst, scratch, xs, ys, eta)
	if math.Float64bits(float64(loss)) != math.Float64bits(float64(wantLoss)) {
		t.Fatalf("n=%d: %s loss %v, Grad loss %v", n, name, loss, wantLoss)
	}
	equalBits(t, name, dst, want)

	fillNaN(scratch)
	inPlace := append([]T(nil), w...)
	step(inPlace, inPlace, scratch, xs, ys, eta)
	equalBits(t, name+"(dst == w)", inPlace, want)
}

func fillNaN[T tensor.Float](x []T) {
	for i := range x {
		x[i] = T(math.NaN())
	}
}

// TestMLPStepMatchesGradAxpyTo runs the §6.2 shape, 784-300-100-10, in
// every kernel class and on float32 operands: n = 16 and 13 take the fused first-layer step
// (13 leaves a ragged quad tail), n = 257 spans two chunks and takes the
// Grad + AxpyTo fallback.
func TestMLPStepMatchesGradAxpyTo(t *testing.T) {
	m := NewMLP(784, 300, 100, 10)
	for _, c := range tensor.Classes() {
		t.Run(c.String(), func(t *testing.T) {
			defer tensor.SetKernel(c)()
			for _, n := range []int{16, 13, 257} {
				checkStep(t, m, n, uint64(n))
			}
		})
	}
}

// TestLinearStepMatchesGradAxpyTo pins Linear.Step and StepF32 the same
// way, in every kernel class: n = 1, 4, 16 and 256 take the fused path
// (GemmTNRStep on the weight rows; 256 is a whole chunk), n = 0 and 257
// the Grad + AxpyTo fallback.
func TestLinearStepMatchesGradAxpyTo(t *testing.T) {
	m := NewLinear(784, 10)
	for _, c := range tensor.Classes() {
		t.Run(c.String(), func(t *testing.T) {
			defer tensor.SetKernel(c)()
			for _, n := range []int{0, 1, 4, 16, batchChunk, batchChunk + 1} {
				checkStep(t, m, n, uint64(100+n))
			}
		})
	}
}
