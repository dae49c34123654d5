package model

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// checkStep pins m.Step to Grad followed by AxpyTo(dst, -eta, grad, w),
// bit for bit in the loss and every parameter, with a separate
// destination and with dst == w, and with NaN garbage in the grad
// scratch (Step must not read what it did not write).
func checkStep(t *testing.T, m Model, n int, seed uint64) {
	t.Helper()
	const eta = 0.05
	r := rng.New(seed)
	w := make([]float64, m.Dim())
	m.Init(w, r)
	r.Fill(w, 0.05) // nonzero biases too
	xs, ys := randBatch(r, n, m.InputDim(), m.NumClasses())

	grad := make([]float64, m.Dim())
	wantLoss := m.Grad(w, grad, xs, ys)
	want := make([]float64, m.Dim())
	tensor.AxpyTo(want, -eta, grad, w)

	scratch := make([]float64, m.Dim())
	tensor.Fill(scratch, math.NaN())
	dst := make([]float64, m.Dim())
	loss := m.Step(w, dst, scratch, xs, ys, eta)
	if math.Float64bits(loss) != math.Float64bits(wantLoss) {
		t.Fatalf("n=%d: Step loss %v, Grad loss %v", n, loss, wantLoss)
	}
	equalBits(t, "Step", dst, want)

	tensor.Fill(scratch, math.NaN())
	inPlace := append([]float64(nil), w...)
	m.Step(inPlace, inPlace, scratch, xs, ys, eta)
	equalBits(t, "Step(dst == w)", inPlace, want)
}

// TestMLPStepMatchesGradAxpyTo runs the §6.2 shape, 784-300-100-10, in
// every kernel class: n = 16 and 13 take the fused first-layer step
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

// TestLinearStepMatchesGradAxpyTo pins Linear.Step the same way, in
// every kernel class.
func TestLinearStepMatchesGradAxpyTo(t *testing.T) {
	m := NewLinear(784, 10)
	for _, c := range tensor.Classes() {
		t.Run(c.String(), func(t *testing.T) {
			defer tensor.SetKernel(c)()
			for _, n := range []int{0, 4, 257} {
				checkStep(t, m, n, uint64(100+n))
			}
		})
	}
}
