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
// scratch (a step must not read what it did not write).
func checkStep(t *testing.T, m Model, n int, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	w := make([]float64, m.Dim())
	m.Init(w, r)
	r.Fill(w, 0.05) // nonzero biases too
	xs, ys := randBatch(r, n, m.InputDim(), m.NumClasses())

	const eta = 0.05
	g := make([]float64, len(w))
	wantLoss := m.Grad(w, g, xs, ys)
	want := make([]float64, len(w))
	tensor.AxpyTo(want, -eta, g, w)

	scratch := make([]float64, len(w))
	fillNaN(scratch)
	dst := make([]float64, len(w))
	loss := m.Step(w, dst, scratch, xs, ys, eta)
	if math.Float64bits(loss) != math.Float64bits(wantLoss) {
		t.Fatalf("n=%d: Step loss %v, Grad loss %v", n, loss, wantLoss)
	}
	equalBits(t, "Step", dst, want)

	fillNaN(scratch)
	inPlace := append([]float64(nil), w...)
	m.Step(inPlace, inPlace, scratch, xs, ys, eta)
	equalBits(t, "Step(dst == w)", inPlace, want)
}

func fillNaN(x []float64) {
	for i := range x {
		x[i] = math.NaN()
	}
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

// TestLinearStepMatchesGradAxpyTo pins Linear.Step the same
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

// TestWarmCallsAllocateNothing guards the model bodies: after one
// warm-up call has sized the activation scratch, Loss, Grad and Step
// allocate nothing on Linear and on the §6.2 MLP (784-300-100-10) at the
// benchmark batch of 16, in every kernel class. An interface conversion
// that starts to allocate, or a kernel's stack scratch that starts to
// escape, fails here.
func TestWarmCallsAllocateNothing(t *testing.T) {
	for _, c := range tensor.Classes() {
		t.Run(c.String(), func(t *testing.T) {
			defer tensor.SetKernel(c)()
			for _, m := range []Model{NewLinear(784, 10), NewMLP(784, 300, 100, 10)} {
				r := rng.New(7)
				d := m.Dim()
				w, dst, grad := make([]float64, d), make([]float64, d), make([]float64, d)
				m.Init(w, r.Child(1))
				xs, ys := randBatch(r.Child(2), 16, m.InputDim(), m.NumClasses())
				for _, c := range []struct {
					name string
					call func()
				}{
					{"Loss", func() { m.Loss(w, xs, ys) }},
					{"Grad", func() { m.Grad(w, grad, xs, ys) }},
					{"Step", func() { m.Step(w, dst, grad, xs, ys, 0.01) }},
				} {
					c.call()
					if a := testing.AllocsPerRun(5, c.call); a != 0 {
						t.Errorf("%T.%s: %v allocs per warm call, want 0", m, c.name, a)
					}
				}
			}
		})
	}
}
