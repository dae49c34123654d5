package model

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// makeBatch32 builds a random batch with float64 rows and their exact
// float32 mirrors (rows generated in float32 so both views hold the
// same values).
func makeBatch32(r *rng.Stream, n, dim, classes int) (xs [][]float64, xs32 [][]float32, ys []int) {
	xs = make([][]float64, n)
	xs32 = make([][]float32, n)
	ys = make([]int, n)
	for i := range xs {
		xs[i] = make([]float64, dim)
		xs32[i] = make([]float32, dim)
		for j := range xs[i] {
			v := float32(r.NormFloat64())
			xs32[i][j] = v
			xs[i][j] = float64(v)
		}
		ys[i] = r.Intn(classes)
	}
	return
}

// gradF32 is Grad on float32 operands, through m's generic gradient
// body.
func gradF32(m Model, w, grad []float32, xs [][]float32, ys []int) float32 {
	switch m := m.(type) {
	case *Linear:
		return linearGrad(m, &m.s32, w, grad, xs, ys)
	case *MLP:
		return mlpGrad(m, &m.s32, w, grad, xs, ys)
	}
	panic(fmt.Sprintf("gradF32: %T", m))
}

// testF32AgainstF64 checks one model's float32 loss and gradient
// against the float64 path on identical (float32-representable)
// parameters and batches, within float32 accumulation tolerance.
func testF32AgainstF64(t *testing.T, m Model, seed uint64, tol float64) {
	t.Helper()
	r := rng.New(seed)
	w := make([]float64, m.Dim())
	m.Init(w, r.Child(1))
	tensor.Round32(w)
	w32 := make([]float32, m.Dim())
	tensor.ToF32(w32, w)

	xs, xs32, ys := makeBatch32(r.Child(2), 37, m.InputDim(), m.NumClasses())

	l64 := m.Loss(w, xs, ys)
	l32 := float64(m.LossF32(w32, xs32, ys))
	if math.Abs(l64-l32) > tol*(1+math.Abs(l64)) {
		t.Fatalf("%T LossF32 = %g, Loss = %g", m, l32, l64)
	}

	g64 := make([]float64, m.Dim())
	g32 := make([]float32, m.Dim())
	m.Grad(w, g64, xs, ys)
	gl := float64(gradF32(m, w32, g32, xs32, ys))
	if math.Abs(l64-gl) > tol*(1+math.Abs(l64)) {
		t.Fatalf("%T float32 Grad loss = %g, Loss = %g", m, gl, l64)
	}
	for i := range g64 {
		if d := math.Abs(float64(g32[i]) - g64[i]); d > tol*(1+math.Abs(g64[i])) {
			t.Fatalf("%T float32 Grad[%d] = %g, Grad = %g (diff %g)", m, i, g32[i], g64[i], d)
		}
	}
}

// TestLinearF32MatchesF64 pins the float32 training path of the convex
// model to its float64 sibling within float32 rounding tolerance — same
// algorithm, different rounding regime.
func TestLinearF32MatchesF64(t *testing.T) {
	testF32AgainstF64(t, NewLinear(13, 5), 17, 2e-5)
}

// TestMLPF32MatchesF64 pins the float32 training path of the MLP.
func TestMLPF32MatchesF64(t *testing.T) {
	testF32AgainstF64(t, NewMLP(9, 12, 8, 4), 19, 5e-5)
}

// TestF32GradDeterministic pins bitwise determinism of the float32 gradient: two
// independent clones on the same inputs produce identical float32 bits.
func TestF32GradDeterministic(t *testing.T) {
	for _, m := range []Model{NewLinear(7, 3), NewMLP(6, 10, 7, 3)} {
		m2 := m.Clone()
		r := rng.New(23)
		w := make([]float64, m.Dim())
		m.Init(w, r.Child(1))
		w32 := make([]float32, m.Dim())
		tensor.ToF32(w32, w)
		_, xs32, ys := makeBatch32(r.Child(2), 19, m.InputDim(), m.NumClasses())
		a := make([]float32, m.Dim())
		b := make([]float32, m.Dim())
		la := gradF32(m, w32, a, xs32, ys)
		lb := gradF32(m2, w32, b, xs32, ys)
		if math.Float32bits(la) != math.Float32bits(lb) {
			t.Fatalf("%T: clone loss differs: %x vs %x", m, math.Float32bits(la), math.Float32bits(lb))
		}
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				t.Fatalf("%T: clone grad[%d] differs", m, i)
			}
		}
	}
}

// TestF32EmptyBatch mirrors TestEmptyBatch for the float32 path.
func TestF32EmptyBatch(t *testing.T) {
	for _, m := range []Model{NewLinear(4, 2), NewMLP(4, 5, 3, 2)} {
		w32 := make([]float32, m.Dim())
		g32 := make([]float32, m.Dim())
		g32[0] = 7
		if l := m.LossF32(w32, nil, nil); l != 0 {
			t.Fatalf("%T LossF32 on empty batch = %v", m, l)
		}
		if l := gradF32(m, w32, g32, nil, nil); l != 0 || g32[0] != 0 {
			t.Fatalf("%T float32 Grad on empty batch: loss %v, grad[0] %v", m, l, g32[0])
		}
	}
}

// TestWarmCallsAllocateNothing guards the generic model bodies at both
// storage widths: after one warm-up call has sized the activation
// scratch, Loss, Grad, Step and their float32 forms allocate nothing on
// Linear and on the §6.2 MLP (784-300-100-10) at the benchmark batch of
// 16, in every kernel class. A type dispatch or an interface
// conversion that starts to allocate inside a generic body, or a
// kernel's stack scratch that starts to escape, fails here.
func TestWarmCallsAllocateNothing(t *testing.T) {
	for _, c := range tensor.Classes() {
		t.Run(c.String(), func(t *testing.T) {
			defer tensor.SetKernel(c)()
			checkWarmCalls(t)
		})
	}
}

func checkWarmCalls(t *testing.T) {
	for _, m := range []Model{NewLinear(784, 10), NewMLP(784, 300, 100, 10)} {
		r := rng.New(7)
		d := m.Dim()
		w, dst, grad := make([]float64, d), make([]float64, d), make([]float64, d)
		m.Init(w, r.Child(1))
		tensor.Round32(w)
		w32, dst32, grad32 := make([]float32, d), make([]float32, d), make([]float32, d)
		tensor.ToF32(w32, w)
		xs, xs32, ys := makeBatch32(r.Child(2), 16, m.InputDim(), m.NumClasses())
		for _, c := range []struct {
			name string
			call func()
		}{
			{"Loss", func() { m.Loss(w, xs, ys) }},
			{"Grad", func() { m.Grad(w, grad, xs, ys) }},
			{"Step", func() { m.Step(w, dst, grad, xs, ys, 0.01) }},
			{"LossF32", func() { m.LossF32(w32, xs32, ys) }},
			{"GradF32", func() { gradF32(m, w32, grad32, xs32, ys) }},
			{"StepF32", func() { m.StepF32(w32, dst32, grad32, xs32, ys, 0.01) }},
		} {
			c.call()
			if a := testing.AllocsPerRun(5, c.call); a != 0 {
				t.Errorf("%T.%s: %v allocs per warm call, want 0", m, c.name, a)
			}
		}
	}
}
