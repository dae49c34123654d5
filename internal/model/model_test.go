package model

import (
	"math"
	"os"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// GradCheck compares m.Grad against central finite differences of m.Loss
// at w on the given batch, probing nProbe randomly chosen coordinates. It
// returns the maximum relative error over the probes.
func GradCheck(m Model, w []float64, xs [][]float64, ys []int, nProbe int, r *rng.Stream) float64 {
	d := m.Dim()
	grad := make([]float64, d)
	m.Grad(w, grad, xs, ys)
	const h = 1e-5
	maxRel := 0.0
	for p := 0; p < nProbe; p++ {
		i := r.Intn(d)
		orig := w[i]
		w[i] = orig + h
		lp := m.Loss(w, xs, ys)
		w[i] = orig - h
		lm := m.Loss(w, xs, ys)
		w[i] = orig
		fd := (lp - lm) / (2 * h)
		denom := math.Max(1e-8, math.Abs(fd)+math.Abs(grad[i]))
		rel := math.Abs(fd-grad[i]) / denom
		if rel > maxRel {
			maxRel = rel
		}
	}
	return maxRel
}

// randomBatch builds a small synthetic batch for gradient checks.
func randomBatch(r *rng.Stream, n, d, classes int) ([][]float64, []int) {
	// Keys the go test cache on the forced class (see keyKernelClass in
	// internal/fl/fltest, which this package's tests cannot import).
	_ = os.Getenv(tensor.KernelEnv)
	xs := make([][]float64, n)
	ys := make([]int, n)
	for i := range xs {
		xs[i] = make([]float64, d)
		r.Fill(xs[i], 1)
		ys[i] = r.Intn(classes)
	}
	return xs, ys
}

func TestLinearDims(t *testing.T) {
	l := NewLinear(784, 10)
	if l.Dim() != 7850 {
		t.Fatalf("Linear Dim = %d, want 7850 (paper §6.1)", l.Dim())
	}
	if l.InputDim() != 784 || l.NumClasses() != 10 {
		t.Fatal("Linear dims wrong")
	}
}

func TestMLPDims(t *testing.T) {
	m := NewMLP(784, 300, 100, 10)
	if m.Dim() != 266610 {
		t.Fatalf("MLP Dim = %d, want 266610 (paper §6.2)", m.Dim())
	}
}

func TestLinearGradCheck(t *testing.T) {
	r := rng.New(100)
	l := NewLinear(12, 4)
	xs, ys := randomBatch(r, 7, 12, 4)
	w := make([]float64, l.Dim())
	r.Fill(w, 0.3)
	maxRel := GradCheck(l, w, xs, ys, 60, r)
	if maxRel > 1e-5 {
		t.Fatalf("Linear gradient check failed: max relative error %v", maxRel)
	}
}

func TestMLPGradCheck(t *testing.T) {
	r := rng.New(101)
	m := NewMLP(9, 8, 6, 3)
	xs, ys := randomBatch(r, 5, 9, 3)
	w := make([]float64, m.Dim())
	m.Init(w, r)
	maxRel := GradCheck(m, w, xs, ys, 120, r)
	// ReLU kinks can inflate FD error if a probe lands on a boundary;
	// with random continuous inputs this is measure-zero, so a strict
	// tolerance is still appropriate.
	if maxRel > 1e-4 {
		t.Fatalf("MLP gradient check failed: max relative error %v", maxRel)
	}
}

func TestLinearLossAtZeroIsLogC(t *testing.T) {
	l := NewLinear(5, 4)
	r := rng.New(3)
	xs, ys := randomBatch(r, 10, 5, 4)
	w := make([]float64, l.Dim())
	l.Init(w, r)
	got := l.Loss(w, xs, ys)
	want := math.Log(4)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("loss at zero params = %v, want ln(4) = %v", got, want)
	}
}

func TestGradIsZeroMeanDirection(t *testing.T) {
	// A gradient step must reduce the loss for small enough step size.
	for _, m := range []Model{NewLinear(8, 3), NewMLP(8, 6, 5, 3)} {
		r := rng.New(7)
		xs, ys := randomBatch(r, 20, 8, 3)
		w := make([]float64, m.Dim())
		m.Init(w, r)
		if _, ok := m.(*Linear); ok {
			r.Fill(w, 0.1) // move off the zero init so the gradient is nonzero
		}
		grad := make([]float64, m.Dim())
		before := m.Grad(w, grad, xs, ys)
		tensor.Axpy(-1e-3, grad, w)
		after := m.Loss(w, xs, ys)
		if after >= before {
			t.Fatalf("%T: gradient step increased loss %v -> %v", m, before, after)
		}
	}
}

func TestSGDDrivesLossDown(t *testing.T) {
	// Full-batch GD on a separable problem must approach zero loss.
	r := rng.New(9)
	l := NewLinear(2, 2)
	xs := [][]float64{{1, 0}, {0.9, 0.1}, {0, 1}, {0.1, 0.9}}
	ys := []int{0, 0, 1, 1}
	w := make([]float64, l.Dim())
	grad := make([]float64, l.Dim())
	l.Init(w, r)
	for i := 0; i < 2000; i++ {
		l.Grad(w, grad, xs, ys)
		tensor.Axpy(-0.5, grad, w)
	}
	if loss := l.Loss(w, xs, ys); loss > 0.05 {
		t.Fatalf("GD failed to fit separable data: loss %v", loss)
	}
	if acc := Accuracy(l, w, xs, ys); acc != 1 {
		t.Fatalf("accuracy %v after fitting separable data", acc)
	}
}

func TestMLPLearnsXor(t *testing.T) {
	// XOR is not linearly separable; the MLP must fit it (this exercises
	// the hidden layers' backprop end to end).
	r := rng.New(11)
	m := NewMLP(2, 8, 8, 2)
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := []int{0, 1, 1, 0}
	w := make([]float64, m.Dim())
	grad := make([]float64, m.Dim())
	m.Init(w, r)
	for i := 0; i < 4000; i++ {
		m.Grad(w, grad, xs, ys)
		tensor.Axpy(-0.3, grad, w)
	}
	if acc := Accuracy(m, w, xs, ys); acc != 1 {
		t.Fatalf("MLP failed to learn XOR: accuracy %v", acc)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	for _, m := range []Model{NewLinear(6, 3), NewMLP(6, 5, 4, 3)} {
		c := m.Clone()
		if c.Dim() != m.Dim() {
			t.Fatalf("%T: clone differs structurally", m)
		}
		r := rng.New(13)
		xs, ys := randomBatch(r, 4, 6, 3)
		w := make([]float64, m.Dim())
		m.Init(w, r)
		// Same params, same batch: identical outputs from both instances,
		// including when used in interleaved order (scratch separation).
		l1 := m.Loss(w, xs, ys)
		l2 := c.Loss(w, xs, ys)
		l3 := m.Loss(w, xs, ys)
		if l1 != l2 || l1 != l3 {
			t.Fatalf("%T: clone loss mismatch %v %v %v", m, l1, l2, l3)
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	for _, m := range []Model{NewLinear(4, 2), NewMLP(4, 3, 3, 2)} {
		w := make([]float64, m.Dim())
		grad := make([]float64, m.Dim())
		tensor.Fill(grad, 7)
		if m.Loss(w, nil, nil) != 0 {
			t.Fatalf("%T: empty-batch loss != 0", m)
		}
		if m.Grad(w, grad, nil, nil) != 0 {
			t.Fatalf("%T: empty-batch grad loss != 0", m)
		}
		if tensor.Norm2(grad) != 0 {
			t.Fatalf("%T: empty-batch gradient not zeroed", m)
		}
	}
}

func TestPanicsOnWrongParamLength(t *testing.T) {
	l := NewLinear(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong parameter length")
		}
	}()
	l.Loss(make([]float64, 3), nil, nil)
}

func TestAccuracyEmpty(t *testing.T) {
	l := NewLinear(4, 2)
	if Accuracy(l, make([]float64, l.Dim()), nil, nil) != 0 {
		t.Fatal("Accuracy on empty set should be 0")
	}
}

func TestLinearGradMatchesBatchAverage(t *testing.T) {
	// Grad over a batch must equal the average of per-example gradients.
	r := rng.New(17)
	l := NewLinear(5, 3)
	xs, ys := randomBatch(r, 6, 5, 3)
	w := make([]float64, l.Dim())
	r.Fill(w, 0.2)
	batchGrad := make([]float64, l.Dim())
	l.Grad(w, batchGrad, xs, ys)
	avg := make([]float64, l.Dim())
	g := make([]float64, l.Dim())
	for i := range xs {
		l.Grad(w, g, xs[i:i+1], ys[i:i+1])
		tensor.Axpy(1.0/float64(len(xs)), g, avg)
	}
	for i := range avg {
		if math.Abs(avg[i]-batchGrad[i]) > 1e-12 {
			t.Fatalf("batch gradient is not the average of per-example gradients at %d", i)
		}
	}
}

func BenchmarkLinearGrad(b *testing.B) {
	r := rng.New(1)
	l := NewLinear(784, 10)
	xs, ys := randomBatch(r, 8, 784, 10)
	w := make([]float64, l.Dim())
	grad := make([]float64, l.Dim())
	r.Fill(w, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Grad(w, grad, xs, ys)
	}
}

func BenchmarkMLPGrad(b *testing.B) {
	r := rng.New(1)
	m := NewMLP(784, 300, 100, 10)
	xs, ys := randomBatch(r, 8, 784, 10)
	w := make([]float64, m.Dim())
	grad := make([]float64, m.Dim())
	m.Init(w, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Grad(w, grad, xs, ys)
	}
}

// Property: for softmax cross-entropy the per-example logit gradient
// sums to zero (softmax - onehot has zero sum), so the bias-row gradient
// of the Linear model always sums to ~0 over classes.
func TestLinearBiasGradientSumsToZero(t *testing.T) {
	r := rng.New(31)
	l := NewLinear(6, 4)
	w := make([]float64, l.Dim())
	grad := make([]float64, l.Dim())
	for trial := 0; trial < 50; trial++ {
		r.Fill(w, 0.5)
		xs, ys := randomBatch(r, 3, 6, 4)
		l.Grad(w, grad, xs, ys)
		bias := grad[6*4:]
		sum := 0.0
		for _, v := range bias {
			sum += v
		}
		if math.Abs(sum) > 1e-12 {
			t.Fatalf("bias gradient sums to %v", sum)
		}
	}
}

// Property: shifting all logits of the MLP's output layer biases by a
// constant leaves predictions unchanged (softmax shift invariance end
// to end).
func TestMLPPredictionShiftInvariant(t *testing.T) {
	r := rng.New(33)
	m := NewMLP(5, 4, 3, 3)
	w := make([]float64, m.Dim())
	m.Init(w, r)
	x := make([]float64, 5)
	r.Fill(x, 1)
	before := m.Predict(w, x)
	// The last NumClasses entries are the output biases.
	for i := m.Dim() - 3; i < m.Dim(); i++ {
		w[i] += 7.5
	}
	if m.Predict(w, x) != before {
		t.Fatal("prediction changed under uniform logit shift")
	}
}
