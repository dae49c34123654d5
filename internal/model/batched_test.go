package model

import (
	"math"
	"os"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// These tests pin the batched Grad/Loss implementations to a per-example
// reference, bit for bit, on batches larger than batchChunk so the
// chunked GEMM path and the running-total loss chaining are both
// exercised. The reference reproduces the scalar computation the models
// performed before batching: Gemv-style forward per example, softmax
// cross-entropy via LogSumExp, outerAccum/Axpy gradient accumulation in
// example order.

func randBatch(r *rng.Stream, n, in, classes int) (xs [][]float64, ys []int) {
	// Keys the go test cache on the forced class (see keyKernelClass in
	// internal/fl/fltest, which this package's tests cannot import).
	_ = os.Getenv(tensor.KernelEnv)
	xs = make([][]float64, n)
	ys = make([]int, n)
	for i := range xs {
		x := make([]float64, in)
		for j := range x {
			x[j] = r.NormFloat64()
		}
		xs[i] = x
		ys[i] = r.Intn(classes)
	}
	return xs, ys
}

// softmaxGrad fills dz with the softmax of z in the active kernel
// class's arithmetic: the fused (FMA) classes avx2 and avx2f32 compute
// Softmax directly (exp(z−max)/sum), the others the historical two-pass
// exp(z−logsumexp) — exactly the branch CrossEntropyRows takes, so the
// per-example references stay bitwise-faithful under every class.
func softmaxGrad(dz, z []float64, lse float64) {
	if k := tensor.ActiveKernel(); k == tensor.KernelAVX2 || k == tensor.KernelAVX2F32 {
		tensor.Softmax(dz, z)
		return
	}
	for j, v := range z {
		dz[j] = math.Exp(v - lse)
	}
}

// outerAccum computes A += alpha * x * y^T where A is len(x) x len(y),
// skipping zero coefficients as the batched gradient kernels do.
func outerAccum(alpha float64, x, y []float64, a *tensor.Matrix) {
	for i, xi := range x {
		if xi != 0 {
			tensor.Axpy(alpha*xi, y, a.Row(i))
		}
	}
}

func equalBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if g, w := math.Float64bits(got[i]), math.Float64bits(want[i]); g != w {
			t.Fatalf("%s: element %d = %x, want %x (not bitwise equal)", name, i, g, w)
		}
	}
}

// linearReference computes Linear's loss and mean gradient one example
// at a time with BLAS-1/2 primitives only.
func linearReference(l *Linear, w []float64, xs [][]float64, ys []int, grad []float64) float64 {
	W, b := l.params(w)
	gFlat := tensor.MatrixFrom(grad[:l.classes*l.in], l.classes, l.in)
	gb := grad[l.classes*l.in:]
	tensor.Zero(grad)
	z := make([]float64, l.classes)
	dz := make([]float64, l.classes)
	inv := 1 / float64(len(xs))
	total := 0.0
	for k, x := range xs {
		for j := 0; j < l.classes; j++ {
			z[j] = 1*tensor.Dot(x, W.Row(j)) + 1*b[j]
		}
		lse := tensor.LogSumExp(z)
		total += lse - z[ys[k]]
		softmaxGrad(dz, z, lse)
		dz[ys[k]]--
		outerAccum(inv, dz, x, gFlat)
		tensor.Axpy(inv, dz, gb)
	}
	return total * inv
}

func TestLinearBatchedMatchesPerExample(t *testing.T) {
	r := rng.New(31)
	const n, in, classes = 300, 20, 5 // n > batchChunk: crosses a chunk boundary
	if n <= batchChunk {
		t.Fatal("test batch must exceed batchChunk")
	}
	l := NewLinear(in, classes)
	w := make([]float64, l.Dim())
	for i := range w {
		w[i] = 0.3 * r.NormFloat64()
	}
	xs, ys := randBatch(r, n, in, classes)

	wantGrad := make([]float64, l.Dim())
	wantLoss := linearReference(l, w, xs, ys, wantGrad)

	gotGrad := make([]float64, l.Dim())
	gotLoss := l.Grad(w, gotGrad, xs, ys)
	if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
		t.Fatalf("Grad loss = %x, want %x", math.Float64bits(gotLoss), math.Float64bits(wantLoss))
	}
	equalBits(t, "linear grad", gotGrad, wantGrad)

	if lv := l.Loss(w, xs, ys); math.Float64bits(lv) != math.Float64bits(wantLoss) {
		t.Fatalf("Loss = %x, want %x", math.Float64bits(lv), math.Float64bits(wantLoss))
	}
}

// mlpReference computes the MLP's summed loss and mean gradient one
// example at a time, mirroring the pre-batching backprop exactly. It
// returns the sum: Grad scales it by 1/n and Loss divides it by n, which
// differ in the last bit for some n (13 under avx2, for one).
func mlpReference(m *MLP, w []float64, xs [][]float64, ys []int, grad []float64) float64 {
	W1, W2, W3, b1, b2, b3 := m.mats(w)
	gW1, gW2, gW3, gb1, gb2, gb3 := m.mats(grad)
	tensor.Zero(grad)
	z1 := make([]float64, m.h1)
	a1 := make([]float64, m.h1)
	z2 := make([]float64, m.h2)
	a2 := make([]float64, m.h2)
	z3 := make([]float64, m.classes)
	dz3 := make([]float64, m.classes)
	da2 := make([]float64, m.h2)
	da1 := make([]float64, m.h1)
	inv := 1 / float64(len(xs))
	total := 0.0
	for k, x := range xs {
		for j := 0; j < m.h1; j++ {
			z1[j] = 1*tensor.Dot(x, W1.Row(j)) + 1*b1[j]
		}
		tensor.ReLU(a1, z1)
		for j := 0; j < m.h2; j++ {
			z2[j] = 1*tensor.Dot(a1, W2.Row(j)) + 1*b2[j]
		}
		tensor.ReLU(a2, z2)
		for j := 0; j < m.classes; j++ {
			z3[j] = 1*tensor.Dot(a2, W3.Row(j)) + 1*b3[j]
		}
		lse := tensor.LogSumExp(z3)
		total += lse - z3[ys[k]]
		softmaxGrad(dz3, z3, lse)
		dz3[ys[k]]--

		outerAccum(inv, dz3, a2, &gW3)
		tensor.Axpy(inv, dz3, gb3)
		tensor.Zero(da2)
		for j, d := range dz3 {
			tensor.Axpy(1*d, W3.Row(j), da2)
		}
		tensor.ReLUGrad(da2, da2, z2)
		outerAccum(inv, da2, a1, &gW2)
		tensor.Axpy(inv, da2, gb2)
		tensor.Zero(da1)
		for j, d := range da2 {
			tensor.Axpy(1*d, W2.Row(j), da1)
		}
		tensor.ReLUGrad(da1, da1, z1)
		outerAccum(inv, da1, x, &gW1)
		tensor.Axpy(inv, da1, gb1)
	}
	return total
}

// TestMLPBatchedMatchesPerExample runs a toy shape, whose panels never
// split, and the paper's 784-300-100-10 MLP at the workload batch (16),
// an odd tail (13) and one example past the chunk boundary (257).
func TestMLPBatchedMatchesPerExample(t *testing.T) {
	for _, s := range []struct{ n, in, h1, h2, classes int }{
		{300, 12, 9, 7, 4},
		{16, 784, 300, 100, 10},
		{13, 784, 300, 100, 10},
		{batchChunk + 1, 784, 300, 100, 10},
	} {
		r := rng.New(37)
		m := NewMLP(s.in, s.h1, s.h2, s.classes)
		w := make([]float64, m.Dim())
		m.Init(w, rng.New(5))
		xs, ys := randBatch(r, s.n, s.in, s.classes)

		wantGrad := make([]float64, m.Dim())
		sum := mlpReference(m, w, xs, ys, wantGrad)

		gotGrad := make([]float64, m.Dim())
		gotLoss := m.Grad(w, gotGrad, xs, ys)
		if want := sum * (1 / float64(s.n)); math.Float64bits(gotLoss) != math.Float64bits(want) {
			t.Fatalf("%+v: Grad loss = %x, want %x", s, math.Float64bits(gotLoss), math.Float64bits(want))
		}
		equalBits(t, "mlp grad", gotGrad, wantGrad)

		if lv, want := m.Loss(w, xs, ys), sum/float64(s.n); math.Float64bits(lv) != math.Float64bits(want) {
			t.Fatalf("%+v: Loss = %x, want %x", s, math.Float64bits(lv), math.Float64bits(want))
		}
	}
}

// TestGradCheckAcrossChunkBoundary runs the finite-difference check on a
// batch larger than batchChunk, so the FD probe exercises the chunked
// batched path end to end.
func TestGradCheckAcrossChunkBoundary(t *testing.T) {
	r := rng.New(41)
	for _, m := range []Model{NewLinear(8, 3), NewMLP(8, 6, 5, 3)} {
		w := make([]float64, m.Dim())
		m.Init(w, rng.New(9))
		xs, ys := randBatch(r, batchChunk+20, 8, 3)
		if rel := GradCheck(m, w, xs, ys, 12, rng.New(3)); rel > 1e-5 {
			t.Fatalf("%T: FD relative error %g on chunked batch", m, rel)
		}
	}
}
