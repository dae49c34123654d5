package model

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Linear is multinomial (softmax) logistic regression: logits = W·x + b
// with W ∈ R^{C×D}, b ∈ R^C. Cross-entropy in these parameters is convex,
// matching the convex-loss experiments of §6.1 (7850 parameters for
// D=784, C=10, as in the paper's EMNIST setup).
//
// Loss and Grad process whole mini-batches as B×D matrices through the
// blocked GEMM kernels; the activation scratch grows to the largest
// batch chunk seen and is reused, so steady-state training allocates
// nothing. The batched path is bitwise-identical to per-example
// evaluation (see internal/tensor's determinism contract).
type Linear struct {
	in, classes int
	// Per-example scratch (Predict).
	logits []float64
	// Batched scratch, reshaped per chunk.
	z, dz tensor.Matrix
	// Float32 batched scratch (the avx2f32 storage tier; see f32.go).
	fz, fdz tensor.Matrix32
}

// NewLinear returns a logistic-regression model for inputDim features and
// numClasses classes.
func NewLinear(inputDim, numClasses int) *Linear {
	if inputDim <= 0 || numClasses < 2 {
		panic("model: invalid Linear dimensions")
	}
	return &Linear{
		in:      inputDim,
		classes: numClasses,
		logits:  make([]float64, numClasses),
	}
}

// Dim returns C*D + C.
func (l *Linear) Dim() int { return l.classes*l.in + l.classes }

// InputDim returns the feature dimension D.
func (l *Linear) InputDim() int { return l.in }

// NumClasses returns C.
func (l *Linear) NumClasses() int { return l.classes }

// Clone returns an independent instance with fresh scratch buffers.
func (l *Linear) Clone() Model { return NewLinear(l.in, l.classes) }

// Init zeroes the parameters; the convex problem needs no symmetry
// breaking and zero init matches the common logistic-regression start.
func (l *Linear) Init(w []float64, _ *rng.Stream) {
	l.checkDim(w)
	tensor.Zero(w)
}

// weights views w as the C×D weight matrix; bias views the trailing C
// entries.
func (l *Linear) weights(w []float64) *tensor.Matrix {
	return tensor.MatrixFrom(w[:l.classes*l.in], l.classes, l.in)
}

func (l *Linear) bias(w []float64) []float64 {
	return w[l.classes*l.in:]
}

// forwardChunk computes the logits of one batch chunk into l.z: each row
// gets the bias, then one blocked X·Wᵀ product adds the weight terms,
// reading the feature vectors in place (no gather copy).
func (l *Linear) forwardChunk(w []float64, xs [][]float64) {
	n := len(xs)
	l.z.Reshape(n, l.classes)
	b := l.bias(w)
	for r := 0; r < n; r++ {
		copy(l.z.Row(r), b)
	}
	tensor.GemmTR(1, xs, l.weights(w), 1, &l.z)
}

// Loss returns the mean cross-entropy over the batch.
func (l *Linear) Loss(w []float64, xs [][]float64, ys []int) float64 {
	l.checkDim(w)
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for lo := 0; lo < len(xs); lo += batchChunk {
		hi := min(lo+batchChunk, len(xs))
		l.forwardChunk(w, xs[lo:hi])
		total = tensor.CrossEntropyLossRows(&l.z, ys[lo:hi], total)
	}
	return total / float64(len(xs))
}

// Grad writes the mean gradient into grad and returns the mean loss.
func (l *Linear) Grad(w, grad []float64, xs [][]float64, ys []int) float64 {
	l.checkDim(w)
	l.checkDim(grad)
	tensor.Zero(grad)
	if len(xs) == 0 {
		return 0
	}
	gW := l.weights(grad)
	gb := l.bias(grad)
	total := 0.0
	inv := 1 / float64(len(xs))
	for lo := 0; lo < len(xs); lo += batchChunk {
		hi := min(lo+batchChunk, len(xs))
		n := hi - lo
		l.forwardChunk(w, xs[lo:hi])
		l.dz.Reshape(n, l.classes)
		total = tensor.CrossEntropyRows(&l.dz, &l.z, ys[lo:hi], total)
		// dW += inv * dlogitsᵀ X ; db += inv * column sums of dlogits.
		tensor.GemmTNR(inv, &l.dz, xs[lo:hi], gW)
		for r := 0; r < n; r++ {
			tensor.Axpy(inv, l.dz.Row(r), gb)
		}
	}
	return total * inv
}

// Step writes the SGD step w − eta·∇ into dst: Grad, then one AxpyTo.
func (l *Linear) Step(w, dst, grad []float64, xs [][]float64, ys []int, eta float64) float64 {
	loss := l.Grad(w, grad, xs, ys)
	tensor.AxpyTo(dst, -eta, grad, w)
	return loss
}

// Predict returns the argmax class for x.
func (l *Linear) Predict(w []float64, x []float64) int {
	W := l.weights(w)
	copy(l.logits, l.bias(w))
	for c := 0; c < l.classes; c++ {
		l.logits[c] += tensor.Dot(W.Row(c), x)
	}
	return tensor.ArgMax(l.logits)
}

func (l *Linear) checkDim(w []float64) {
	if len(w) != l.Dim() {
		panic(fmt.Sprintf("model: Linear parameter length %d, want %d", len(w), l.Dim()))
	}
}
