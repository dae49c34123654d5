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
	// Batched scratch, reshaped per chunk: logits and their deltas.
	z, dz tensor.Matrix
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
	l.checkDim(len(w))
	tensor.Zero(w)
}

// params views w (checked to have length Dim) as the C×D weight matrix
// W and the trailing C bias entries b.
func (l *Linear) params(w []float64) (W tensor.Matrix, b []float64) {
	return tensor.Matrix{Rows: l.classes, Cols: l.in, Data: w[:l.classes*l.in]}, w[l.classes*l.in:]
}

// forward computes the logits of one batch chunk into l.z: each row gets
// the bias, then one blocked X·Wᵀ product adds the weight terms, reading
// the feature vectors in place (no gather copy).
func (l *Linear) forward(w []float64, xs [][]float64) {
	n := len(xs)
	l.z.Reshape(n, l.classes)
	W, b := l.params(w)
	for r := 0; r < n; r++ {
		copy(l.z.Row(r), b)
	}
	tensor.GemmTR(1, xs, &W, 1, &l.z)
}

// Loss returns the mean cross-entropy over the batch.
func (l *Linear) Loss(w []float64, xs [][]float64, ys []int) float64 {
	l.checkDim(len(w))
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for lo := 0; lo < len(xs); lo += batchChunk {
		hi := min(lo+batchChunk, len(xs))
		l.forward(w, xs[lo:hi])
		total = tensor.CrossEntropyLossRows(&l.z, ys[lo:hi], total)
	}
	return total / float64(len(xs))
}

// Grad writes the mean gradient into grad and returns the mean loss.
func (l *Linear) Grad(w, grad []float64, xs [][]float64, ys []int) float64 {
	l.checkDim(len(w))
	l.checkDim(len(grad))
	tensor.Zero(grad)
	if len(xs) == 0 {
		return 0
	}
	gW, gb := l.params(grad)
	total := 0.0
	inv := 1 / float64(len(xs))
	for lo := 0; lo < len(xs); lo += batchChunk {
		hi := min(lo+batchChunk, len(xs))
		total = l.backChunk(w, gb, xs[lo:hi], ys[lo:hi], inv, total)
		// dW += inv * dlogitsᵀ X.
		tensor.GemmTNR(inv, &l.dz, xs[lo:hi], &gW)
	}
	return total * inv
}

// backChunk runs one chunk's forward pass and cross-entropy,
// accumulating the bias gradient (inv times the column sums of the
// logit deltas) into gb and leaving the deltas in l.dz for the caller's
// weight-gradient kernel. It returns the running loss total.
func (l *Linear) backChunk(w, gb []float64, xs [][]float64, ys []int, inv, total float64) float64 {
	n := len(xs)
	l.forward(w, xs)
	l.dz.Reshape(n, l.classes)
	total = tensor.CrossEntropyRows(&l.dz, &l.z, ys, total)
	for r := 0; r < n; r++ {
		tensor.Axpy(inv, l.dz.Row(r), gb)
	}
	return total
}

// Step writes the SGD step w − eta·∇ into dst. A batch of one chunk
// takes MLP.Step's path: one forward pass and CrossEntropyRows, the bias
// gradient into grad's tail, GemmTNRStep for the weight rows (each
// gradient row built in registers and written into dst at once) and one
// AxpyTo for the bias entries, so the weight gradient never exists. Bit
// for bit Grad followed by AxpyTo(dst, -eta, grad, w); a batch that is
// empty or spans several chunks takes exactly that path.
func (l *Linear) Step(w, dst, grad []float64, xs [][]float64, ys []int, eta float64) float64 {
	if len(xs) == 0 || len(xs) > batchChunk {
		loss := l.Grad(w, grad, xs, ys)
		tensor.AxpyTo(dst, -eta, grad, w)
		return loss
	}
	l.checkDim(len(w))
	l.checkDim(len(dst))
	l.checkDim(len(grad))
	W, _ := l.params(w)
	dW, _ := l.params(dst)
	_, gb := l.params(grad)
	tensor.Zero(gb)
	inv := 1 / float64(len(xs))
	total := l.backChunk(w, gb, xs, ys, inv, 0)
	tensor.GemmTNRStep(inv, &l.dz, xs, eta, &W, &dW)
	ob := l.classes * l.in
	tensor.AxpyTo(dst[ob:], -eta, gb, w[ob:])
	return total * inv
}

// Predict returns the argmax class for x.
func (l *Linear) Predict(w []float64, x []float64) int {
	W, b := l.params(w)
	copy(l.logits, b)
	for c := 0; c < l.classes; c++ {
		l.logits[c] += tensor.Dot(W.Row(c), x)
	}
	return tensor.ArgMax(l.logits)
}

func (l *Linear) checkDim(n int) {
	if n != l.Dim() {
		panic(fmt.Sprintf("model: Linear parameter length %d, want %d", n, l.Dim()))
	}
}
