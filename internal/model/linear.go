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
// evaluation (see internal/tensor's determinism contract). LossF32 and
// StepF32 run the same generic bodies on float32 operands (the avx2f32
// storage tier), with scratch of their own.
type Linear struct {
	in, classes int
	// Per-example scratch (Predict).
	logits []float64
	// Batched scratch per storage width, reshaped per chunk: s64 for
	// Loss, Grad and Step, s32 for their float32 forms.
	s64 linearScratch[float64]
	s32 linearScratch[float32]
}

// linearScratch is Linear's batched activation scratch at width T.
type linearScratch[T tensor.Float] struct{ z, dz tensor.Mat[T] }

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

// linearParams views w (checked to have length Dim) as the C×D weight
// matrix W and the trailing C bias entries b.
func linearParams[T tensor.Float](l *Linear, w []T) (W tensor.Mat[T], b []T) {
	return tensor.Mat[T]{Rows: l.classes, Cols: l.in, Data: w[:l.classes*l.in]}, w[l.classes*l.in:]
}

// linearForward computes the logits of one batch chunk into s.z: each
// row gets the bias, then one blocked X·Wᵀ product adds the weight
// terms, reading the feature vectors in place (no gather copy).
func linearForward[T tensor.Float](l *Linear, s *linearScratch[T], w []T, xs [][]T) {
	n := len(xs)
	s.z.Reshape(n, l.classes)
	W, b := linearParams(l, w)
	for r := 0; r < n; r++ {
		copy(s.z.Row(r), b)
	}
	tensor.GemmTR(1, xs, &W, 1, &s.z)
}

// Loss returns the mean cross-entropy over the batch.
func (l *Linear) Loss(w []float64, xs [][]float64, ys []int) float64 {
	return linearLoss(l, &l.s64, w, xs, ys)
}

// LossF32 is Loss on the float32 storage tier.
func (l *Linear) LossF32(w []float32, xs [][]float32, ys []int) float32 {
	return linearLoss(l, &l.s32, w, xs, ys)
}

func linearLoss[T tensor.Float](l *Linear, s *linearScratch[T], w []T, xs [][]T, ys []int) T {
	l.checkDim(len(w))
	if len(xs) == 0 {
		return 0
	}
	var total T
	for lo := 0; lo < len(xs); lo += batchChunk {
		hi := min(lo+batchChunk, len(xs))
		linearForward(l, s, w, xs[lo:hi])
		total = tensor.CrossEntropyLossRows(&s.z, ys[lo:hi], total)
	}
	return total / T(len(xs))
}

// Grad writes the mean gradient into grad and returns the mean loss.
func (l *Linear) Grad(w, grad []float64, xs [][]float64, ys []int) float64 {
	return linearGrad(l, &l.s64, w, grad, xs, ys)
}

func linearGrad[T tensor.Float](l *Linear, s *linearScratch[T], w, grad []T, xs [][]T, ys []int) T {
	l.checkDim(len(w))
	l.checkDim(len(grad))
	tensor.Zero(grad)
	if len(xs) == 0 {
		return 0
	}
	gW, gb := linearParams(l, grad)
	var total T
	inv := 1 / T(len(xs))
	for lo := 0; lo < len(xs); lo += batchChunk {
		hi := min(lo+batchChunk, len(xs))
		total = linearBackChunk(l, s, w, gb, xs[lo:hi], ys[lo:hi], inv, total)
		// dW += inv * dlogitsᵀ X.
		tensor.GemmTNR(inv, &s.dz, xs[lo:hi], &gW)
	}
	return total * inv
}

// linearBackChunk runs one chunk's forward pass and cross-entropy,
// accumulating the bias gradient (inv times the column sums of the
// logit deltas) into gb and leaving the deltas in s.dz for the caller's
// weight-gradient kernel. It returns the running loss total.
func linearBackChunk[T tensor.Float](l *Linear, s *linearScratch[T], w, gb []T, xs [][]T, ys []int, inv, total T) T {
	n := len(xs)
	linearForward(l, s, w, xs)
	s.dz.Reshape(n, l.classes)
	total = tensor.CrossEntropyRows(&s.dz, &s.z, ys, total)
	for r := 0; r < n; r++ {
		tensor.Axpy(inv, s.dz.Row(r), gb)
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
	return linearStep(l, &l.s64, w, dst, grad, xs, ys, eta)
}

// StepF32 is Step on the float32 storage tier.
func (l *Linear) StepF32(w, dst, grad []float32, xs [][]float32, ys []int, eta float32) float32 {
	return linearStep(l, &l.s32, w, dst, grad, xs, ys, eta)
}

func linearStep[T tensor.Float](l *Linear, s *linearScratch[T], w, dst, grad []T, xs [][]T, ys []int, eta T) T {
	if len(xs) == 0 || len(xs) > batchChunk {
		loss := linearGrad(l, s, w, grad, xs, ys)
		tensor.AxpyTo(dst, -eta, grad, w)
		return loss
	}
	l.checkDim(len(w))
	l.checkDim(len(dst))
	l.checkDim(len(grad))
	W, _ := linearParams(l, w)
	dW, _ := linearParams(l, dst)
	_, gb := linearParams(l, grad)
	tensor.Zero(gb)
	inv := 1 / T(len(xs))
	total := linearBackChunk(l, s, w, gb, xs, ys, inv, 0)
	tensor.GemmTNRStep(inv, &s.dz, xs, eta, &W, &dW)
	ob := l.classes * l.in
	tensor.AxpyTo(dst[ob:], -eta, gb, w[ob:])
	return total * inv
}

// Predict returns the argmax class for x.
func (l *Linear) Predict(w []float64, x []float64) int {
	W, b := linearParams(l, w)
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
