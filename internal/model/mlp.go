package model

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// MLP is a fully-connected network with two ReLU hidden layers and a
// softmax cross-entropy head, matching the non-convex model of §6.2
// (hidden sizes 300 and 100 → 266,610 parameters for D=784, C=10).
//
// Parameter layout (flat, in order):
//
//	W1 (H1×D) | b1 (H1) | W2 (H2×H1) | b2 (H2) | W3 (C×H2) | b3 (C)
//
// Loss and Grad run whole mini-batches through the blocked GEMM
// kernels, chunked at batchChunk rows; the activation matrices are
// reused across calls so the training hot path allocates nothing after
// warm-up. The batched pass is bitwise-identical to per-example
// evaluation — see the determinism contract in internal/tensor.
// LossF32 and StepF32 run the same generic bodies on float32 operands
// (the avx2f32 storage tier), with scratch of their own.
type MLP struct {
	in, h1, h2, classes int
	// Slice offsets into the flat parameter vector.
	oW1, ob1, oW2, ob2, oW3, ob3, dim int
	// Per-example scratch (Predict).
	z1, a1, z2, a2, logits []float64
	// Batched scratch per storage width, reshaped per chunk: s64 for
	// Loss, Grad and Step, s32 for their float32 forms.
	s64 mlpScratch[float64]
	s32 mlpScratch[float32]
}

// mlpScratch is the MLP's batched activation scratch at width T, plus
// g1, one row of the first-layer weight gradient (Step).
type mlpScratch[T tensor.Float] struct {
	z1, a1, z2, a2, z3 tensor.Mat[T]
	dz3, da2, da1      tensor.Mat[T]
	g1                 []T
}

// NewMLP returns an MLP with the given layer sizes.
func NewMLP(inputDim, hidden1, hidden2, numClasses int) *MLP {
	if inputDim <= 0 || hidden1 <= 0 || hidden2 <= 0 || numClasses < 2 {
		panic("model: invalid MLP dimensions")
	}
	m := &MLP{in: inputDim, h1: hidden1, h2: hidden2, classes: numClasses}
	m.oW1 = 0
	m.ob1 = m.oW1 + hidden1*inputDim
	m.oW2 = m.ob1 + hidden1
	m.ob2 = m.oW2 + hidden2*hidden1
	m.oW3 = m.ob2 + hidden2
	m.ob3 = m.oW3 + numClasses*hidden2
	m.dim = m.ob3 + numClasses
	m.z1 = make([]float64, hidden1)
	m.a1 = make([]float64, hidden1)
	m.z2 = make([]float64, hidden2)
	m.a2 = make([]float64, hidden2)
	m.logits = make([]float64, numClasses)
	m.s64.g1, m.s32.g1 = make([]float64, inputDim), make([]float32, inputDim)
	return m
}

// Dim returns the total parameter count.
func (m *MLP) Dim() int { return m.dim }

// InputDim returns the feature dimension.
func (m *MLP) InputDim() int { return m.in }

// NumClasses returns the number of classes.
func (m *MLP) NumClasses() int { return m.classes }

// HiddenSizes returns the two hidden-layer widths.
func (m *MLP) HiddenSizes() (h1, h2 int) { return m.h1, m.h2 }

// Clone returns an independent instance with fresh scratch buffers.
func (m *MLP) Clone() Model { return NewMLP(m.in, m.h1, m.h2, m.classes) }

// Init fills w with He-normal weights (std sqrt(2/fanIn), appropriate for
// ReLU) and zero biases.
func (m *MLP) Init(w []float64, r *rng.Stream) {
	m.checkDim(len(w))
	r.Fill(w[m.oW1:m.ob1], math.Sqrt(2/float64(m.in)))
	tensor.Zero(w[m.ob1:m.oW2])
	r.Fill(w[m.oW2:m.ob2], math.Sqrt(2/float64(m.h1)))
	tensor.Zero(w[m.ob2:m.oW3])
	r.Fill(w[m.oW3:m.ob3], math.Sqrt(2/float64(m.h2)))
	tensor.Zero(w[m.ob3:])
}

// mlpMats views w (checked to have length Dim) as the three weight
// matrices and the three bias vectors. The matrices are returned by
// value: the function is too large to inline, and pointers would move
// every view to the heap on every call.
func mlpMats[T tensor.Float](m *MLP, w []T) (W1, W2, W3 tensor.Mat[T], b1, b2, b3 []T) {
	W1 = tensor.Mat[T]{Rows: m.h1, Cols: m.in, Data: w[m.oW1:m.ob1]}
	b1 = w[m.ob1:m.oW2]
	W2 = tensor.Mat[T]{Rows: m.h2, Cols: m.h1, Data: w[m.oW2:m.ob2]}
	b2 = w[m.ob2:m.oW3]
	W3 = tensor.Mat[T]{Rows: m.classes, Cols: m.h2, Data: w[m.oW3:m.ob3]}
	b3 = w[m.ob3:]
	return
}

func (m *MLP) forward(w, x []float64) {
	W1, W2, W3, b1, b2, b3 := mlpMats(m, w)
	copy(m.z1, b1)
	tensor.Gemv(1, &W1, x, 1, m.z1)
	tensor.ReLU(m.a1, m.z1)
	copy(m.z2, b2)
	tensor.Gemv(1, &W2, m.a1, 1, m.z2)
	tensor.ReLU(m.a2, m.z2)
	copy(m.logits, b3)
	tensor.Gemv(1, &W3, m.a2, 1, m.logits)
}

// mlpForward runs the batched forward pass for one chunk, leaving the
// chunk's logits in s.z3 and the pre/post activations in s.z*/s.a*.
// The feature vectors are read in place (no gather copy); ReLU over the
// flat backing array equals the row-wise application.
func mlpForward[T tensor.Float](m *MLP, s *mlpScratch[T], w []T, xs [][]T) {
	W1, W2, W3, b1, b2, b3 := mlpMats(m, w)
	n := len(xs)
	s.z1.Reshape(n, m.h1)
	s.a1.Reshape(n, m.h1)
	s.z2.Reshape(n, m.h2)
	s.a2.Reshape(n, m.h2)
	s.z3.Reshape(n, m.classes)
	for r := 0; r < n; r++ {
		copy(s.z1.Row(r), b1)
	}
	tensor.GemmTR(1, xs, &W1, 1, &s.z1)
	tensor.ReLU(s.a1.Data, s.z1.Data)
	for r := 0; r < n; r++ {
		copy(s.z2.Row(r), b2)
	}
	tensor.GemmT(1, &s.a1, &W2, 1, &s.z2)
	tensor.ReLU(s.a2.Data, s.z2.Data)
	for r := 0; r < n; r++ {
		copy(s.z3.Row(r), b3)
	}
	tensor.GemmT(1, &s.a2, &W3, 1, &s.z3)
}

// Loss returns the mean cross-entropy over the batch.
func (m *MLP) Loss(w []float64, xs [][]float64, ys []int) float64 {
	return mlpLoss(m, &m.s64, w, xs, ys)
}

// LossF32 is Loss on the float32 storage tier.
func (m *MLP) LossF32(w []float32, xs [][]float32, ys []int) float32 {
	return mlpLoss(m, &m.s32, w, xs, ys)
}

func mlpLoss[T tensor.Float](m *MLP, s *mlpScratch[T], w []T, xs [][]T, ys []int) T {
	m.checkDim(len(w))
	if len(xs) == 0 {
		return 0
	}
	var total T
	for lo := 0; lo < len(xs); lo += batchChunk {
		hi := min(lo+batchChunk, len(xs))
		mlpForward(m, s, w, xs[lo:hi])
		total = tensor.CrossEntropyLossRows(&s.z3, ys[lo:hi], total)
	}
	return total / T(len(xs))
}

// Grad writes the mean gradient into grad and returns the mean loss.
func (m *MLP) Grad(w, grad []float64, xs [][]float64, ys []int) float64 {
	return mlpGrad(m, &m.s64, w, grad, xs, ys)
}

func mlpGrad[T tensor.Float](m *MLP, s *mlpScratch[T], w, grad []T, xs [][]T, ys []int) T {
	m.checkDim(len(w))
	m.checkDim(len(grad))
	tensor.Zero(grad)
	if len(xs) == 0 {
		return 0
	}
	gW1, _, _, _, _, _ := mlpMats(m, grad)
	var total T
	inv := 1 / T(len(xs))
	for lo := 0; lo < len(xs); lo += batchChunk {
		hi := min(lo+batchChunk, len(xs))
		total = mlpBackChunk(m, s, w, grad, xs[lo:hi], ys[lo:hi], inv, total)
		tensor.GemmTNR(inv, &s.da1, xs[lo:hi], &gW1)
	}
	return total * inv
}

// Step writes the SGD step w − eta·∇ into dst. A batch of one chunk
// never materializes the first-layer weight gradient — 1.88 MB of the
// 2.13 MB at the §6.2 shape: GemmTNRStep builds it row by row in the
// L1-sized s.g1 and writes each dst row of W1 as soon as its gradient
// row is complete. The smaller layers go through grad[ob1:] and one
// AxpyTo. Bit for bit Grad followed by AxpyTo(dst, -eta, grad, w); a
// batch that is empty or spans several chunks takes exactly that path.
func (m *MLP) Step(w, dst, grad []float64, xs [][]float64, ys []int, eta float64) float64 {
	return mlpStep(m, &m.s64, w, dst, grad, xs, ys, eta)
}

// StepF32 is Step on the float32 storage tier.
func (m *MLP) StepF32(w, dst, grad []float32, xs [][]float32, ys []int, eta float32) float32 {
	return mlpStep(m, &m.s32, w, dst, grad, xs, ys, eta)
}

func mlpStep[T tensor.Float](m *MLP, s *mlpScratch[T], w, dst, grad []T, xs [][]T, ys []int, eta T) T {
	if len(xs) == 0 || len(xs) > batchChunk {
		loss := mlpGrad(m, s, w, grad, xs, ys)
		tensor.AxpyTo(dst, -eta, grad, w)
		return loss
	}
	m.checkDim(len(w))
	m.checkDim(len(dst))
	m.checkDim(len(grad))
	tensor.Zero(grad[m.ob1:])
	inv := 1 / T(len(xs))
	total := mlpBackChunk(m, s, w, grad, xs, ys, inv, 0)
	W1, _, _, _, _, _ := mlpMats(m, w)
	dW1, _, _, _, _, _ := mlpMats(m, dst)
	tensor.GemmTNRStep(inv, &s.da1, xs, eta, &W1, &dW1, s.g1)
	tensor.AxpyTo(dst[m.ob1:], -eta, grad[m.ob1:], w[m.ob1:])
	return total * inv
}

// mlpBackChunk runs one chunk's forward and backward pass, accumulating
// every gradient but the first-layer weights' into grad and leaving the
// masked first-layer deltas in s.da1 for the caller's weight-gradient
// kernel. It returns the running loss total.
func mlpBackChunk[T tensor.Float](m *MLP, s *mlpScratch[T], w, grad []T, xs [][]T, ys []int, inv, total T) T {
	_, W2, W3, _, _, _ := mlpMats(m, w)
	_, gW2, gW3, gb1, gb2, gb3 := mlpMats(m, grad)
	n := len(xs)
	mlpForward(m, s, w, xs)
	s.dz3.Reshape(n, m.classes)
	total = tensor.CrossEntropyRows(&s.dz3, &s.z3, ys, total)
	// Layer 3: gW3 += inv * dZ3ᵀ A2 ; gb3 += inv * column sums.
	tensor.GemmTN(inv, &s.dz3, &s.a2, &gW3)
	for r := 0; r < n; r++ {
		tensor.Axpy(inv, s.dz3.Row(r), gb3)
	}
	// dA2 = dZ3 W3, masked by relu'(Z2).
	s.da2.Reshape(n, m.h2)
	tensor.Gemm(1, &s.dz3, &W3, 0, &s.da2)
	tensor.ReLUGrad(s.da2.Data, s.da2.Data, s.z2.Data)
	tensor.GemmTN(inv, &s.da2, &s.a1, &gW2)
	for r := 0; r < n; r++ {
		tensor.Axpy(inv, s.da2.Row(r), gb2)
	}
	// dA1 = dZ2 W2, masked by relu'(Z1); gb1 += inv * column sums.
	s.da1.Reshape(n, m.h1)
	tensor.Gemm(1, &s.da2, &W2, 0, &s.da1)
	tensor.ReLUGrad(s.da1.Data, s.da1.Data, s.z1.Data)
	for r := 0; r < n; r++ {
		tensor.Axpy(inv, s.da1.Row(r), gb1)
	}
	return total
}

// Predict returns the argmax class for x.
func (m *MLP) Predict(w []float64, x []float64) int {
	m.forward(w, x)
	return tensor.ArgMax(m.logits)
}

func (m *MLP) checkDim(n int) {
	if n != m.dim {
		panic(fmt.Sprintf("model: MLP parameter length %d, want %d", n, m.dim))
	}
}
