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
type MLP struct {
	in, h1, h2, classes int
	// Slice offsets into the flat parameter vector.
	oW1, ob1, oW2, ob2, oW3, ob3, dim int
	// Per-example scratch (Predict).
	z1, a1, z2, a2, logits []float64
	// Batched scratch, reshaped per chunk.
	bz1, ba1, bz2, ba2, bz3 tensor.Matrix
	dz3, da2, da1           tensor.Matrix
	// g1 holds one row of the first-layer weight gradient (Step).
	g1 []float64
	// Float32 batched scratch (the avx2f32 storage tier; see f32.go).
	fz1, fa1, fz2, fa2, fz3 tensor.Matrix32
	fdz3, fda2, fda1        tensor.Matrix32
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
	m.g1 = make([]float64, inputDim)
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
	m.checkDim(w)
	r.Fill(w[m.oW1:m.ob1], math.Sqrt(2/float64(m.in)))
	tensor.Zero(w[m.ob1:m.oW2])
	r.Fill(w[m.oW2:m.ob2], math.Sqrt(2/float64(m.h1)))
	tensor.Zero(w[m.ob2:m.oW3])
	r.Fill(w[m.oW3:m.ob3], math.Sqrt(2/float64(m.h2)))
	tensor.Zero(w[m.ob3:])
}

func (m *MLP) mats(w []float64) (W1, W2, W3 *tensor.Matrix, b1, b2, b3 []float64) {
	W1 = tensor.MatrixFrom(w[m.oW1:m.ob1], m.h1, m.in)
	b1 = w[m.ob1:m.oW2]
	W2 = tensor.MatrixFrom(w[m.oW2:m.ob2], m.h2, m.h1)
	b2 = w[m.ob2:m.oW3]
	W3 = tensor.MatrixFrom(w[m.oW3:m.ob3], m.classes, m.h2)
	b3 = w[m.ob3:]
	return
}

func (m *MLP) forward(w, x []float64) {
	W1, W2, W3, b1, b2, b3 := m.mats(w)
	copy(m.z1, b1)
	tensor.Gemv(1, W1, x, 1, m.z1)
	tensor.ReLU(m.a1, m.z1)
	copy(m.z2, b2)
	tensor.Gemv(1, W2, m.a1, 1, m.z2)
	tensor.ReLU(m.a2, m.z2)
	copy(m.logits, b3)
	tensor.Gemv(1, W3, m.a2, 1, m.logits)
}

// forwardChunk runs the batched forward pass for one chunk, leaving the
// chunk's logits in m.bz3 and the pre/post activations in m.bz*/m.ba*.
// The feature vectors are read in place (no gather copy); ReLU over the
// flat backing array equals the row-wise application.
func (m *MLP) forwardChunk(w []float64, xs [][]float64) {
	W1, W2, W3, b1, b2, b3 := m.mats(w)
	n := len(xs)
	m.bz1.Reshape(n, m.h1)
	m.ba1.Reshape(n, m.h1)
	m.bz2.Reshape(n, m.h2)
	m.ba2.Reshape(n, m.h2)
	m.bz3.Reshape(n, m.classes)
	for r := 0; r < n; r++ {
		copy(m.bz1.Row(r), b1)
	}
	tensor.GemmTR(1, xs, W1, 1, &m.bz1)
	tensor.ReLU(m.ba1.Data, m.bz1.Data)
	for r := 0; r < n; r++ {
		copy(m.bz2.Row(r), b2)
	}
	tensor.GemmT(1, &m.ba1, W2, 1, &m.bz2)
	tensor.ReLU(m.ba2.Data, m.bz2.Data)
	for r := 0; r < n; r++ {
		copy(m.bz3.Row(r), b3)
	}
	tensor.GemmT(1, &m.ba2, W3, 1, &m.bz3)
}

// Loss returns the mean cross-entropy over the batch.
func (m *MLP) Loss(w []float64, xs [][]float64, ys []int) float64 {
	m.checkDim(w)
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for lo := 0; lo < len(xs); lo += batchChunk {
		hi := min(lo+batchChunk, len(xs))
		m.forwardChunk(w, xs[lo:hi])
		total = tensor.CrossEntropyLossRows(&m.bz3, ys[lo:hi], total)
	}
	return total / float64(len(xs))
}

// Grad writes the mean gradient into grad and returns the mean loss.
func (m *MLP) Grad(w, grad []float64, xs [][]float64, ys []int) float64 {
	m.checkDim(w)
	m.checkDim(grad)
	tensor.Zero(grad)
	if len(xs) == 0 {
		return 0
	}
	gW1, _, _, _, _, _ := m.mats(grad)
	total := 0.0
	inv := 1 / float64(len(xs))
	for lo := 0; lo < len(xs); lo += batchChunk {
		hi := min(lo+batchChunk, len(xs))
		total = m.backChunk(w, grad, xs[lo:hi], ys[lo:hi], inv, total)
		tensor.GemmTNR(inv, &m.da1, xs[lo:hi], gW1)
	}
	return total * inv
}

// Step writes the SGD step w − eta·∇ into dst. A batch of one chunk
// never materializes the first-layer weight gradient — 1.88 MB of the
// 2.13 MB at the §6.2 shape: GemmTNRStep builds it row by row in the
// L1-sized m.g1 and writes each dst row of W1 as soon as its gradient
// row is complete. The smaller layers go through grad[ob1:] and one
// AxpyTo. Bit for bit Grad followed by AxpyTo(dst, -eta, grad, w); a
// batch that is empty or spans several chunks takes exactly that path.
func (m *MLP) Step(w, dst, grad []float64, xs [][]float64, ys []int, eta float64) float64 {
	if len(xs) == 0 || len(xs) > batchChunk {
		loss := m.Grad(w, grad, xs, ys)
		tensor.AxpyTo(dst, -eta, grad, w)
		return loss
	}
	m.checkDim(w)
	m.checkDim(dst)
	m.checkDim(grad)
	tensor.Zero(grad[m.ob1:])
	inv := 1 / float64(len(xs))
	total := m.backChunk(w, grad, xs, ys, inv, 0)
	W1 := tensor.MatrixFrom(w[m.oW1:m.ob1], m.h1, m.in)
	dW1 := tensor.MatrixFrom(dst[m.oW1:m.ob1], m.h1, m.in)
	tensor.GemmTNRStep(inv, &m.da1, xs, eta, W1, dW1, m.g1)
	tensor.AxpyTo(dst[m.ob1:], -eta, grad[m.ob1:], w[m.ob1:])
	return total * inv
}

// backChunk runs one chunk's forward and backward pass, accumulating
// every gradient but the first-layer weights' into grad and leaving the
// masked first-layer deltas in m.da1 for the caller's weight-gradient
// kernel. It returns the running loss total.
func (m *MLP) backChunk(w, grad []float64, xs [][]float64, ys []int, inv, total float64) float64 {
	_, W2, W3, _, _, _ := m.mats(w)
	_, gW2, gW3, gb1, gb2, gb3 := m.mats(grad)
	n := len(xs)
	m.forwardChunk(w, xs)
	m.dz3.Reshape(n, m.classes)
	total = tensor.CrossEntropyRows(&m.dz3, &m.bz3, ys, total)
	// Layer 3: gW3 += inv * dZ3ᵀ A2 ; gb3 += inv * column sums.
	tensor.GemmTN(inv, &m.dz3, &m.ba2, gW3)
	for r := 0; r < n; r++ {
		tensor.Axpy(inv, m.dz3.Row(r), gb3)
	}
	// dA2 = dZ3 W3, masked by relu'(Z2).
	m.da2.Reshape(n, m.h2)
	tensor.Gemm(1, &m.dz3, W3, 0, &m.da2)
	tensor.ReLUGrad(m.da2.Data, m.da2.Data, m.bz2.Data)
	tensor.GemmTN(inv, &m.da2, &m.ba1, gW2)
	for r := 0; r < n; r++ {
		tensor.Axpy(inv, m.da2.Row(r), gb2)
	}
	// dA1 = dZ2 W2, masked by relu'(Z1); gb1 += inv * column sums.
	m.da1.Reshape(n, m.h1)
	tensor.Gemm(1, &m.da2, W2, 0, &m.da1)
	tensor.ReLUGrad(m.da1.Data, m.da1.Data, m.bz1.Data)
	for r := 0; r < n; r++ {
		tensor.Axpy(inv, m.da1.Row(r), gb1)
	}
	return total
}

// Predict returns the argmax class for x.
func (m *MLP) Predict(w []float64, x []float64) int {
	m.forward(w, x)
	return tensor.ArgMax(m.logits)
}

func (m *MLP) checkDim(w []float64) {
	if len(w) != m.dim {
		panic(fmt.Sprintf("model: MLP parameter length %d, want %d", len(w), m.dim))
	}
}
