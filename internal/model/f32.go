package model

import (
	"fmt"

	"repro/internal/tensor"
)

// Float32 training paths for the avx2f32 storage tier: both models run
// their batched loss and gradient (Model.LossF32 and Model.GradF32)
// entirely through the float32 kernel family (Gemm32/CrossEntropyRows32),
// reading float32 parameter and feature views. fl trains every client
// through them when tensor.StorageF32() holds; the float64 methods stay
// the evaluation path and the path of every other class.
//
// The structure of each method mirrors its float64 sibling line for
// line — same chunking, same kernel call order, same mean scaling — so
// the float32 trajectory is the float64 algorithm in the float32
// rounding regime, not a different algorithm.

// --- Linear ---

func (l *Linear) weights32(w []float32) *tensor.Matrix32 {
	return tensor.Matrix32From(w[:l.classes*l.in], l.classes, l.in)
}

func (l *Linear) bias32(w []float32) []float32 {
	return w[l.classes*l.in:]
}

// forwardChunk32 is forwardChunk in the float32 regime.
func (l *Linear) forwardChunk32(w []float32, xs [][]float32) {
	n := len(xs)
	l.fz.Reshape(n, l.classes)
	b := l.bias32(w)
	for r := 0; r < n; r++ {
		copy(l.fz.Row(r), b)
	}
	tensor.GemmTR32(1, xs, l.weights32(w), 1, &l.fz)
}

// LossF32 returns the mean cross-entropy over the batch in float32.
func (l *Linear) LossF32(w []float32, xs [][]float32, ys []int) float32 {
	l.checkDim32(w)
	if len(xs) == 0 {
		return 0
	}
	total := float32(0)
	for lo := 0; lo < len(xs); lo += batchChunk {
		hi := min(lo+batchChunk, len(xs))
		l.forwardChunk32(w, xs[lo:hi])
		total = tensor.CrossEntropyLossRows32(&l.fz, ys[lo:hi], total)
	}
	return total / float32(len(xs))
}

// GradF32 writes the mean gradient into grad and returns the mean loss,
// all in float32.
func (l *Linear) GradF32(w, grad []float32, xs [][]float32, ys []int) float32 {
	l.checkDim32(w)
	l.checkDim32(grad)
	tensor.Zero32(grad)
	if len(xs) == 0 {
		return 0
	}
	gW := l.weights32(grad)
	gb := l.bias32(grad)
	total := float32(0)
	inv := 1 / float32(len(xs))
	for lo := 0; lo < len(xs); lo += batchChunk {
		hi := min(lo+batchChunk, len(xs))
		n := hi - lo
		l.forwardChunk32(w, xs[lo:hi])
		l.fdz.Reshape(n, l.classes)
		total = tensor.CrossEntropyRows32(&l.fdz, &l.fz, ys[lo:hi], total)
		tensor.GemmTNR32(inv, &l.fdz, xs[lo:hi], gW)
		for r := 0; r < n; r++ {
			tensor.Axpy32(inv, l.fdz.Row(r), gb)
		}
	}
	return total * inv
}

func (l *Linear) checkDim32(w []float32) {
	if len(w) != l.Dim() {
		panic(fmt.Sprintf("model: Linear float32 parameter length %d, want %d", len(w), l.Dim()))
	}
}

// --- MLP ---

func (m *MLP) mats32(w []float32) (W1, W2, W3 *tensor.Matrix32, b1, b2, b3 []float32) {
	W1 = tensor.Matrix32From(w[m.oW1:m.ob1], m.h1, m.in)
	b1 = w[m.ob1:m.oW2]
	W2 = tensor.Matrix32From(w[m.oW2:m.ob2], m.h2, m.h1)
	b2 = w[m.ob2:m.oW3]
	W3 = tensor.Matrix32From(w[m.oW3:m.ob3], m.classes, m.h2)
	b3 = w[m.ob3:]
	return
}

// forwardChunk32 is forwardChunk in the float32 regime, leaving the
// chunk's logits in m.fz3.
func (m *MLP) forwardChunk32(w []float32, xs [][]float32) {
	W1, W2, W3, b1, b2, b3 := m.mats32(w)
	n := len(xs)
	m.fz1.Reshape(n, m.h1)
	m.fa1.Reshape(n, m.h1)
	m.fz2.Reshape(n, m.h2)
	m.fa2.Reshape(n, m.h2)
	m.fz3.Reshape(n, m.classes)
	for r := 0; r < n; r++ {
		copy(m.fz1.Row(r), b1)
	}
	tensor.GemmTR32(1, xs, W1, 1, &m.fz1)
	tensor.ReLU32(m.fa1.Data, m.fz1.Data)
	for r := 0; r < n; r++ {
		copy(m.fz2.Row(r), b2)
	}
	tensor.GemmT32(1, &m.fa1, W2, 1, &m.fz2)
	tensor.ReLU32(m.fa2.Data, m.fz2.Data)
	for r := 0; r < n; r++ {
		copy(m.fz3.Row(r), b3)
	}
	tensor.GemmT32(1, &m.fa2, W3, 1, &m.fz3)
}

// LossF32 returns the mean cross-entropy over the batch in float32.
func (m *MLP) LossF32(w []float32, xs [][]float32, ys []int) float32 {
	m.checkDim32(w)
	if len(xs) == 0 {
		return 0
	}
	total := float32(0)
	for lo := 0; lo < len(xs); lo += batchChunk {
		hi := min(lo+batchChunk, len(xs))
		m.forwardChunk32(w, xs[lo:hi])
		total = tensor.CrossEntropyLossRows32(&m.fz3, ys[lo:hi], total)
	}
	return total / float32(len(xs))
}

// GradF32 writes the mean gradient into grad and returns the mean loss,
// all in float32.
func (m *MLP) GradF32(w, grad []float32, xs [][]float32, ys []int) float32 {
	m.checkDim32(w)
	m.checkDim32(grad)
	tensor.Zero32(grad)
	if len(xs) == 0 {
		return 0
	}
	_, W2, W3, _, _, _ := m.mats32(w)
	gW1, gW2, gW3, gb1, gb2, gb3 := m.mats32(grad)
	total := float32(0)
	inv := 1 / float32(len(xs))
	for lo := 0; lo < len(xs); lo += batchChunk {
		hi := min(lo+batchChunk, len(xs))
		n := hi - lo
		m.forwardChunk32(w, xs[lo:hi])
		m.fdz3.Reshape(n, m.classes)
		total = tensor.CrossEntropyRows32(&m.fdz3, &m.fz3, ys[lo:hi], total)
		// Layer 3: gW3 += inv * dZ3ᵀ A2 ; gb3 += inv * column sums.
		tensor.GemmTN32(inv, &m.fdz3, &m.fa2, gW3)
		for r := 0; r < n; r++ {
			tensor.Axpy32(inv, m.fdz3.Row(r), gb3)
		}
		// dA2 = dZ3 W3, masked by relu'(Z2).
		m.fda2.Reshape(n, m.h2)
		tensor.Gemm32(1, &m.fdz3, W3, 0, &m.fda2)
		tensor.ReLUGrad32(m.fda2.Data, m.fda2.Data, m.fz2.Data)
		tensor.GemmTN32(inv, &m.fda2, &m.fa1, gW2)
		for r := 0; r < n; r++ {
			tensor.Axpy32(inv, m.fda2.Row(r), gb2)
		}
		// dA1 = dZ2 W2, masked by relu'(Z1).
		m.fda1.Reshape(n, m.h1)
		tensor.Gemm32(1, &m.fda2, W2, 0, &m.fda1)
		tensor.ReLUGrad32(m.fda1.Data, m.fda1.Data, m.fz1.Data)
		tensor.GemmTNR32(inv, &m.fda1, xs[lo:hi], gW1)
		for r := 0; r < n; r++ {
			tensor.Axpy32(inv, m.fda1.Row(r), gb1)
		}
	}
	return total * inv
}

func (m *MLP) checkDim32(w []float32) {
	if len(w) != m.dim {
		panic(fmt.Sprintf("model: MLP float32 parameter length %d, want %d", len(w), m.dim))
	}
}
