// Package model implements the machine-learning models of the paper's
// experiments with hand-written gradients (the Go substitution for
// PyTorch autograd): multinomial logistic regression (§6.1, convex) and a
// two-hidden-layer ReLU MLP (§6.2, non-convex), both trained with
// softmax cross-entropy.
//
// Parameters are exposed as one flat []float64 so the federated engines
// can aggregate, checkpoint and ship them as opaque vectors. Gradient
// correctness is enforced by finite-difference checks in the tests.
package model

import "repro/internal/rng"

// Model is a supervised classifier with explicit parameters and manual
// gradients. Implementations carry internal scratch buffers, so a single
// Model value must not be used from multiple goroutines; engines call
// Clone to obtain per-worker instances (cloning shares no mutable state).
type Model interface {
	// Dim returns the number of parameters d (the dimension of W ⊆ R^d).
	Dim() int
	// InputDim returns the feature dimension.
	InputDim() int
	// NumClasses returns the number of output classes.
	NumClasses() int
	// Init writes an initial parameter vector into w using stream r.
	Init(w []float64, r *rng.Stream)
	// Loss returns the mean cross-entropy of parameters w on the batch.
	Loss(w []float64, xs [][]float64, ys []int) float64
	// Grad writes the mean gradient on the batch into grad and returns
	// the mean loss. grad must have length Dim().
	Grad(w, grad []float64, xs [][]float64, ys []int) float64
	// Step writes one SGD step from w into dst, dst = w − eta·∇, and
	// returns the mean loss: bit for bit Grad(w, grad, xs, ys) followed
	// by tensor.AxpyTo(dst, -eta, grad, w), in fewer passes over the
	// model. dst may alias w; grad is scratch of length Dim(), its
	// contents afterwards unspecified.
	Step(w, dst, grad []float64, xs [][]float64, ys []int, eta float64) float64
	// LossF32 is Loss in the float32 regime of the avx2f32 storage tier,
	// over float32 parameter and feature views. Both models run it
	// through the same generic body as Loss; the method exists because
	// Go methods cannot take type parameters.
	LossF32(w []float32, xs [][]float32, ys []int) float32
	// StepF32 is Step in the float32 regime, through the same generic
	// body as Step (whose gradient half is Grad's generic body).
	StepF32(w, dst, grad []float32, xs [][]float32, ys []int, eta float32) float32
	// Predict returns the argmax class for a single input.
	Predict(w []float64, x []float64) int
	// Clone returns an independent instance (separate scratch buffers)
	// computing the identical function.
	Clone() Model
}

// Accuracy returns the fraction of examples in (xs, ys) classified
// correctly by m under parameters w. It returns 0 for an empty set.
func Accuracy(m Model, w []float64, xs [][]float64, ys []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	correct := 0
	for i, x := range xs {
		if m.Predict(w, x) == ys[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}

// batchChunk caps how many examples the models gather into one batched
// GEMM pass. Losses chain across chunks in example order via the
// running-total cross-entropy helpers, so the chunking is invisible in
// the results while bounding the activation scratch.
const batchChunk = 256
