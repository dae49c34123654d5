package fl

import (
	"sync"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/simplex"
	"repro/internal/tensor"
)

// Scratch holds the working buffers of a local-SGD block or a mini-batch
// loss estimate: the gradient scratch model.Step works in (the MLP
// leaves its first-layer rows unused) and the sampled batch views. The
// iterates themselves live in the caller's vectors: a block reads its
// start vector and writes the caller's final and checkpoint rows, so a
// Scratch holds no model-sized copy of them. The zero value is ready to
// use; buffers grow on demand and are reused across calls. Long-lived
// single-owner callers (the simnet client actors) keep one resident so
// their hot path never touches a shared pool; the others — a Fold's
// lane workers, LocalSGD, CohortLossEstimate — recycle instances via
// sgdPool, once per worker or call.
type Scratch struct {
	grad []float64
	xs   [][]float64
	ys   []int
	// Float32 state of the avx2f32 storage tier: the gradient and batch
	// views of the native float32 block (sgd32), a float64 staging
	// buffer for non-trivial projections, and the float32 mirrors of a
	// float64 caller's iterate, iterate sum and checkpoint (localSGD32,
	// and the iterate alone for the loss estimates). Each is sized only
	// where it is used.
	grad32, w32, iterSum32, chk32 []float32
	xs32                          [][]float32
	proj                          []float64
	// Cohort-side state of the Scratch's owner: the row-alias tables of
	// the population shard it last materialized (Cohort.shard) and, for
	// CohortLossEstimate, the cohort being evaluated.
	shard  population.ShardScratch
	cohort Cohort
}

var sgdPool = sync.Pool{New: func() any { return new(Scratch) }}

func (s *Scratch) size(dim, batch int) {
	if cap(s.grad) < dim {
		s.grad = make([]float64, dim)
	}
	s.grad = s.grad[:dim]
	if cap(s.xs) < batch {
		s.xs = make([][]float64, batch)
		s.ys = make([]int, batch)
	}
	s.xs = s.xs[:batch]
	s.ys = s.ys[:batch]
}

// size32 sizes the float32 batch views (the ys buffer is shared with
// the float64 path via size).
func (s *Scratch) size32(batch int) {
	s.size(0, batch)
	s.xs32 = GrowVec(s.xs32, batch)
}

// LocalSGD runs `steps` projected SGD steps (Eq. 4) on one client's
// shard, starting from a copy of w0 (w0 is not modified).
//
// If chkAt is in [1, steps], wChk is a copy of the iterate after chkAt
// steps — the client-side checkpoint of Algorithm 1 Part (b); otherwise
// wChk is nil.
//
// If iterSum is non-nil, every pre-step iterate w^(t) (t = 0..steps-1) is
// accumulated into it, which is what the time-averaged wHat of the
// convex analysis sums over.
func LocalSGD(m model.Model, w0 []float64, shard data.Subset, steps, batch int, eta float64, W simplex.Set, r *rng.Stream, chkAt int, iterSum []float64) (wFinal, wChk []float64) {
	w := append([]float64(nil), w0...)
	chk := make([]float64, len(w0))
	s := sgdPool.Get().(*Scratch)
	defer sgdPool.Put(s)
	if LocalSGDScratch(m, w, shard, steps, batch, eta, W, r, chkAt, iterSum, chk, s) {
		wChk = chk
	}
	return w, wChk
}

// LocalSGDScratch is the allocation-free core of LocalSGD: it advances w
// in place through `steps` projected SGD steps with all working buffers
// in the caller's Scratch. If chkAt is in [1, steps], the iterate after
// chkAt steps is copied into wChk and the function reports true;
// otherwise wChk is untouched. The sampling, gradient and projection
// sequence is identical to LocalSGD's.
func LocalSGDScratch(m model.Model, w []float64, shard data.Subset, steps, batch int, eta float64, W simplex.Set, r *rng.Stream, chkAt int, iterSum, wChk []float64, s *Scratch) bool {
	return localSGD(m, w, w, shard, steps, batch, eta, W, r, chkAt, iterSum, wChk, s)
}

// localSGD is LocalSGDScratch from a separate start vector: the block
// reads start (left unmodified) on step 0 and leaves its final iterate
// in w — the same bits as copy(w, start) followed by LocalSGDScratch,
// without the copy. Each step reads its iterate and writes the next one
// through model.Step; the checkpoint step writes straight into wChk and
// the step after it reads back from there, so no whole-model copy runs
// unless the checkpoint is the last step (or there are no steps).
// start may alias w. On the avx2f32 tier the block runs natively in
// float32 (localSGD32).
func localSGD(m model.Model, start, w []float64, shard data.Subset, steps, batch int, eta float64, W simplex.Set, r *rng.Stream, chkAt int, iterSum, wChk []float64, s *Scratch) bool {
	if tensor.StorageF32() {
		return localSGD32(m, start, w, shard, steps, batch, eta, W, r, chkAt, iterSum, wChk, s)
	}
	s.size(len(w), batch)
	cur := start
	for t := 0; t < steps; t++ {
		if iterSum != nil {
			tensor.StorageAdd(iterSum, cur)
		}
		shard.SampleInto(r, s.xs, s.ys)
		next := w
		if t+1 == chkAt {
			next = wChk
		}
		m.Step(cur, next, s.grad, s.xs, s.ys, eta)
		W.Project(next)
		cur = next
	}
	if &cur[0] != &w[0] {
		copy(w, cur)
	}
	return chkAt >= 1 && chkAt <= steps
}

// localSGD32 is localSGD on the avx2f32 tier for float64 callers (the
// simnet client actors and LocalSGD): it narrows the start iterate (and
// iterate sum) into float32 mirrors, runs the native float32 block
// sgd32, and widens the results back into w, iterSum and wChk. All
// conversions are exact under the storage invariant (start and iterSum
// hold float32-representable values), so the float64 vectors the
// callers see are the float32 trajectory widened. A Fold's lanes skip
// this adapter and run sgd32 on float32 rows.
func localSGD32(m model.Model, start, w []float64, shard data.Subset, steps, batch int, eta float64, W simplex.Set, r *rng.Stream, chkAt int, iterSum, wChk []float64, s *Scratch) bool {
	d := len(w)
	s.w32, s.chk32 = GrowVec(s.w32, d), GrowVec(s.chk32, d)
	tensor.ToF32(s.w32, start)
	var sum32 []float32
	if iterSum != nil {
		s.iterSum32 = GrowVec(s.iterSum32, d)
		tensor.ToF32(s.iterSum32, iterSum)
		sum32 = s.iterSum32
	}
	checkpointed := sgd32(m, s.w32, shard, steps, batch, eta, W, r, chkAt, sum32, s.chk32, s)
	tensor.ToF64(w, s.w32)
	if sum32 != nil {
		tensor.ToF64(iterSum, sum32)
	}
	if checkpointed {
		tensor.ToF64(wChk, s.chk32)
	}
	return checkpointed
}

// sgd32 is the native-float32 local SGD block: it advances w32 in place
// through `steps` projected SGD steps with float32 sampling (same
// stream draws as the float64 path), GradF32 and a float32 step, never
// leaving float32 storage except for a non-trivial projection (the
// simplex.Set contract is float64). If chkAt is in [1, steps], the
// iterate after chkAt steps is copied into wChk32 and the function
// reports true. If iterSum32 is non-nil every pre-step iterate is
// accumulated into it with one fma32 rounding per element — exactly
// StorageAdd's float32 addition on the widened mirrors.
func sgd32(m model.Model, w32 []float32, shard data.Subset, steps, batch int, eta float64, W simplex.Set, r *rng.Stream, chkAt int, iterSum32, wChk32 []float32, s *Scratch) bool {
	s.size32(batch)
	s.grad32 = GrowVec(s.grad32, len(w32))
	_, freeW := W.(simplex.FullSpace)
	eta32 := float32(eta)
	checkpointed := false
	for t := 0; t < steps; t++ {
		if iterSum32 != nil {
			tensor.Axpy(1, w32, iterSum32)
		}
		shard.SampleInto32(r, s.xs32, s.ys)
		m.GradF32(w32, s.grad32, s.xs32, s.ys)
		tensor.Axpy(-eta32, s.grad32, w32)
		if !freeW {
			// Non-trivial W: project in float64 (the Set contract) and
			// round back to storage.
			s.proj = GrowVec(s.proj, len(w32))
			tensor.ToF64(s.proj, w32)
			W.Project(s.proj)
			tensor.Round32(s.proj)
			tensor.ToF32(w32, s.proj)
		}
		if t+1 == chkAt {
			copy(wChk32, w32)
			checkpointed = true
		}
	}
	return checkpointed
}

// ShardLossEstimate draws one mini-batch from the shard (consuming the
// same stream values as Subset.Sample) and returns the model loss of w on
// it, using the caller's Scratch for the batch views. It is the
// allocation-free client half of the Phase-2 LossEstimation procedure
// (CohortLossEstimate is the edge half).
func ShardLossEstimate(m model.Model, w []float64, shard data.Subset, batch int, r *rng.Stream, s *Scratch) float64 {
	if tensor.StorageF32() {
		s.size32(batch)
		s.w32 = GrowVec(s.w32, len(w))
		tensor.ToF32(s.w32, w)
		shard.SampleInto32(r, s.xs32, s.ys)
		return float64(m.LossF32(s.w32, s.xs32, s.ys))
	}
	s.size(0, batch)
	shard.SampleInto(r, s.xs, s.ys)
	return m.Loss(w, s.xs, s.ys)
}

// ProjectW projects a model vector onto W in the active storage regime:
// W.Project plus, on the avx2f32 tier, rounding the result back to
// storage so the projected iterate stays float32-representable. Every
// engine-side projection of a model vector goes through this helper
// (the in-block projection of the SGD hot path handles the regime
// itself). Under simplex.FullSpace it returns at once: the projection
// is the identity and every caller passes a storage-representable
// vector (an average, or w^(0) after Run rounds it), so the rounding
// would change no bit.
func ProjectW(W simplex.Set, w []float64) {
	if _, ok := W.(simplex.FullSpace); ok {
		return
	}
	W.Project(w)
	if tensor.StorageF32() {
		tensor.Round32(w)
	}
}
