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
	// Float32 mirrors for the avx2f32 storage tier's fast path: the
	// iterate, gradient, iterate-sum and batch views in native float32,
	// plus a float64 staging buffer for non-trivial projections. Sized
	// only when the fast path runs.
	w32, grad32, iterSum32 []float32
	chk32                  []float32
	xs32                   [][]float32
	proj                   []float64
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

// size32 sizes the float32 mirrors (the float64 ys buffer is shared
// with the regular path via size).
func (s *Scratch) size32(dim, batch int) {
	s.size(0, batch)
	if cap(s.w32) < dim {
		s.w32 = make([]float32, dim)
		s.grad32 = make([]float32, dim)
		s.iterSum32 = make([]float32, dim)
		s.chk32 = make([]float32, dim)
	}
	s.w32 = s.w32[:dim]
	s.grad32 = s.grad32[:dim]
	s.iterSum32 = s.iterSum32[:dim]
	s.chk32 = s.chk32[:dim]
	if cap(s.xs32) < batch {
		s.xs32 = make([][]float32, batch)
	}
	s.xs32 = s.xs32[:batch]
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
// start may alias w.
func localSGD(m model.Model, start, w []float64, shard data.Subset, steps, batch int, eta float64, W simplex.Set, r *rng.Stream, chkAt int, iterSum, wChk []float64, s *Scratch) bool {
	f32 := tensor.StorageF32()
	if f32 {
		if fm, ok := m.(model.F32Model); ok {
			return localSGD32(fm, start, w, shard, steps, batch, eta, W, r, chkAt, iterSum, wChk, s)
		}
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
		if f32 {
			// Fallback regime for models without a float32 path: float64
			// arithmetic with the iterate rounded back to storage after
			// every step. Deterministic, but a different trajectory than
			// the native float32 path.
			tensor.Round32(next)
		}
		cur = next
	}
	if &cur[0] != &w[0] {
		copy(w, cur)
	}
	return chkAt >= 1 && chkAt <= steps
}

// localSGD32 is the avx2f32 fast path of localSGD: the float64
// boundary adapter over LocalSGD32Scratch. It converts the start
// iterate (and iterate sum) to float32 mirrors, runs the native float32
// block, and widens the results back into w, iterSum and wChk. All
// conversions are exact under the storage invariant (start and iterSum
// hold float32-representable values), so the float64 vectors the
// engines see are the float32 trajectory widened.
func localSGD32(m model.F32Model, start, w []float64, shard data.Subset, steps, batch int, eta float64, W simplex.Set, r *rng.Stream, chkAt int, iterSum, wChk []float64, s *Scratch) bool {
	s.size32(len(w), batch)
	tensor.ToF32(s.w32, start)
	summing := iterSum != nil
	var sum32 []float32
	if summing {
		tensor.ToF32(s.iterSum32, iterSum)
		sum32 = s.iterSum32
	}
	checkpointed := LocalSGD32Scratch(m, s.w32, shard, steps, batch, eta, W, r, chkAt, sum32, s.chk32, s)
	tensor.ToF64(w, s.w32)
	if summing {
		tensor.ToF64(iterSum, s.iterSum32)
	}
	if checkpointed {
		tensor.ToF64(wChk, s.chk32)
	}
	return checkpointed
}

// LocalSGD32Scratch is the native-float32 local SGD block: it advances
// w32 in place through `steps` projected SGD steps with float32
// sampling (same stream draws as the float64 path), GradF32 and a
// float32 step, never leaving float32 storage except for a non-trivial
// projection (the simplex.Set contract is float64). If chkAt is in
// [1, steps], the iterate after chkAt steps is copied into wChk32 and
// the function reports true. If iterSum32 is non-nil every pre-step
// iterate is accumulated into it with one fma32 rounding per element —
// exactly StorageAdd's float32 addition on the widened mirrors. w32,
// wChk32 and iterSum32 may alias the scratch's own buffers or be
// caller-owned (the core engine's float32 slot path passes its pooled
// slot buffers directly, so client blocks run without any float64
// round-trips).
func LocalSGD32Scratch(m model.F32Model, w32 []float32, shard data.Subset, steps, batch int, eta float64, W simplex.Set, r *rng.Stream, chkAt int, iterSum32, wChk32 []float32, s *Scratch) bool {
	s.size32(len(w32), batch)
	_, freeW := W.(simplex.FullSpace)
	eta32 := float32(eta)
	checkpointed := false
	for t := 0; t < steps; t++ {
		if iterSum32 != nil {
			tensor.Axpy32(1, w32, iterSum32)
		}
		shard.SampleInto32(r, s.xs32, s.ys)
		m.GradF32(w32, s.grad32, s.xs32, s.ys)
		tensor.Axpy32(-eta32, s.grad32, w32)
		if !freeW {
			// Non-trivial W: project in float64 (the Set contract) and
			// round back to storage.
			if cap(s.proj) < len(w32) {
				s.proj = make([]float64, len(w32))
			}
			s.proj = s.proj[:len(w32)]
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
		if fm, ok := m.(model.F32Model); ok {
			s.size32(len(w), batch)
			tensor.ToF32(s.w32, w)
			shard.SampleInto32(r, s.xs32, s.ys)
			return float64(fm.LossF32(s.w32, s.xs32, s.ys))
		}
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
// itself).
func ProjectW(W simplex.Set, w []float64) {
	W.Project(w)
	if tensor.StorageF32() {
		tensor.Round32(w)
	}
}
