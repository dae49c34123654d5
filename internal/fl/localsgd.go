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
// loss estimate, one set per storage width: the gradient scratch
// model.Step works in (the MLP leaves its first-layer rows unused) and
// the sampled batch views. The iterates live in the caller's vectors,
// except that the float64 entry points train float32 mirrors of them
// here on the float32 tier (mirror32). The zero value is ready to use;
// buffers grow on demand and are reused across calls. Long-lived
// single-owner callers (the simnet client actors) keep one resident so
// their hot path never touches a shared pool; the others — a Fold's
// lane workers, LocalSGD, CohortLossEstimate — recycle instances via
// sgdPool, once per worker or call.
type Scratch struct {
	s64 batchScratch[float64]
	s32 batchScratch[float32]
	// The float32 mirrors of a float64 caller's iterate, iterate sum and
	// checkpoint.
	w32, iterSum32, chk32 []float32
	// Cohort-side state of the Scratch's owner: the row-alias tables of
	// the population shard it last materialized (Cohort.shard) and, for
	// CohortLossEstimate, the cohort being evaluated.
	shard  population.ShardScratch
	cohort Cohort
}

// batchScratch is a Scratch's working state at storage width T.
type batchScratch[T tensor.Float] struct {
	grad []T
	xs   [][]T
	ys   []int
}

var sgdPool = sync.Pool{New: func() any { return new(Scratch) }}

// at returns s's working state at storage width T.
func at[T tensor.Float](s *Scratch) *batchScratch[T] {
	if b, ok := any(&s.s32).(*batchScratch[T]); ok {
		return b
	}
	return any(&s.s64).(*batchScratch[T])
}

func (b *batchScratch[T]) size(dim, batch int) {
	b.grad = GrowVec(b.grad, dim)
	b.xs, b.ys = GrowVec(b.xs, batch), GrowVec(b.ys, batch)
}

// step writes m's SGD step from w into dst on the sampled batch:
// model.Step, or StepF32 on float32 rows.
func (b *batchScratch[T]) step(m model.Model, w, dst []T, eta float64) {
	if b32, ok := any(b).(*batchScratch[float32]); ok {
		m.StepF32(any(w).([]float32), any(dst).([]float32), b32.grad, b32.xs, b32.ys, float32(eta))
		return
	}
	b64 := any(b).(*batchScratch[float64])
	m.Step(any(w).([]float64), any(dst).([]float64), b64.grad, b64.xs, b64.ys, eta)
}

// loss returns m's mean loss of w on the sampled batch: model.Loss, or
// LossF32 on float32 rows.
func (b *batchScratch[T]) loss(m model.Model, w []T) float64 {
	if b32, ok := any(b).(*batchScratch[float32]); ok {
		return float64(m.LossF32(any(w).([]float32), b32.xs, b32.ys))
	}
	b64 := any(b).(*batchScratch[float64])
	return m.Loss(any(w).([]float64), b64.xs, b64.ys)
}

// mirror32 is the storage-width boundary of the float64 entry points:
// on the float32 tier it narrows v (exactly: model vectors are
// storage-representable there) into the Scratch's mirror, on which the
// caller runs the float32 step; elsewhere it returns nil.
func (s *Scratch) mirror32(v []float64) []float32 {
	if !tensor.StorageF32() {
		return nil
	}
	return narrow(&s.w32, v)
}

// narrow returns v at storage width T: v itself at float64, else v
// rounded into *buf.
func narrow[T tensor.Float](buf *[]T, v []float64) []T {
	if w, ok := any(v).([]T); ok {
		return w
	}
	*buf = GrowVec(*buf, len(v))
	tensor.ToF32(any(*buf).([]float32), v)
	return *buf
}

// LocalSGD runs `steps` SGD steps (Eq. 4 with W = R^d) on one client's
// shard, starting from a copy of w0 (w0 is not modified). The
// simplex.Set argument is ignored.
//
// If chkAt is in [1, steps], wChk is a copy of the iterate after chkAt
// steps — the client-side checkpoint of Algorithm 1 Part (b); otherwise
// wChk is nil.
//
// If iterSum is non-nil, every pre-step iterate w^(t) (t = 0..steps-1) is
// accumulated into it, which is what the time-averaged wHat of the
// convex analysis sums over.
func LocalSGD(m model.Model, w0 []float64, shard data.Subset, steps, batch int, eta float64, _ simplex.Set, r *rng.Stream, chkAt int, iterSum []float64) (wFinal, wChk []float64) {
	w := append([]float64(nil), w0...)
	chk := make([]float64, len(w0))
	s := sgdPool.Get().(*Scratch)
	defer sgdPool.Put(s)
	if LocalSGDScratch(m, w, shard, steps, batch, eta, nil, r, chkAt, iterSum, chk, s) {
		wChk = chk
	}
	return w, wChk
}

// LocalSGDScratch is the allocation-free core of LocalSGD: it advances w
// in place through `steps` SGD steps with all working buffers in the
// caller's Scratch. If chkAt is in [1, steps], the iterate after chkAt
// steps is copied into wChk and the function reports true; otherwise
// wChk is untouched. The sampling and gradient sequence is identical to
// LocalSGD's, and the simplex.Set argument is ignored.
func LocalSGDScratch(m model.Model, w []float64, shard data.Subset, steps, batch int, eta float64, _ simplex.Set, r *rng.Stream, chkAt int, iterSum, wChk []float64, s *Scratch) bool {
	w32 := s.mirror32(w)
	if w32 == nil {
		return localSGD(m, w, w, shard, steps, batch, eta, r, chkAt, iterSum, wChk, s)
	}
	var sum32 []float32
	if iterSum != nil {
		sum32 = narrow(&s.iterSum32, iterSum)
	}
	s.chk32 = GrowVec(s.chk32, len(w))
	chked := localSGD(m, w32, w32, shard, steps, batch, eta, r, chkAt, sum32, s.chk32, s)
	tensor.ToF64(w, w32)
	if sum32 != nil {
		tensor.ToF64(iterSum, sum32)
	}
	if chked {
		tensor.ToF64(wChk, s.chk32)
	}
	return chked
}

// localSGD is the client step of every engine at both storage widths:
// LocalSGDScratch from a separate start vector, which it leaves
// unmodified (start may alias w). Each step writes the next iterate
// from the current one through model.Step (StepF32 on float32 rows);
// the checkpoint step writes straight into wChk and the step after it
// reads back from there, so no whole-model copy runs unless the
// checkpoint is the last step (or there are no steps). The iterate sum
// adds with StorageAdd's arithmetic at width T.
func localSGD[T tensor.Float](m model.Model, start, w []T, shard data.Subset, steps, batch int, eta float64, r *rng.Stream, chkAt int, iterSum, wChk []T, s *Scratch) bool {
	b := at[T](s)
	b.size(len(w), batch)
	cur := start
	for t := 0; t < steps; t++ {
		if iterSum != nil {
			tensor.Axpy(1, cur, iterSum)
		}
		data.SampleRows(shard, r, b.xs, b.ys)
		next := w
		if t+1 == chkAt {
			next = wChk
		}
		b.step(m, cur, next, eta)
		cur = next
	}
	if &cur[0] != &w[0] {
		copy(w, cur)
	}
	return chkAt >= 1 && chkAt <= steps
}

// ShardLossEstimate draws one mini-batch from the shard (consuming the
// same stream values as Subset.Sample) and returns the model loss of w on
// it, using the caller's Scratch for the batch views. It is the
// allocation-free client half of the Phase-2 LossEstimation procedure
// (CohortLossEstimate is the edge half).
func ShardLossEstimate(m model.Model, w []float64, shard data.Subset, batch int, r *rng.Stream, s *Scratch) float64 {
	if w32 := s.mirror32(w); w32 != nil {
		return shardLoss(m, w32, shard, batch, r, s)
	}
	return shardLoss(m, w, shard, batch, r, s)
}

func shardLoss[T tensor.Float](m model.Model, w []T, shard data.Subset, batch int, r *rng.Stream, s *Scratch) float64 {
	b := at[T](s)
	b.size(0, batch)
	data.SampleRows(shard, r, b.xs, b.ys)
	return b.loss(m, w)
}
