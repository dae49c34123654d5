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
// iterates live in the caller's vectors. The zero value is ready to use;
// buffers grow on demand and are reused across calls. Long-lived
// single-owner callers (the simnet client actors) keep one resident so
// their hot path never touches a shared pool; the others — a Fold's
// lane workers, LocalSGD, CohortLossEstimate — recycle instances via
// sgdPool, once per worker or call.
type Scratch struct {
	grad []float64
	xs   [][]float64
	ys   []int
	// Cohort-side state of the Scratch's owner: the row-alias tables of
	// the population shard it last materialized (Cohort.shard) and, for
	// CohortLossEstimate, the cohort being evaluated.
	shard  population.ShardScratch
	cohort Cohort
}

var sgdPool = sync.Pool{New: func() any { return new(Scratch) }}

func (s *Scratch) size(dim, batch int) {
	s.grad = GrowVec(s.grad, dim)
	s.xs, s.ys = GrowVec(s.xs, batch), GrowVec(s.ys, batch)
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
	return localSGD(m, w, w, shard, steps, batch, eta, r, chkAt, iterSum, wChk, s)
}

// localSGD is the client step of every engine: LocalSGDScratch from a
// separate start vector, which it leaves unmodified (start may alias
// w). Each step writes the next iterate from the current one through
// model.Step; the checkpoint step writes straight into wChk and the
// step after it reads back from there, so no whole-model copy runs
// unless the checkpoint is the last step (or there are no steps).
func localSGD(m model.Model, start, w []float64, shard data.Subset, steps, batch int, eta float64, r *rng.Stream, chkAt int, iterSum, wChk []float64, s *Scratch) bool {
	s.size(len(w), batch)
	cur := start
	for t := 0; t < steps; t++ {
		if iterSum != nil {
			tensor.Axpy(1, cur, iterSum)
		}
		shard.SampleInto(r, s.xs, s.ys)
		next := w
		if t+1 == chkAt {
			next = wChk
		}
		m.Step(cur, next, s.grad, s.xs, s.ys, eta)
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
	s.size(0, batch)
	shard.SampleInto(r, s.xs, s.ys)
	return m.Loss(w, s.xs, s.ys)
}
