package fl

import (
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/population"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// cohortChunk is the fold granularity of Fold.Block: cohort members run
// cohortChunk at a time on parallel workers, then their results stream
// into the accumulators in cohort order. The constant bounds a fold's
// live model-sized buffers at O(cohortChunk*d) regardless of cohort size
// while still keeping every worker busy; it has no effect on the
// trajectory (the fold order is cohort order for every chunking).
const cohortChunk = 32

// Cohort names the clients one Fold trains and says where member i's
// shard comes from. Exactly one form is set: Clients holds resident
// shards (an area's client table, or any selection from it), so member
// i trains Clients[i]; otherwise IDs holds global client ids of the
// sparse population and member i's shard is materialized lazily — row
// aliases into the corpus of the edge Roster stripes IDs[i] onto. The
// resident table is thus the cohort whose members are already
// materialized; everything downstream of the shard lookup is shared.
//
// Skip, when set, reports that member i delivers nothing this round (a
// crashed client of a fault schedule). It must be pure and safe to call
// from a Fold's parallel lanes. Every in-process engine leaves it nil;
// SetEdge does not touch it.
type Cohort struct {
	Clients []data.Subset

	IDs    []int
	Roster population.Roster
	Areas  []data.AreaData

	Skip func(i int) bool
}

// Len returns the number of cohort members.
func (c *Cohort) Len() int {
	if c.Clients != nil {
		return len(c.Clients)
	}
	return len(c.IDs)
}

// SetEdge makes c the clients edge e trains in round k: the area's
// resident clients, or under cfg.Population the roster's (k, e) sample.
// The IDs buffer is reused, so a long-lived Cohort allocates nothing
// once warm.
func (c *Cohort) SetEdge(cfg *Config, fed *data.Federation, k, e int) {
	if !cfg.PopulationEnabled() {
		c.Clients = fed.Areas[e].Clients
		return
	}
	c.Clients = nil
	c.Roster = cfg.Roster(fed.NumAreas())
	c.Areas = fed.Areas
	c.IDs = c.Roster.CohortInto(c.IDs, k, e)
}

// skipped reports whether member i delivers nothing (Skip).
func (c *Cohort) skipped(i int) bool { return c.Skip != nil && c.Skip(i) }

// shard returns member i's training shard. A population shard aliases
// s, so it is valid until s materializes the next member.
func (c *Cohort) shard(i int, s *population.ShardScratch) data.Subset {
	if c.Clients != nil {
		return c.Clients[i]
	}
	id := c.IDs[i]
	return c.Roster.ShardInto(id, c.Areas[c.Roster.EdgeOf(id)].Train, s)
}

// Fold is the one implementation of "every client of a cohort runs a
// local-SGD block from one start vector and the results average": the
// client half of Algorithm 1's ModelUpdate, shared by HierMinimax on
// every engine and all four baselines. Set Cohort, call Begin once per
// slot, then Block (one or more times) and Finish per aggregation. A
// cohort that trains elsewhere — the simnet edge's resident client
// actors — folds its members' results through Add instead of Block,
// with an empty Cohort.
//
// Members run on cohortChunk lanes, each with its own result rows, and
// every member reads the block's start vector in place (no per-lane
// copy). A chunk's lanes stay pending until something needs them: when
// a Finish follows a slot's only chunk, it averages the surviving lane
// rows straight into w and chk with tensor.AverageInto, one pass per
// input; anything else — the next chunk of a larger cohort, a second
// Block before Finish (the minimax baselines), an Add — first folds the
// pending lanes into streaming means in cohort order. So memory is
// O(cohortChunk*d) and the result is independent of chunking and worker
// count: tensor.MeanAccumulator is bitwise AverageInto over the same
// list in every kernel class.
//
// On the avx2f32 storage tier the lane rows are float32: Block narrows
// start once, each lane copies it and runs the native float32 block,
// and the surviving rows fold into the means (MeanAccumulator.Add32)
// and iterSum in cohort order as soon as the chunk ends, so nothing is
// widened until Finish. The means are the bits AverageInto computes
// from the widened rows, so every engine and cohort source shares this
// one slot on every class.
//
// The zero value is ready to use and allocates nothing once warm. A
// Fold must not be copied after first use, nor used concurrently.
type Fold struct {
	Cohort Cohort

	cfg  *Config
	prob *Problem
	pool *ModelPool
	comp quant.Config

	// State of the running Block, read by the lane worker. It lives here
	// rather than in a per-block closure so the worker is created once.
	start   []float64
	start32 []float32 // start narrowed, on the float32 tier
	streams rng.Stream
	chkAt   int
	base    int // cohort position of lane 0 in the running chunk
	track   bool
	worker  func(lo, hi int)

	finals, chks, sums [][]float64
	// f32 says the lanes train in float32 storage (tensor.StorageF32 at
	// Begin), on the float32 rows.
	f32                      bool
	finals32, chks32, sums32 [][]float32
	// pending says that the last chunk Block ran has not been folded
	// yet: live and liveChk hold its surviving members' final and
	// checkpoint rows in cohort order (liveChk empty in a block without
	// checkpoints). flush folds them; Finish may average them directly.
	pending       bool
	live, liveChk [][]float64
	// resid holds the error-feedback residual of top-k compression, one
	// row per cohort position: a member's residual must survive from one
	// Block of the slot to the next, which lane rows do not.
	resid [][]float64

	wAcc, chkAcc tensor.MeanAccumulator
	n, nChk      int // members folded into wAcc / chkAcc since Finish
}

// GrowVec returns b resized to n elements, reallocating only when its
// capacity is too small. The contents are unspecified.
func GrowVec[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// GrowRows returns rows resized to n rows of d elements each, keeping
// (and reusing) the rows it already has.
func GrowRows[T any](rows [][]T, n, d int) [][]T {
	if cap(rows) < n {
		grown := make([][]T, n)
		copy(grown, rows)
		rows = grown
	}
	rows = rows[:n]
	for i := range rows {
		rows[i] = GrowVec(rows[i], d)
	}
	return rows
}

// Begin starts a slot for the current Cohort: blocks will run cfg.Tau1
// steps of prob's model on pooled clones, compressing member uplinks
// under comp (the zero Config uploads exactly). Lane rows (float32 ones
// on the float32 tier) are sized for the Cohort and error-feedback
// residual rows only under comp's error feedback, so a fold fed through
// Add (empty Cohort, zero comp) sizes neither. Residuals are
// slot-scoped and start at zero here.
func (f *Fold) Begin(cfg *Config, prob *Problem, pool *ModelPool, comp quant.Config) {
	f.cfg, f.prob, f.pool, f.comp = cfg, prob, pool, comp
	n, d := f.Cohort.Len(), prob.Model.Dim()
	if f.worker == nil {
		// First use: size the accumulators too, so a fold begun once at
		// set-up allocates nothing in its first block, however late.
		f.worker = f.runLanes
		f.wAcc.Reset(d)
		f.chkAcc.Reset(d)
	}
	lanes := min(cohortChunk, n)
	f.f32 = tensor.StorageF32()
	if f.f32 {
		f.finals32 = GrowRows(f.finals32, lanes, d)
		f.chks32 = GrowRows(f.chks32, lanes, d)
		if cfg.TrackAverages {
			f.sums32 = GrowRows(f.sums32, lanes, d)
		}
	} else {
		f.finals = GrowRows(f.finals, lanes, d)
		f.chks = GrowRows(f.chks, lanes, d)
		if cfg.TrackAverages {
			f.sums = GrowRows(f.sums, lanes, d)
		}
	}
	if comp.ErrorFeedback {
		f.resid = GrowRows(f.resid, n, d)
		for _, row := range f.resid {
			tensor.Zero(row)
		}
	}
}

// Block runs one local-SGD block: every member starts from start, draws
// from streams.ChildVal(i) for its cohort position i and, when chkAt is
// in [1, cfg.Tau1], records its iterate after chkAt steps. Final models
// and checkpoints fold into the means Finish reports; with iterSum
// non-nil (cfg.TrackAverages runs) each member's pre-step iterates are
// summed per member and then added to iterSum in cohort order — the
// grouping the simnet engine uses. A member the Cohort skips keeps its
// position (and so its stream) but neither trains nor folds in. Blocks
// accumulate until Finish, so a caller may fold several cohorts into
// one mean.
func (f *Fold) Block(start []float64, streams rng.Stream, chkAt int, iterSum []float64) {
	n := f.Cohort.Len()
	f.start, f.streams, f.chkAt, f.track = start, streams, chkAt, iterSum != nil
	if f.f32 {
		// Exact: start is storage-representable.
		f.start32 = GrowVec(f.start32, len(start))
		tensor.ToF32(f.start32, start)
	}
	for f.base = 0; f.base < n; f.base += cohortChunk {
		f.flush()
		span := min(cohortChunk, n-f.base)
		if f.cfg.Workers == 1 {
			f.worker(0, span)
		} else {
			tensor.ParallelFor(span, 1, f.worker)
		}
		f.live, f.liveChk = f.live[:0], f.liveChk[:0]
		for lane := 0; lane < span; lane++ {
			if f.Cohort.skipped(f.base + lane) {
				continue
			}
			if f.f32 {
				f.fold32(lane, chkAt > 0, iterSum)
				continue
			}
			f.live = append(f.live, f.finals[lane])
			if chkAt > 0 {
				f.liveChk = append(f.liveChk, f.chks[lane])
			}
			if iterSum != nil {
				tensor.StorageAdd(iterSum, f.sums[lane])
			}
		}
		// Float32 rows are folded already; float64 ones wait for flush or
		// Finish.
		f.pending = !f.f32
	}
}

// flush folds the pending chunk's members into the streaming means, in
// cohort order, before anything overwrites the lane rows or folds a
// later member.
func (f *Fold) flush() {
	if !f.pending {
		return
	}
	f.pending = false
	for j, final := range f.live {
		var chk []float64
		if len(f.liveChk) > 0 {
			chk = f.liveChk[j]
		}
		f.fold(final, chk)
	}
}

// Add folds one member result produced elsewhere — a client that trained
// behind a transport — exactly as Block folds its own lanes: final into
// the model mean, chk (when non-nil) into the checkpoint mean and sum
// (when non-nil) into iterSum. Callers add members in cohort order; the
// vectors are read, not retained.
func (f *Fold) Add(final, chk, sum, iterSum []float64) {
	f.flush()
	f.fold(final, chk)
	if sum != nil {
		tensor.StorageAdd(iterSum, sum)
	}
}

// fold adds final to the model mean and chk, when non-nil, to the
// checkpoint mean.
func (f *Fold) fold(final, chk []float64) {
	f.count(len(final), chk != nil)
	f.wAcc.Add(final)
	if chk != nil {
		f.chkAcc.Add(chk)
	}
}

// fold32 is fold for the float32 rows of a lane, which go into the
// means unwidened, plus the member's iterate sum, added to iterSum
// (when non-nil) with StorageAdd's float32 add.
func (f *Fold) fold32(lane int, chk bool, iterSum []float64) {
	f.count(len(f.start32), chk)
	f.wAcc.Add32(f.finals32[lane])
	if chk {
		f.chkAcc.Add32(f.chks32[lane])
	}
	if iterSum != nil {
		for j, v := range f.sums32[lane] {
			iterSum[j] = float64(float32(iterSum[j]) + v)
		}
	}
}

// count notes one more d-dimensional member in the model mean and, with
// chk, in the checkpoint mean, resetting each before its first member.
func (f *Fold) count(d int, chk bool) {
	if f.n == 0 {
		f.wAcc.Reset(d)
	}
	f.n++
	if chk {
		if f.nChk == 0 {
			f.chkAcc.Reset(d)
		}
		f.nChk++
	}
}

// runLanes trains the members on lanes [lo, hi) of the running chunk.
// A member's result depends only on its cohort position, never on the
// lane or the worker that ran it.
func (f *Fold) runLanes(lo, hi int) {
	cfg := f.cfg
	mdl := f.pool.Get()
	defer f.pool.Put(mdl)
	// One Scratch per worker, not per lane: the gradient buffer is
	// model-sized, and the shared pool keeps it hot across slots.
	s := sgdPool.Get().(*Scratch)
	defer sgdPool.Put(s)
	for lane := lo; lane < hi; lane++ {
		i := f.base + lane
		if f.Cohort.skipped(i) {
			continue
		}
		r := f.streams.ChildVal(uint64(i))
		if f.f32 {
			// Validate refuses compression on this tier.
			var sum []float32
			if f.track {
				sum = f.sums32[lane]
				tensor.Zero32(sum)
			}
			wf := f.finals32[lane]
			copy(wf, f.start32)
			sgd32(mdl, wf, f.Cohort.shard(i, &s.shard), cfg.Tau1, cfg.BatchSize, cfg.EtaW, f.prob.W, &r, f.chkAt, sum, f.chks32[lane], s)
			continue
		}
		var sum []float64
		if f.track {
			sum = f.sums[lane]
			tensor.Zero(sum)
		}
		wf, chk := f.finals[lane], f.chks[lane]
		chked := localSGD(mdl, f.start, wf, f.Cohort.shard(i, &s.shard), cfg.Tau1, cfg.BatchSize, cfg.EtaW, f.prob.W, &r, f.chkAt, sum, chk, s)
		// Uplink compression: members upload compressed models and the
		// aggregator reconstructs the decoded values. Checkpoint uploads
		// compress without error feedback (they are one-shot, not part of
		// the iterated model stream).
		if f.comp.Enabled() {
			var resid []float64
			if f.comp.ErrorFeedback {
				resid = f.resid[i]
			}
			q := r.ChildVal('q')
			f.comp.Apply(wf, resid, &q)
			if chked {
				q2 := r.ChildVal('q').ChildVal(2)
				f.comp.Apply(chk, nil, &q2)
			}
		}
	}
}

// Finish writes the mean of the models folded since the last Finish
// into w and, if any block recorded checkpoints, their mean into chk,
// and readies the accumulators for the next aggregation. It reports
// false, leaving w and chk untouched, when every member was skipped.
func (f *Fold) Finish(w, chk []float64) bool {
	if f.pending && f.n == 0 {
		// The only chunk since the last Finish: average its surviving
		// lane rows directly, reading each once.
		f.pending = false
		if len(f.live) == 0 {
			return false
		}
		tensor.AverageInto(w, f.live...)
		if len(f.liveChk) > 0 {
			tensor.AverageInto(chk, f.liveChk...)
		}
		return true
	}
	f.flush()
	folded := f.n > 0
	if folded {
		f.wAcc.FinishInto(w)
	}
	if f.nChk > 0 {
		f.chkAcc.FinishInto(chk)
	}
	f.n, f.nChk = 0, 0
	return folded
}

// CohortLossEstimate implements the LossEstimation procedure of Phase 2
// for edge e in round k: each client of the edge's cohort (SetEdge — the
// clients Phase 1 trained) evaluates w on a cfg.LossBatch mini-batch
// drawn from r.ChildVal(position) and the edge averages, yielding an
// unbiased estimate of f_e(w). It also returns the cohort size, which is
// what the callers' ledgers price. Memory is O(shard).
func CohortLossEstimate(m model.Model, w []float64, cfg *Config, fed *data.Federation, k, e int, r *rng.Stream) (float64, int) {
	s := sgdPool.Get().(*Scratch)
	defer sgdPool.Put(s)
	s.cohort.SetEdge(cfg, fed, k, e)
	return s.cohort.lossEstimate(m, w, cfg.LossBatch, r, s)
}

// LossEstimate is CohortLossEstimate over a cohort the caller has set:
// the mean mini-batch loss of w over the members that deliver (the
// Cohort's Skip), and their count. With no member delivering it returns
// (0, 0).
func (c *Cohort) LossEstimate(m model.Model, w []float64, batch int, r *rng.Stream) (float64, int) {
	s := sgdPool.Get().(*Scratch)
	defer sgdPool.Put(s)
	return c.lossEstimate(m, w, batch, r, s)
}

func (c *Cohort) lossEstimate(m model.Model, w []float64, batch int, r *rng.Stream, s *Scratch) (float64, int) {
	f32 := tensor.StorageF32()
	if f32 {
		// Narrow the checkpoint once per edge, not once per client: same
		// w32 bits and stream draws as ShardLossEstimate per client.
		s.size32(batch)
		s.w32 = GrowVec(s.w32, len(w))
		tensor.ToF32(s.w32, w)
	}
	total := 0.0
	got := 0
	for i := 0; i < c.Len(); i++ {
		if c.skipped(i) {
			continue
		}
		cs := r.ChildVal(uint64(i))
		shard := c.shard(i, &s.shard)
		if f32 {
			shard.SampleInto32(&cs, s.xs32, s.ys)
			total += float64(m.LossF32(s.w32, s.xs32, s.ys))
		} else {
			total += ShardLossEstimate(m, w, shard, batch, &cs, s)
		}
		got++
	}
	if got == 0 {
		return 0, 0
	}
	return total / float64(got), got
}
