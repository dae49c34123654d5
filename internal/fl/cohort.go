package fl

import (
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/population"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/sched"
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
// Lane rows and means have the storage width Begin picks: float32 on
// the avx2f32 tier, where Block narrows start once and Add each reply,
// and nothing is widened until Finish but a compressed upload, which
// decodes in float64 and rounds back (compress). Both widths run one
// lane path (localSGD) and one fold, so every engine and cohort source
// shares this one slot on every class.
//
// Lanes run through sched.For at GOMAXPROCS width. The zero value is
// ready to use; once warm a Block allocates nothing but that fan-out's
// own state — none on one processor, two objects per chunk on two. A
// Fold must not be copied after first use, nor used concurrently.
type Fold struct {
	Cohort Cohort

	cfg  *Config
	prob *Problem
	pool *ModelPool
	comp quant.Config

	// State of the running Block, read by the lane worker. It lives here
	// rather than in a per-block closure so the worker is created once.
	streams rng.Stream
	chkAt   int
	base    int // cohort position of lane 0 in the running chunk
	track   bool
	worker  func(lane int)

	// resid holds the error-feedback residual of top-k compression, one
	// row per cohort position: a member's residual must survive from one
	// Block of the slot to the next, which lane rows do not.
	resid [][]float64

	// rows is the fold at the width Begin picked: &l64, or &l32.
	rows foldRows
	l64  lanes[float64]
	l32  lanes[float32]
}

// foldRows is a Fold's work at one storage width (lanes[T]).
type foldRows interface {
	begin(n, d int, track bool)
	block(f *Fold, start, iterSum []float64)
	run(f *Fold, lane int)
	add(final, chk []float64)
	finish(w, chk []float64) bool
}

// lanes is a Fold's state at storage width T: the running block's start
// (narrowed into buf at float32, which also stages Add's rows), one
// final, checkpoint and iterate-sum row per lane, the pending chunk's
// surviving rows in cohort order (liveChk empty in a block without
// checkpoints), and the streaming means, sized for d elements.
type lanes[T tensor.Float] struct {
	start, buf         []T
	finals, chks, sums [][]T
	pending            bool
	live, liveChk      [][]T
	wAcc, chkAcc       tensor.MeanAccumulator[T]
	d                  int
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
// under comp (the zero Config uploads exactly). Begin picks the storage
// width; lane rows are sized for the Cohort and error-feedback residual
// rows only under comp's error feedback, so a fold fed through Add
// (empty Cohort, zero comp) sizes neither. Residuals are slot-scoped
// and start at zero here.
func (f *Fold) Begin(cfg *Config, prob *Problem, pool *ModelPool, comp quant.Config) {
	f.cfg, f.prob, f.pool, f.comp = cfg, prob, pool, comp
	n, d := f.Cohort.Len(), prob.Model.Dim()
	if f.worker == nil {
		f.worker = f.runLane
	}
	f.rows = &f.l64
	if tensor.StorageF32() {
		f.rows = &f.l32
	}
	f.rows.begin(min(cohortChunk, n), d, cfg.TrackAverages)
	if comp.ErrorFeedback {
		f.resid = GrowRows(f.resid, n, d)
		for _, row := range f.resid {
			tensor.Zero(row)
		}
	}
}

func (l *lanes[T]) begin(n, d int, track bool) {
	if l.d != d {
		// First use or a new model dimension: size the means too, so a
		// fold begun once at set-up allocates nothing in its first block.
		l.wAcc.Reset(d)
		l.chkAcc.Reset(d)
		l.d = d
	}
	l.finals = GrowRows(l.finals, n, d)
	l.chks = GrowRows(l.chks, n, d)
	if track {
		l.sums = GrowRows(l.sums, n, d)
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
	f.streams, f.chkAt, f.track = streams, chkAt, iterSum != nil
	f.rows.block(f, start, iterSum)
}

func (l *lanes[T]) block(f *Fold, start, iterSum []float64) {
	n := f.Cohort.Len()
	l.start = narrow(&l.buf, start)
	for f.base = 0; f.base < n; f.base += cohortChunk {
		l.flush()
		span := min(cohortChunk, n-f.base)
		sched.For(0, span, f.worker)
		l.live, l.liveChk = l.live[:0], l.liveChk[:0]
		for lane := 0; lane < span; lane++ {
			if f.Cohort.skipped(f.base + lane) {
				continue
			}
			l.live = append(l.live, l.finals[lane])
			if f.chkAt > 0 {
				l.liveChk = append(l.liveChk, l.chks[lane])
			}
			if iterSum != nil {
				tensor.StorageAdd(iterSum, l.sums[lane])
			}
		}
		l.pending = true
	}
}

// flush folds the pending chunk's members into the streaming means, in
// cohort order, before anything overwrites the lane rows or folds a
// later member.
func (l *lanes[T]) flush() {
	if !l.pending {
		return
	}
	l.pending = false
	for j, final := range l.live {
		l.wAcc.Add(final)
		if len(l.liveChk) > 0 {
			l.chkAcc.Add(l.liveChk[j])
		}
	}
}

// Add folds one member result produced elsewhere — a client that trained
// behind a transport — exactly as Block folds its own lanes: final into
// the model mean, chk (when non-nil) into the checkpoint mean and sum
// (when non-nil) into iterSum. Callers add members in cohort order; the
// vectors are read, not retained.
func (f *Fold) Add(final, chk, sum, iterSum []float64) {
	f.rows.add(final, chk)
	if sum != nil {
		tensor.StorageAdd(iterSum, sum)
	}
}

func (l *lanes[T]) add(final, chk []float64) {
	l.flush()
	l.wAcc.Add(narrow(&l.buf, final))
	if chk != nil {
		l.chkAcc.Add(narrow(&l.buf, chk))
	}
}

// runLane trains the member on one lane of the running chunk.
func (f *Fold) runLane(lane int) { f.rows.run(f, lane) }

// run trains the member on one lane of the running chunk. A member's
// result depends only on its cohort position, never on the lane or the
// worker that ran it.
func (l *lanes[T]) run(f *Fold, lane int) {
	i := f.base + lane
	if f.Cohort.skipped(i) {
		return
	}
	cfg := f.cfg
	mdl := f.pool.Get()
	defer f.pool.Put(mdl)
	// The gradient buffer is model-sized; the shared pool keeps it hot
	// across lanes and slots.
	s := sgdPool.Get().(*Scratch)
	defer sgdPool.Put(s)
	r := f.streams.ChildVal(uint64(i))
	var sum []T
	if f.track {
		sum = l.sums[lane]
		tensor.Zero(sum)
	}
	wf, chk := l.finals[lane], l.chks[lane]
	chked := localSGD(mdl, l.start, wf, f.Cohort.shard(i, &s.shard), cfg.Tau1, cfg.BatchSize, cfg.EtaW, &r, f.chkAt, sum, chk, s)
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
		compress(f.comp, wf, resid, &q, s)
		if chked {
			q2 := r.ChildVal('q').ChildVal(2)
			compress(f.comp, chk, nil, &q2, s)
		}
	}
}

// compress replaces row v with its decoded uplink under comp, computed
// in float64 with the float64 error-feedback residual resid. A float32
// row is widened exactly into s and the decoded values round back to
// storage width: the rounding simnet's edge applies when Add narrows a
// decoded reply, so the engines agree on the float32 tier too.
func compress[T tensor.Float](comp quant.Config, v []T, resid []float64, r *rng.Stream, s *Scratch) {
	if v64, ok := any(v).([]float64); ok {
		comp.Apply(v64, resid, r)
		return
	}
	v32 := any(v).([]float32)
	s.wide = GrowVec(s.wide, len(v32))
	tensor.ToF64(s.wide, v32)
	comp.Apply(s.wide, resid, r)
	tensor.ToF32(v32, s.wide)
}

// Finish writes the mean of the models folded since the last Finish
// into w and, if any block recorded checkpoints, their mean into chk,
// and readies the means for the next aggregation. It reports false,
// leaving w and chk untouched, when every member was skipped.
func (f *Fold) Finish(w, chk []float64) bool { return f.rows.finish(w, chk) }

func (l *lanes[T]) finish(w, chk []float64) bool {
	if l.pending && l.wAcc.Len() == 0 {
		// The only chunk since the last Finish: average its surviving
		// lane rows directly, reading each once.
		l.pending = false
		if len(l.live) == 0 {
			return false
		}
		tensor.AverageInto(w, l.live...)
		if len(l.liveChk) > 0 {
			tensor.AverageInto(chk, l.liveChk...)
		}
		return true
	}
	l.flush()
	if l.chkAcc.Len() > 0 {
		l.chkAcc.FinishInto(chk)
	}
	if l.wAcc.Len() == 0 {
		return false
	}
	l.wAcc.FinishInto(w)
	return true
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
	// Narrow w once per edge, not once per client: the same bits and
	// stream draws as ShardLossEstimate per client.
	if w32 := s.mirror32(w); w32 != nil {
		return cohortLoss(c, m, w32, batch, r, s)
	}
	return cohortLoss(c, m, w, batch, r, s)
}

func cohortLoss[T tensor.Float](c *Cohort, m model.Model, w []T, batch int, r *rng.Stream, s *Scratch) (float64, int) {
	total := 0.0
	got := 0
	for i := 0; i < c.Len(); i++ {
		if c.skipped(i) {
			continue
		}
		cs := r.ChildVal(uint64(i))
		total += shardLoss(m, w, c.shard(i, &s.shard), batch, &cs, s)
		got++
	}
	if got == 0 {
		return 0, 0
	}
	return total / float64(got), got
}
