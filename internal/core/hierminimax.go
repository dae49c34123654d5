// Package core implements HierMinimax (Algorithm 1 of the paper):
// hierarchical distributed minimax optimization over the
// client-edge-cloud architecture, with multi-step local SGD (tau1),
// multi-step client-edge aggregation (tau2), partial edge participation,
// and the random-checkpoint mechanism that keeps the Phase-2 weight
// gradient unbiased — and over the paper's multi-layer trees (Tree), of
// which Algorithm 1 is the three-layer case.
package core

import (
	"sync"

	"repro/internal/fl"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tensor"
	"repro/internal/topology"
)

// Algorithm is the canonical name used in results and manifests.
const Algorithm = "HierMinimax"

// Cached metric handles: hot-path counters resolve the registry entry
// once per hub instead of taking a read-locked map lookup per round.
var (
	slotsTotal     = obs.NewCounterHandle("core_slots_total")
	slotsDropped   = obs.NewCounterHandle("core_slots_dropped_total")
	gradEvals      = obs.NewCounterHandle("core_grad_evals_total")
	lossEvals      = obs.NewCounterHandle("core_loss_evals_total")
	examplesPerSec = obs.NewGaugeHandle("core_examples_per_sec")
)

// HierMinimax runs Algorithm 1 on the problem and returns the trained
// result. Each round:
//
//	Phase 1: sample m_E edge slots ~ Multinomial(p^(k)) and a checkpoint
//	index (c1, c2) ~ U([tau1] x [tau2]); every sampled edge runs
//	ModelUpdate (tau2 client-edge aggregations of tau1 local SGD steps,
//	recording the (c2, c1) checkpoint); the cloud averages the edge
//	models (Eq. 5) and edge checkpoints (Eq. 6).
//
//	Phase 2: sample m_E edges uniformly; each estimates its loss on the
//	checkpoint model; the cloud builds the unbiased gradient estimate v
//	and ascends p^(k+1) = Proj_P(p^(k) + eta_p*tau1*tau2*v) (Eq. 7).
func HierMinimax(prob *fl.Problem, cfg fl.Config) (*fl.Result, error) {
	return HierMinimaxWithOptions(prob, cfg, fl.RunOptions{})
}

// HierMinimaxWithOptions is HierMinimax with checkpoint/resume support:
// the run can periodically emit fl.Checkpoints and continue from one,
// reproducing the uninterrupted trajectory exactly (every round's
// randomness is a function of (Seed, round) only).
func HierMinimaxWithOptions(prob *fl.Problem, cfg fl.Config, opts fl.RunOptions) (*fl.Result, error) {
	cfg = cfg.WithDefaults()
	return hierMinimax(Algorithm, prob, cfg, Tree{Taus: []int{cfg.Tau1, cfg.Tau2}}, opts)
}

// HierMinimaxOver runs Algorithm 1 as algorithm name with t doing the
// edges' work; simnet's actor fabric and the wire runtimes call it with
// theirs. Every decision of the protocol is made by the round here, so a
// transport that delivers every request reproduces HierMinimax bit for
// bit.
func HierMinimaxOver(name string, prob *fl.Problem, cfg fl.Config, t Transport) (*fl.Result, error) {
	cfg = cfg.WithDefaults()
	return fl.Run(name, prob, cfg, newCloud(t, []int{cfg.Tau1, cfg.Tau2}).round)
}

// hierMinimax runs the rounds of a tree whose Taus are set (Branching nil
// for the paper's network) over the in-process transport.
func hierMinimax(name string, prob *fl.Problem, cfg fl.Config, tree Tree, opts fl.RunOptions) (*fl.Result, error) {
	t := &local{pool: fl.NewModelPool(prob.Model), tree: tree}
	return fl.RunWithOptions(name, prob, cfg, newCloud(t, tree.Taus).round, opts)
}

// Slot is one sampled edge slot's outcome as a Transport hands it to the
// cloud: the edge model W and checkpoint Chk (W is nil when the slot
// failed) and, when tracking averages, the sum IterSum of Iters local
// iterates. The transport owns the buffers until Release.
type Slot struct {
	W, Chk, IterSum []float64
	Iters           float64
	scratch         *slotScratch // the in-process slot's pooled buffers
}

// Transport carries the cloud round's requests to the edges and does
// their work: in process on a worker pool, or as messages over simnet's
// actor fabric and the wire runtimes. The round makes every decision of
// Algorithm 1 and writes the edge-cloud ledger lines from the counts a
// transport returns; the transport records the client-edge traffic its
// work moved.
type Transport interface {
	// Train runs ModelUpdate from st.W on edge slots[i] for every slot i
	// not doomed[i], with checkpoint chk and slot stream streams[i], and
	// writes its outcome into out[i] (left zero when the slot fails). It
	// returns how many slot requests reached their edge.
	Train(k int, st *fl.State, slots, chk []int, streams []rng.Stream, doomed []bool, out []Slot) (delivered int)
	// Losses has every edge sampled[i] not doomed[i] estimate its loss at
	// wChk from streams[i] into losses[i], setting alive[i] when the
	// estimate is usable. It returns how many requests reached their edge
	// and how many scalar replies reached the cloud.
	Losses(k int, st *fl.State, wChk []float64, sampled []int, streams []rng.Stream, doomed []bool, losses []float64, alive []bool) (delivered, arrived int)
	// Release takes back the buffers of out's slots once the round has
	// averaged them.
	Release(out []Slot)
}

// slotScratch holds a slot's outputs (edge model, edge checkpoint,
// iterate sum), which live until round has aggregated them. Instances
// recycle through slotPool, so after the first few rounds Phase 1 runs
// without allocating model-sized vectors.
type slotScratch struct {
	we, chkEdge, iterSum []float64
	rows                 [][]float64 // child outputs above level 1 (node)
}

var slotPool = sync.Pool{New: func() any { return new(slotScratch) }}

// foldPool recycles the client-block folds. A fold's lane rows and
// accumulators are needed only while its slot trains, so they are pooled
// apart from the slot outputs: as many exist as slots train at once, not
// as a round samples, and the next slot finds them warm in cache.
var foldPool = sync.Pool{New: func() any { return new(fl.Fold) }}

// getSlotScratch sizes a pooled scratch's slot outputs for a d-parameter
// model. iterSum starts zeroed; the other buffers are overwritten before
// use.
func getSlotScratch(d int, trackAverages bool) *slotScratch {
	s := slotPool.Get().(*slotScratch)
	s.we = fl.GrowVec(s.we, d)
	s.chkEdge = fl.GrowVec(s.chkEdge, d)
	if trackAverages {
		s.iterSum = fl.GrowVec(s.iterSum, d)
		tensor.Zero(s.iterSum)
	}
	return s
}

// slot hands the scratch's outputs to the cloud as the slot of an
// n-client cohort, each client having summed SlotsPerRound iterates.
func (s *slotScratch) slot(cfg *fl.Config, n int) Slot {
	return Slot{W: s.we, Chk: s.chkEdge, IterSum: s.iterSum, Iters: float64(cfg.SlotsPerRound() * n), scratch: s}
}

// cloud is the cloud side of Algorithm 1 over a Transport. Its buffers
// live for the whole run, so a warm round allocates only the two edge
// samples.
type cloud struct {
	t              Transport
	taus, chk      []int
	streams        []rng.Stream
	doomed, alive  []bool
	out            []Slot
	wVecs, chkVecs [][]float64
	wChk, losses   []float64
	v              []float64
}

func newCloud(t Transport, taus []int) *cloud {
	return &cloud{t: t, taus: taus, chk: make([]int, len(taus))}
}

// draw derives a phase's per-slot streams from parent and decides which
// slots drop out (fl.SlotDropped peeks without advancing, so a slot's
// work stream is unchanged by the check).
func (c *cloud) draw(parent rng.Stream, p float64) {
	for i := range c.streams {
		c.streams[i] = parent.ChildVal(uint64(i))
		c.doomed[i] = p > 0 && fl.SlotDropped(&c.streams[i], p)
	}
}

// round advances one HierMinimax training round.
func (c *cloud) round(k int, st *fl.State) {
	cfg, prob := &st.Cfg, st.Prob
	m, nE, d := cfg.SampledEdges, prob.Fed.NumAreas(), len(st.W)
	dBytes := topology.ModelBytes(d)
	kr := st.Root.ChildVal('k').ChildVal(uint64(k))
	c.streams, c.doomed, c.out = fl.GrowVec(c.streams, m), fl.GrowVec(c.doomed, m), fl.GrowVec(c.out, m)
	c.losses, c.alive = fl.GrowVec(c.losses, m), fl.GrowVec(c.alive, m)
	c.wChk, c.v = fl.GrowVec(c.wChk, d), fl.GrowVec(c.v, nE)

	p1 := obsSpan("phase1", k)

	// ---- Phase 1 ----
	// Sample edge slots by p^(k) with replacement (the unbiasedness
	// argument of Appendix A needs i.i.d. draws), and the checkpoint
	// index (c1, c2) — a vector on deeper trees.
	sr, cr := kr.ChildVal(1), kr.ChildVal(2)
	slots := sr.SampleWeighted(m, st.P)
	drawCheckpoint(&cr, c.taus, c.chk)
	c.draw(kr.ChildVal(3), cfg.DropoutProb)

	// Cloud broadcasts w^(k) and the checkpoint index to the sampled edges.
	delivered := c.t.Train(k, st, slots, c.chk, c.streams, c.doomed, c.out)
	st.Ledger.RecordRound(topology.EdgeCloud, delivered, dBytes)

	// Edge-cloud aggregation (Eqs. 5 and 6): average over surviving
	// slots, in slot order for determinism.
	c.wVecs, c.chkVecs = c.wVecs[:0], c.chkVecs[:0]
	for _, s := range c.out {
		if s.W == nil {
			continue
		}
		c.wVecs = append(c.wVecs, s.W)
		c.chkVecs = append(c.chkVecs, s.Chk)
		if st.WSum != nil {
			tensor.StorageAdd(st.WSum, s.IterSum)
			st.WCount += s.Iters
		}
	}
	slotsTotal.Add(int64(m))
	slotsDropped.Add(int64(m - len(c.wVecs)))
	if len(c.wVecs) == 0 {
		p1.End()
		return // every sampled edge failed this round; w and p carry over
	}
	// Edges upload (w_e, chk_e) — and the iterate sum when tracking.
	st.Ledger.RecordRound(topology.EdgeCloud, len(c.wVecs), cfg.UplinkBytes(d, true))
	tensor.AverageInto(st.W, c.wVecs...)
	tensor.AverageInto(c.wChk, c.chkVecs...)
	if cfg.CheckpointOff {
		// A1 ablation: estimate the p-gradient at the end-of-round model
		// instead of the unbiased random checkpoint.
		copy(c.wChk, st.W)
	}
	c.t.Release(c.out)
	clear(c.out)
	p1.End()

	// ---- Phase 2: the edge-weight update (Algorithm 1 lines 10-14) ----
	p2 := obsSpan("phase2", k)
	ur := kr.ChildVal(4)
	sampled := ur.SampleUniform(m, nE)
	c.draw(ur.ChildVal(5), cfg.DropoutProb)
	clear(c.losses)
	clear(c.alive)
	// Cloud broadcasts the checkpoint model to the uniformly sampled
	// edges; they reply with scalar loss estimates.
	delivered, arrived := c.t.Losses(k, st, c.wChk, sampled, c.streams, c.doomed, c.losses, c.alive)
	st.Ledger.RecordRound(topology.EdgeCloud, delivered, dBytes)
	st.Ledger.RecordRound(topology.EdgeCloud, arrived, 8)

	// Unbiased estimator: v_e = (N_E/m_E) f_e(w_chk) for sampled e.
	tensor.Zero(c.v)
	scale := float64(nE) / float64(m)
	for i, e := range sampled {
		if c.alive[i] {
			c.v[e] += scale * c.losses[i]
		}
	}
	// Projected gradient ascent with effective step eta_p*tau1*tau2 (Eq. 7).
	optim.AscentStep(st.P, c.v, cfg.EtaP*float64(cfg.SlotsPerRound()), prob.P)
	p2.End()
}

// obsSpan opens a per-phase span without allocating attrs when
// observability is disabled.
func obsSpan(name string, round int) obs.Span {
	if h := obs.Get(); h != nil {
		return h.Start(name, obs.Int("round", round))
	}
	return obs.Span{}
}

// local is the in-process Transport: slots and loss estimates run
// through sched.For over the tree held in memory.
type local struct {
	pool *fl.ModelPool
	tree Tree
}

func (l *local) Train(k int, st *fl.State, slots, chk []int, streams []rng.Stream, doomed []bool, out []Slot) int {
	t0 := obs.Now()
	sched.For(0, len(slots), func(i int) {
		if !doomed[i] {
			out[i] = modelUpdate(modelUpdateArgs{
				st: st, pool: l.pool, tree: l.tree, round: k, edge: slots[i],
				chk: chk, stream: &streams[i],
			})
		}
	})
	// One SGD step evaluates BatchSize per-example gradients; every
	// trained client ran tau1*tau2 steps.
	examples := 0
	for _, s := range out {
		examples += int(s.Iters) * st.Cfg.BatchSize
	}
	gradEvals.Add(int64(examples))
	if el := obs.Now().Sub(t0).Seconds(); el > 0 && examples > 0 {
		examplesPerSec.Set(float64(examples) / el)
	}
	return len(slots)
}

func (l *local) Losses(k int, st *fl.State, wChk []float64, sampled []int, streams []rng.Stream, doomed []bool, losses []float64, alive []bool) (int, int) {
	cfg := &st.Cfg
	dBytes := topology.ModelBytes(len(wChk))
	sched.For(0, len(sampled), func(i int) {
		if doomed[i] {
			return
		}
		alive[i] = true
		m := l.pool.Get()
		defer l.pool.Put(m)
		// The edge relays the checkpoint to its round-k cohort (the
		// clients Phase 1 trained — its resident clients, or the roster
		// sample); they return mini-batch losses.
		var n int
		losses[i], n = fl.CohortLossEstimate(m, wChk, cfg, st.Prob.Fed, k, sampled[i], &streams[i])
		lossEvals.Add(int64(n * cfg.LossBatch))
		st.Ledger.RecordRound(topology.ClientEdge, n, dBytes)
		st.Ledger.RecordRound(topology.ClientEdge, n, 8)
	})
	return len(sampled), len(sampled)
}

func (*local) Release(out []Slot) {
	for _, s := range out {
		if s.scratch != nil {
			slotPool.Put(s.scratch)
		}
	}
}

// modelUpdateArgs bundles the inputs of one edge slot's modelUpdate: the
// run state (read-only but for the ledger), the tree, the sampled edge,
// the round's checkpoint vector and the slot's stream.
type modelUpdateArgs struct {
	st          *fl.State
	pool        *fl.ModelPool
	tree        Tree
	round, edge int
	chk         []int
	stream      *rng.Stream
}

// modelUpdate runs the ModelUpdate procedure of Algorithm 1 for one
// sampled edge slot: tau2 client-edge aggregation blocks, each consisting
// of tau1 local SGD steps per client of the edge's round cohort, with the
// (c2, c1) checkpoint recorded in block c2 after c1 steps — on a deeper
// tree, the same blocks at every level-1 node under the slot's area
// (node). The client block itself is fl.Fold, for every cohort source,
// worker count and kernel class (float32 lanes on the avx2f32 tier);
// this function is the edge around it.
func modelUpdate(a modelUpdateArgs) Slot {
	cfg, prob, wStart := &a.st.Cfg, a.st.Prob, a.st.W
	top := len(a.tree.Taus) - 1
	s := getSlotScratch(len(wStart), cfg.TrackAverages)
	f := foldPool.Get().(*fl.Fold)
	defer foldPool.Put(f)
	f.Cohort.SetEdge(cfg, prob.Fed, a.round, a.edge)
	n := f.Cohort.Len()
	var iterSum []float64
	if cfg.TrackAverages {
		iterSum = s.iterSum
	}
	rows := 0
	for v := 2; v <= top; v++ {
		rows += 2 * a.tree.Branching[v-1]
	}
	s.rows = fl.GrowRows(s.rows, rows, len(wStart))
	a.node(top, f, 0, wStart, s.we, s.chkEdge, *a.stream, a.chk[0], iterSum, s.rows)
	// Edge uploads (w_e, chk_e) to the cloud; compress if configured
	// (no error feedback: edge uplinks happen once per round).
	if comp := cfg.Compression; comp.Enabled() {
		comp.Apply(s.we, nil, a.stream.ChildN('Q', 1))
		comp.Apply(s.chkEdge, nil, a.stream.ChildN('Q', 2))
	}
	return s.slot(cfg, n)
}

// node runs a level-v node whose leaves start at client leafLo of the
// slot's area: Taus[v] blocks, the first from start (read, not written)
// and each later one from w, each aggregated into w — the
// bits of copying start into w first, without the copy. A level-1 node
// runs each block as one Fold block over the Fold's cohort; a higher
// node runs its children in child order on rows (its own children's
// outputs first, the levels below after them). When chkAt > 0 the node
// is in scope: its block chk[v] also averages the checkpoints, taken by
// the leaves after chkAt local steps, into chk.
func (a *modelUpdateArgs) node(v int, f *fl.Fold, leafLo int, start, w, chk []float64, stream rng.Stream, chkAt int, iterSum []float64, rows [][]float64) {
	cfg, ledger := &a.st.Cfg, a.st.Ledger
	dBytes := topology.ModelBytes(len(w))
	link, n := topology.ClientEdge, f.Cohort.Len()
	var finals, chks [][]float64
	if v > 1 {
		link, n = topology.MidTier, a.tree.Branching[v-1]
		finals, chks, rows = rows[:n], rows[n:2*n], rows[2*n:]
	} else {
		f.Begin(cfg, a.st.Prob, a.pool, cfg.Compression)
	}
	leaves := prod(a.tree.Branching[:v-1])
	for t := 0; t < a.tree.Taus[v]; t++ {
		at := 0 // the leaves' checkpoint step in this block, 0 for none
		if t == a.chk[v] {
			at = chkAt
		}
		// The node broadcasts its model to its children.
		ledger.RecordRound(link, n, dBytes)
		bs := stream.ChildVal(uint64(t))
		from := w
		if t == 0 {
			from = start
		}
		if v == 1 {
			f.Block(from, bs, at, iterSum)
		}
		for j := range finals {
			lo := leafLo + j*leaves
			if v == 2 {
				f.Cohort.Clients = a.st.Prob.Fed.Areas[a.edge].Clients[lo : lo+leaves]
			}
			a.node(v-1, f, lo, from, finals[j], chks[j], bs.ChildVal(uint64(j)), at, iterSum, rows)
		}
		// Children upload their models, plus the checkpoint in block chk[v]
		// and the iterate sum when tracking averages. Trees deeper than
		// three layers refuse compression (Tree.validate), so the one rule
		// prices the mid-tier uplinks too.
		ledger.RecordRound(link, n, cfg.UplinkBytes(len(w), at > 0))
		if v == 1 {
			if !f.Finish(w, chk) && t == 0 {
				// Nothing folded: the node's model stays the start.
				copy(w, start)
			}
		} else {
			tensor.AverageInto(w, finals...)
			if at > 0 {
				tensor.AverageInto(chk, chks...)
			}
		}
	}
}
