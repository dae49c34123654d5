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
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/rng"
	"repro/internal/simplex"
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

// hierMinimax runs the rounds of a tree whose Taus are set (Branching nil
// for the paper's network), drawing the checkpoint into a run-long buffer.
func hierMinimax(name string, prob *fl.Problem, cfg fl.Config, tree Tree, opts fl.RunOptions) (*fl.Result, error) {
	pool := fl.NewModelPool(prob.Model)
	chk := make([]int, len(tree.Taus))
	return fl.RunWithOptions(name, prob, cfg, func(k int, st *fl.State) {
		round(k, st, pool, tree, chk)
	}, opts)
}

// slotScratch holds a slot's outputs (edge model, edge checkpoint,
// iterate sum), which live until round has aggregated them. Instances
// recycle through slotPool, so after the first few rounds Phase 1 runs
// without allocating model-sized vectors. On the avx2f32 tier a resident
// slot runs in float32 storage (modelUpdate32) on the float32 mirrors
// below, and only the outputs are materialized in float64 for the cloud
// aggregation.
type slotScratch struct {
	we, chkEdge, iterSum []float64
	rows                 [][]float64 // child outputs above level 1 (node)

	we32, chkEdge32  []float32
	iterSum32        []float32
	finals32, chks32 [][]float32
	sums32           [][]float32
}

var slotPool = sync.Pool{New: func() any { return new(slotScratch) }}

// foldPool recycles the client-block folds. A fold's lane rows and
// accumulators are needed only while its slot trains, so they are pooled
// apart from the slot outputs: as many exist as slots train at once, not
// as a round samples, and the next slot finds them warm in cache.
var foldPool = sync.Pool{New: func() any { return new(fl.Fold) }}

// scratchPool recycles the per-worker SGD scratch of modelUpdate32.
var scratchPool = sync.Pool{New: func() any { return new(fl.Scratch) }}

// wChkPool recycles the per-round checkpoint average of round (the only
// model-sized vector Phase 1 would otherwise allocate each round).
var wChkPool = sync.Pool{New: func() any { return new([]float64) }}

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

// slotResult is the outcome of one sampled edge slot's ModelUpdate. The
// scratch (nil for a dropped slot) carries the edge model, checkpoint and
// iterate sum; round returns it to the pool after aggregation. clients is
// the size of the cohort the slot trained.
type slotResult struct {
	scratch *slotScratch
	clients int
}

// round advances one HierMinimax training round on tree, drawing the
// round's checkpoint vector into chk.
func round(k int, st *fl.State, pool *fl.ModelPool, tree Tree, chk []int) {
	cfg := &st.Cfg
	prob := st.Prob
	nE := prob.Fed.NumAreas()
	dBytes := topology.ModelBytes(len(st.W))
	kr := st.Root.ChildN('k', uint64(k))
	hub := obs.Get()

	p1 := obsSpan("phase1", k)

	// ---- Phase 1 ----
	// Sample edge slots by p^(k) with replacement (the unbiasedness
	// argument of Appendix A needs i.i.d. draws), and the checkpoint
	// index (c1, c2) — a vector on deeper trees.
	slots := kr.Child(1).SampleWeighted(cfg.SampledEdges, st.P)
	drawCheckpoint(kr.Child(2), tree.Taus, chk)

	// Cloud broadcasts w^(k) and the checkpoint index to the sampled edges.
	st.Ledger.RecordRound(topology.EdgeCloud, len(slots), dBytes)

	t0 := obs.Now()
	results := make([]slotResult, len(slots))
	cfg.ForEach(len(slots), func(i int) {
		sr := kr.ChildN(3, uint64(i))
		if fl.SlotDropped(sr, cfg.DropoutProb) {
			return
		}
		results[i] = modelUpdate(modelUpdateArgs{
			st: st, pool: pool, tree: tree, round: k, edge: slots[i],
			chk: chk, stream: sr,
		})
	})

	// Edge-cloud aggregation (Eqs. 5 and 6): average over surviving
	// slots, in slot order for determinism.
	var wVecs, chkVecs [][]float64
	dropped, clients := 0, 0
	for _, r := range results {
		if r.scratch == nil {
			dropped++
			continue
		}
		wVecs = append(wVecs, r.scratch.we)
		chkVecs = append(chkVecs, r.scratch.chkEdge)
		clients += r.clients
		if st.WSum != nil {
			// Each client summed tau1*tau2 iterates into the slot's sum.
			tensor.StorageAdd(st.WSum, r.scratch.iterSum)
			st.WCount += float64(cfg.SlotsPerRound() * r.clients)
		}
	}
	slotsTotal.Add(int64(len(slots)))
	slotsDropped.Add(int64(dropped))
	// One SGD step evaluates BatchSize per-example gradients; every
	// trained client ran tau1*tau2 steps.
	examples := cfg.SlotsPerRound() * clients * cfg.BatchSize
	gradEvals.Add(int64(examples))
	if hub != nil && len(wVecs) > 0 {
		if el := obs.Now().Sub(t0).Seconds(); el > 0 {
			examplesPerSec.Set(float64(examples) / el)
		}
	}
	if len(wVecs) == 0 {
		p1.End()
		return // every sampled edge failed this round; w and p carry over
	}
	// Edges upload (w_e, chk_e) — and the iterate sum when tracking.
	// Compressed uplinks are priced at their exact wire size; the
	// iterate sum always travels dense.
	ecVec := dBytes
	if cfg.Compression.Enabled() {
		ecVec = cfg.Compression.VecWireBytes(len(st.W))
	}
	ecUp := 2 * ecVec
	if cfg.TrackAverages {
		ecUp += dBytes
	}
	st.Ledger.RecordRound(topology.EdgeCloud, len(wVecs), ecUp)
	tensor.AverageInto(st.W, wVecs...)
	tp := obs.Now()
	fl.ProjectW(prob.W, st.W)
	obs.ObserveSince("core_projection_ms", tp)
	wp := wChkPool.Get().(*[]float64)
	*wp = fl.GrowVec(*wp, len(st.W))
	wChk := *wp
	defer wChkPool.Put(wp)
	tensor.AverageInto(wChk, chkVecs...)
	if cfg.CheckpointOff {
		// A1 ablation: estimate the p-gradient at the end-of-round model
		// instead of the unbiased random checkpoint.
		copy(wChk, st.W)
	}
	for _, r := range results {
		if r.scratch != nil {
			slotPool.Put(r.scratch)
		}
	}
	p1.End()

	// ---- Phase 2 ----
	p2 := obsSpan("phase2", k)
	phase2(k, st, pool, wChk, nE, dBytes, kr.Child(4))
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

// phase2 performs the edge-weight update (Algorithm 1 lines 10-14). It
// is shared with DRFA-style baselines via the fl.State plumbing.
func phase2(k int, st *fl.State, pool *fl.ModelPool, wChk []float64, nE int, dBytes int64, ur *rng.Stream) {
	cfg := &st.Cfg
	prob := st.Prob
	sampled := ur.SampleUniform(cfg.SampledEdges, nE)

	// Cloud broadcasts the checkpoint model to the uniformly sampled
	// edges; they reply with scalar loss estimates.
	st.Ledger.RecordRound(topology.EdgeCloud, len(sampled), dBytes)
	losses := make([]float64, len(sampled))
	alive := make([]bool, len(sampled))
	cfg.ForEach(len(sampled), func(i int) {
		er := ur.ChildN(5, uint64(i))
		if fl.SlotDropped(er, cfg.DropoutProb) {
			return
		}
		alive[i] = true
		m := pool.Get()
		defer pool.Put(m)
		// The edge relays the checkpoint to its round-k cohort (the
		// clients Phase 1 trained — its resident clients, or the roster
		// sample); they return mini-batch losses.
		var n int
		losses[i], n = fl.CohortLossEstimate(m, wChk, cfg, prob.Fed, k, sampled[i], er)
		lossEvals.Add(int64(n * cfg.LossBatch))
		st.Ledger.RecordRound(topology.ClientEdge, n, dBytes)
		st.Ledger.RecordRound(topology.ClientEdge, n, 8)
	})
	st.Ledger.RecordRound(topology.EdgeCloud, len(sampled), 8)

	// Unbiased estimator: v_e = (N_E/m_E) f_e(w_chk) for sampled e.
	v := make([]float64, nE)
	scale := float64(nE) / float64(cfg.SampledEdges)
	for i, e := range sampled {
		if alive[i] {
			v[e] += scale * losses[i]
		}
	}
	// Projected gradient ascent with effective step eta_p*tau1*tau2 (Eq. 7).
	optim.AscentStep(st.P, v, cfg.EtaP*float64(cfg.SlotsPerRound()), prob.P)
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
// worker count and kernel class; this function is the edge around it.
func modelUpdate(a modelUpdateArgs) slotResult {
	cfg, prob, wStart := &a.st.Cfg, a.st.Prob, a.st.W
	top := len(a.tree.Taus) - 1
	if top == 1 && tensor.StorageF32() && !cfg.PopulationEnabled() {
		// Validate refuses Compression on the f32 tier, so the float32
		// fast path never has to model compressed uplinks.
		if _, ok := prob.Model.(model.F32Model); ok {
			return modelUpdate32(a)
		}
	}
	s := getSlotScratch(len(wStart), cfg.TrackAverages)
	f := foldPool.Get().(*fl.Fold)
	defer foldPool.Put(f)
	f.Cohort.SetEdge(cfg, prob.Fed, a.round, a.edge)
	n := f.Cohort.Len()
	copy(s.we, wStart)
	var iterSum []float64
	if cfg.TrackAverages {
		iterSum = s.iterSum
	}
	rows := 0
	for v := 2; v <= top; v++ {
		rows += 2 * a.tree.Branching[v-1]
	}
	s.rows = fl.GrowRows(s.rows, rows, len(wStart))
	a.node(top, f, 0, s.we, s.chkEdge, *a.stream, a.chk[0], iterSum, s.rows)
	// Edge uploads (w_e, chk_e) to the cloud; compress if configured
	// (no error feedback: edge uplinks happen once per round).
	if comp := cfg.Compression; comp.Enabled() {
		comp.Apply(s.we, nil, a.stream.ChildN('Q', 1))
		comp.Apply(s.chkEdge, nil, a.stream.ChildN('Q', 2))
	}
	return slotResult{scratch: s, clients: n}
}

// node runs a level-v node whose leaves start at client leafLo of the
// slot's area: Taus[v] blocks from w, each aggregated into w and
// projected. A level-1 node runs each block as one Fold block over the
// Fold's cohort; a higher node runs its children from w in child order on
// rows (its own children's outputs first, the levels below after them).
// When chkAt > 0 the node is in scope: its block chk[v] also averages the
// checkpoints, taken by the leaves after chkAt local steps, into chk.
func (a *modelUpdateArgs) node(v int, f *fl.Fold, leafLo int, w, chk []float64, stream rng.Stream, chkAt int, iterSum []float64, rows [][]float64) {
	cfg, ledger := &a.st.Cfg, a.st.Ledger
	dBytes := topology.ModelBytes(len(w))
	link, n, upBytes := topology.ClientEdge, f.Cohort.Len(), dBytes
	var finals, chks [][]float64
	if v > 1 {
		link, n = topology.MidTier, a.tree.Branching[v-1]
		finals, chks, rows = rows[:n], rows[n:2*n], rows[2*n:]
	} else {
		if cfg.Compression.Enabled() {
			upBytes = cfg.Compression.VecWireBytes(len(w))
		}
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
		if v == 1 {
			f.Block(w, bs, at, iterSum)
		}
		for j := range finals {
			copy(finals[j], w)
			lo := leafLo + j*leaves
			if v == 2 {
				f.Cohort.Clients = a.st.Prob.Fed.Areas[a.edge].Clients[lo : lo+leaves]
			}
			a.node(v-1, f, lo, finals[j], chks[j], bs.ChildVal(uint64(j)), at, iterSum, rows)
		}
		// Children upload their models, plus the checkpoint in block chk[v]
		// and the iterate sum when tracking averages (dense).
		up := upBytes
		if at > 0 {
			up *= 2
		}
		if cfg.TrackAverages {
			up += dBytes
		}
		ledger.RecordRound(link, n, up)
		if v == 1 {
			f.Finish(w, chk)
		} else {
			tensor.AverageInto(w, finals...)
			if at > 0 {
				tensor.AverageInto(chk, chks...)
			}
		}
		fl.ProjectW(a.st.Prob.W, w)
	}
}

// modelUpdate32 is modelUpdate on the avx2f32 tier for models with a
// native float32 path (never with compression — fl.Config.Validate
// refuses that combination): the whole slot stays in float32 storage. Clients run
// LocalSGD32Scratch on float32 slot buffers — no per-client float64
// round-trips — and the per-block aggregation widens the float32 finals
// into a float64 accumulator with a single rounding back to storage
// (AverageWidenInto), which is bit-for-bit AverageInto + Round32 on the
// widened vectors. The trajectory is therefore identical to the
// float64-interchange path while every client block moves half the
// bytes; only the slot outputs (we, chkEdge, iterSum) are widened for
// the cloud-level aggregation, once per slot.
func modelUpdate32(a modelUpdateArgs) slotResult {
	cfg, prob, wStart, ledger := &a.st.Cfg, a.st.Prob, a.st.W, a.st.Ledger
	clients := prob.Fed.Areas[a.edge].Clients
	n0, d := len(clients), len(wStart)
	dBytes := topology.ModelBytes(d)

	s := getSlotScratch(d, cfg.TrackAverages)
	s.we32 = fl.GrowVec(s.we32, d)
	s.chkEdge32 = fl.GrowVec(s.chkEdge32, d)
	s.finals32 = fl.GrowRows(s.finals32, n0, d)
	s.chks32 = fl.GrowRows(s.chks32, n0, d)
	if cfg.TrackAverages {
		s.iterSum32 = fl.GrowVec(s.iterSum32, d)
		tensor.Zero32(s.iterSum32)
		s.sums32 = fl.GrowRows(s.sums32, n0, d)
	}
	// Exact narrowing: the broadcast model is storage-representable.
	tensor.ToF32(s.we32, wStart)
	_, freeW := prob.W.(simplex.FullSpace)

	for t2 := 0; t2 < cfg.Tau2; t2++ {
		// Edge broadcasts w_e^(k,t2) to its clients.
		ledger.RecordRound(topology.ClientEdge, n0, dBytes)
		chkAt := 0
		if t2 == a.chk[1] {
			chkAt = a.chk[0]
		}
		runClients := func(lo, hi int) {
			mdl := a.pool.Get()
			defer a.pool.Put(mdl)
			fm := mdl.(model.F32Model)
			sc := scratchPool.Get().(*fl.Scratch)
			defer scratchPool.Put(sc)
			for c := lo; c < hi; c++ {
				r := a.stream.ChildN(uint64(t2), uint64(c))
				var clientSum []float32
				if cfg.TrackAverages {
					clientSum = s.sums32[c]
					tensor.Zero32(clientSum)
				}
				wf := s.finals32[c]
				copy(wf, s.we32)
				fl.LocalSGD32Scratch(fm, wf, clients[c], cfg.Tau1, cfg.BatchSize, cfg.EtaW, prob.W, r, chkAt, clientSum, s.chks32[c], sc)
			}
		}
		if cfg.Sequential {
			runClients(0, n0)
		} else {
			tensor.ParallelFor(n0, 1, runClients)
		}
		// Per-client iterate sums reduced in client order with float32
		// adds — exactly StorageAdd on the widened mirrors.
		if cfg.TrackAverages {
			for c := 0; c < n0; c++ {
				tensor.Axpy32(1, s.sums32[c], s.iterSum32)
			}
		}
		// Clients upload their models (plus the checkpoint in block c2,
		// plus the uncompressed iterate sum when tracking averages).
		up := dBytes
		if t2 == a.chk[1] {
			up *= 2
		}
		if cfg.TrackAverages {
			up += dBytes
		}
		ledger.RecordRound(topology.ClientEdge, n0, up)
		// Client-edge aggregation in the regime's native float32
		// arithmetic (the same bits AverageInto computes from widened
		// mirrors). Under a trivial W the projection is a no-op and the
		// average is already storage-representable, so the float64
		// round-trip is skipped entirely.
		tensor.Average32Into(s.we32, s.finals32...)
		if !freeW {
			tensor.ToF64(s.we, s.we32)
			fl.ProjectW(prob.W, s.we)
			tensor.ToF32(s.we32, s.we)
		}
		if t2 == a.chk[1] {
			tensor.Average32Into(s.chkEdge32, s.chks32...)
		}
	}
	// Widen the slot outputs once for the float64-interchange cloud
	// aggregation (exact: all three hold storage-representable values).
	tensor.ToF64(s.we, s.we32)
	tensor.ToF64(s.chkEdge, s.chkEdge32)
	if cfg.TrackAverages {
		tensor.ToF64(s.iterSum, s.iterSum32)
	}
	return slotResult{scratch: s, clients: n0}
}
