package baselines

import (
	"repro/internal/fl"
	"repro/internal/quant"
	"repro/internal/sched"
	"repro/internal/tensor"
	"repro/internal/topology"
)

// HierFAvg is hierarchical Federated Averaging (Liu et al. [21]): the
// same three-layer client-edge-cloud architecture and (tau1, tau2)
// schedule as HierMinimax, but solving the minimization problem (1) —
// edges are sampled uniformly and the weights p stay uniform forever.
// The gap between HierFAvg and HierMinimax therefore isolates exactly
// the minimax fairness mechanism (Table 2's comparison).
func HierFAvg(prob *fl.Problem, cfg fl.Config) (*fl.Result, error) {
	pool := fl.NewModelPool(prob.Model)
	var slots []hierSlot
	return fl.Run("HierFAvg", prob, cfg, func(k int, st *fl.State) {
		if len(slots) < st.Cfg.SampledEdges {
			slots = make([]hierSlot, st.Cfg.SampledEdges)
		}
		hierFAvgRound(k, st, pool, slots)
	})
}

// hierSlot is one sampled edge's working state, reused across rounds:
// the client-block fold, the edge model and the slot's iterate sum.
type hierSlot struct {
	fold        fl.Fold
	we, iterSum []float64
}

func hierFAvgRound(k int, st *fl.State, pool *fl.ModelPool, slots []hierSlot) {
	cfg := &st.Cfg
	prob := st.Prob
	d := len(st.W)
	dBytes := topology.ModelBytes(d)
	kr := st.Root.ChildN('k', uint64(k))

	// Uniform edge sampling (no p).
	edges := kr.Child(1).SampleUniform(cfg.SampledEdges, prob.Fed.NumAreas())
	st.Ledger.RecordRound(topology.EdgeCloud, len(edges), dBytes)

	// Each sampled edge runs its tau2 aggregation blocks over its round-k
	// cohort — the same cohort source and client block as HierMinimax,
	// with HierFAvg's uniform edge weights and no checkpoint.
	sched.For(0, len(edges), func(i int) {
		s := &slots[i]
		f := &s.fold
		f.Cohort.SetEdge(cfg, prob.Fed, k, edges[i])
		n := f.Cohort.Len()
		f.Begin(cfg, prob, pool, quant.Config{})
		s.we = fl.GrowVec(s.we, d)
		copy(s.we, st.W)
		var iterSum []float64
		if cfg.TrackAverages {
			s.iterSum = fl.GrowVec(s.iterSum, d)
			tensor.Zero(s.iterSum)
			iterSum = s.iterSum
		}
		sr := kr.ChildVal(2).ChildVal(uint64(i))
		for t2 := 0; t2 < cfg.Tau2; t2++ {
			st.Ledger.RecordRound(topology.ClientEdge, n, dBytes)
			f.Block(s.we, sr.ChildVal(uint64(t2)), 0, iterSum)
			st.Ledger.RecordRound(topology.ClientEdge, n, cfg.UplinkBytes(d, false))
			f.Finish(s.we, nil)
		}
	})
	st.Ledger.RecordRound(topology.EdgeCloud, len(edges), cfg.UplinkBytes(d, false))

	wVecs := make([][]float64, len(edges))
	for i := range edges {
		s := &slots[i]
		wVecs[i] = s.we
		if st.WSum != nil {
			tensor.Axpy(1, s.iterSum, st.WSum)
			st.WCount += float64(cfg.SlotsPerRound() * s.fold.Cohort.Len())
		}
	}
	tensor.AverageInto(st.W, wVecs...)
}
