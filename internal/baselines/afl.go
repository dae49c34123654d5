package baselines

import (
	"fmt"

	"repro/internal/fl"
	"repro/internal/optim"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/topology"
)

// StochasticAFL is the Stochastic Agnostic Federated Learning algorithm
// of Mohri, Sivek and Suresh [25]: two-layer minimax with a single local
// SGD step per round. Every round the server samples edge slots by
// p^(k), each slot's clients take one SGD step from w^(k), the
// server averages the returned models into w^(k+1), then updates p by
// projected gradient ascent on uniformly-sampled loss estimates of
// w^(k+1). Config.Tau1 and Config.Tau2 must both be 1.
func StochasticAFL(prob *fl.Problem, cfg fl.Config) (*fl.Result, error) {
	if err := requireTwoLayer("Stochastic-AFL", cfg); err != nil {
		return nil, err
	}
	if cfg.Tau1 > 1 {
		return nil, fmt.Errorf("baselines: Stochastic-AFL uses single-step updates; Tau1 must be 1, got %d", cfg.Tau1)
	}
	pool := fl.NewModelPool(prob.Model)
	var s twoLayerScratch
	return fl.Run("Stochastic-AFL", prob, cfg, func(k int, st *fl.State) {
		minimaxTwoLayerRound(k, st, pool, &s)
	})
}

// DRFA is Distributionally Robust Federated Averaging (Deng, Kamani,
// Mahdavi [10]): two-layer minimax with Tau1 local SGD steps per round
// and a uniformly-random per-round checkpoint index c1 in [Tau1] at which
// the p-gradient is estimated — the two-layer special case (tau2 = 1) of
// the checkpoint mechanism. Config.Tau2 must be 1.
func DRFA(prob *fl.Problem, cfg fl.Config) (*fl.Result, error) {
	if err := requireTwoLayer("DRFA", cfg); err != nil {
		return nil, err
	}
	pool := fl.NewModelPool(prob.Model)
	var s twoLayerScratch
	return fl.Run("DRFA", prob, cfg, func(k int, st *fl.State) {
		minimaxTwoLayerRound(k, st, pool, &s)
	})
}

// twoLayerScratch is the per-run state of minimaxTwoLayerRound, reused
// across rounds: the client-block fold, the checkpoint average and one
// slot's iterate sum.
type twoLayerScratch struct {
	fold          fl.Fold
	wChk, iterSum []float64
}

// minimaxTwoLayerRound advances one round of a two-layer minimax method
// with cfg.Tau1 local steps. With Tau1 = 1 it is Stochastic-AFL (the
// checkpoint after 1 step is exactly the aggregated next iterate); with
// Tau1 > 1 it is DRFA.
func minimaxTwoLayerRound(k int, st *fl.State, pool *fl.ModelPool, s *twoLayerScratch) {
	cfg := &st.Cfg
	prob := st.Prob
	d := len(st.W)
	dBytes := topology.ModelBytes(d)
	kr := st.Root.ChildN('k', uint64(k))

	// Sample edge slots i.i.d. from the categorical distribution p^(k)
	// (with replacement), as Phase-1 unbiasedness requires — the same
	// deterministic draw HierMinimax makes from its own stream keys.
	slots := kr.Child(1).SampleWeighted(cfg.SampledEdges, st.P)
	c1 := 1 + kr.Child(2).Intn(cfg.Tau1) // checkpoint step (DRFA); trivial for Tau1=1

	// Each sampled slot trains its edge's round-k cohort — the identical
	// cohort source the HierMinimax engines use — from w^(k). There is no
	// edge tier to average at, so the slots fold into one mean: the server
	// averages flat over the round's participants, in slot-major order.
	f := &s.fold
	var iterSum []float64
	if cfg.TrackAverages {
		s.iterSum = fl.GrowVec(s.iterSum, d)
		iterSum = s.iterSum
	}
	sr := kr.ChildVal(3)
	nTot := 0
	for i, e := range slots {
		f.Cohort.SetEdge(cfg, prob.Fed, k, e)
		n := f.Cohort.Len()
		nTot += n
		f.Begin(cfg, prob, pool, quant.Config{})
		if iterSum != nil {
			tensor.Zero(iterSum)
		}
		f.Block(st.W, sr.ChildVal(uint64(i)), c1, iterSum)
		if iterSum != nil {
			tensor.Axpy(1, iterSum, st.WSum)
			st.WCount += float64(cfg.Tau1 * n)
		}
	}
	st.Ledger.RecordRound(topology.ClientCloud, nTot, dBytes)
	st.Ledger.RecordRound(topology.ClientCloud, nTot, cfg.UplinkBytes(d, true))
	s.wChk = fl.GrowVec(s.wChk, d)
	f.Finish(st.W, s.wChk)

	// Weight update at the checkpoint model, step eta_p * tau1.
	v := uniformLossEstimates(k, st, pool, s.wChk, kr.Child(4))
	optim.AscentStep(st.P, v, cfg.EtaP*float64(cfg.Tau1), prob.P)
}
