// Package baselines implements the four comparison methods of §6 —
// FedAvg [23], Stochastic-AFL [25], DRFA [10] and HierFAvg [21] — over
// the same substrates (models, data, topology ledger) as HierMinimax, so
// the communication and fairness comparisons are apples-to-apples. Each
// baseline is implemented from its own paper's description rather than by
// reconfiguring HierMinimax. None implements uplink compression, slot
// dropout or CheckpointOff: the facade's regime table refuses them.
package baselines

import (
	"fmt"

	"repro/internal/fl"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/topology"
)

// FedAvg is standard Federated Averaging (McMahan et al. [23]) on the
// two-layer client-server architecture: every round the server samples
// m = SampledEdges*N0 clients uniformly, each runs Tau1 local SGD steps,
// and the server averages the returned models. It solves the
// minimization problem (1) with fixed uniform weights; p is never
// updated. Config.Tau2 must be 1 (two-layer methods have no client-edge
// aggregation).
func FedAvg(prob *fl.Problem, cfg fl.Config) (*fl.Result, error) {
	if err := requireTwoLayer("FedAvg", cfg); err != nil {
		return nil, err
	}
	pool := fl.NewModelPool(prob.Model)
	top := prob.Topology()
	var f fl.Fold
	return fl.Run("FedAvg", prob, cfg, func(k int, st *fl.State) {
		cfg := &st.Cfg
		dBytes := topology.ModelBytes(len(st.W))
		kr := st.Root.ChildN('k', uint64(k))
		// FedAvg's sampling distribution is uniform over clients, not
		// p-weighted over edges: the round's cohort is drawn from the
		// whole client set — the resident tables, or under Population
		// the registered roster, whose shards materialize lazily from
		// the striped edge corpora.
		if cfg.PopulationEnabled() {
			f.Cohort = fl.Cohort{
				IDs:    kr.Child(1).SampleUniform(cfg.SamplePerRound, cfg.Population),
				Roster: cfg.Roster(prob.Fed.NumAreas()),
				Areas:  prob.Fed.Areas,
			}
		} else {
			f.Cohort.Clients = f.Cohort.Clients[:0]
			for _, id := range kr.Child(1).SampleUniform(cfg.SampledEdges*top.ClientsPerEdge, top.NumClients()) {
				shard := prob.Fed.Areas[top.EdgeOf(id)].Clients[id%top.ClientsPerEdge]
				f.Cohort.Clients = append(f.Cohort.Clients, shard)
			}
		}
		n := f.Cohort.Len()
		st.Ledger.RecordRound(topology.ClientCloud, n, dBytes)
		f.Begin(cfg, prob, pool, quant.Config{})
		f.Block(st.W, kr.ChildVal(2), 0, st.WSum)
		if cfg.TrackAverages {
			st.WCount += float64(cfg.Tau1 * n)
		}
		st.Ledger.RecordRound(topology.ClientCloud, n, dBytes)
		f.Finish(st.W, nil)
	})
}

// requireTwoLayer rejects configurations with client-edge aggregation,
// which two-layer methods cannot perform.
func requireTwoLayer(name string, cfg fl.Config) error {
	if cfg.Tau2 > 1 {
		return fmt.Errorf("baselines: %s is a two-layer method; Tau2 must be 1, got %d", name, cfg.Tau2)
	}
	return nil
}

// uniformLossEstimates samples m_E edges uniformly, estimates each
// sampled edge's loss at w via mini-batches of its round-k cohort (its
// resident clients, or under Population the roster sample), and returns
// the unbiased gradient estimate v (v_e = (N_E/m_E) f_e(w) on sampled
// edges, 0 elsewhere). Two-layer clients talk to the cloud directly, so
// the model broadcast and scalar uplink are recorded on the client-cloud
// link: per cohort member under Population, per sampled edge otherwise.
func uniformLossEstimates(k int, st *fl.State, pool *fl.ModelPool, w []float64, r *rng.Stream) []float64 {
	cfg := &st.Cfg
	prob := st.Prob
	nE := prob.Fed.NumAreas()
	sampled := r.SampleUniform(cfg.SampledEdges, nE)
	losses := make([]float64, len(sampled))
	sizes := make([]int, len(sampled))
	sched.For(0, len(sampled), func(i int) {
		m := pool.Get()
		defer pool.Put(m)
		losses[i], sizes[i] = fl.CohortLossEstimate(m, w, cfg, prob.Fed, k, sampled[i], r.ChildN(5, uint64(i)))
	})
	msgs := len(sampled)
	if cfg.PopulationEnabled() {
		msgs = 0
		for _, n := range sizes {
			msgs += n
		}
	}
	st.Ledger.RecordRound(topology.ClientCloud, msgs, topology.ModelBytes(len(w)))
	st.Ledger.RecordRound(topology.ClientCloud, msgs, 8)
	v := make([]float64, nE)
	scale := float64(nE) / float64(cfg.SampledEdges)
	for i, e := range sampled {
		v[e] += scale * losses[i]
	}
	return v
}
