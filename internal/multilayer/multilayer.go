// Package multilayer generalizes HierMinimax from the paper's three-layer
// client-edge-cloud instance to an arbitrary-depth hub-and-spoke tree —
// the "multi-layer hierarchical networks" of the paper's title and §3
// ("We consider a multi-layer hub-and-spoke-type network topology. Since
// the three-layer client-edge-cloud network architecture is common ...
// we use it as a representative example").
//
// An L-layer tree has clients at level 0, aggregators at levels 1..L-2
// and the root (cloud) at level L-1. Taus[0] is the number of local SGD
// steps per level-1 aggregation; Taus[v] for v >= 1 is the number of
// aggregation blocks a level-v node runs over its children per block of
// its parent. The checkpoint index generalizes from the paper's (c1, c2)
// to a vector (c_0, ..., c_{L-2}) drawn uniformly from the product of
// the periods, preserving the unbiasedness of the Phase-2 weight
// gradient: the checkpointed model is the client average after a
// uniformly random number of elapsed slots in [1, Prod(Taus)].
//
// With L = 3 (Branching = [N0, N_E], Taus = [tau1, tau2]) the recursion,
// the stream key derivations and the ledger entries coincide exactly
// with internal/core's Algorithm 1, so the two engines produce
// bitwise-identical trajectories — asserted in the tests.
package multilayer

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/model"
	"repro/internal/optim"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/topology"
)

// Config configures an L-layer HierMinimax run.
type Config struct {
	// Base supplies rounds, learning rates, batch sizes, sampling and
	// seed. Base.Tau1/Tau2 are ignored (Taus rules); Base.Compression,
	// Base.DropoutProb and Base.TrackAverages are not supported here.
	Base fl.Config
	// Branching[v] is the number of children of a node at level v+1;
	// the last entry is the number of top-level areas under the root.
	Branching []int
	// Taus[v] is the aggregation period at level v (Taus[0] = local SGD
	// steps). len(Taus) == len(Branching).
	Taus []int
}

// Layers returns L (client level through root).
func (c Config) Layers() int { return len(c.Branching) + 1 }

// SlotsPerRound returns Prod(Taus), the local SGD slots per round.
func (c Config) SlotsPerRound() int {
	p := 1
	for _, t := range c.Taus {
		p *= t
	}
	return p
}

// LeavesPerArea returns the clients under one top-level area.
func (c Config) LeavesPerArea() int {
	p := 1
	for _, b := range c.Branching[:len(c.Branching)-1] {
		p *= b
	}
	return p
}

// leavesBelow returns the clients under one node at level v.
func (c Config) leavesBelow(v int) int {
	p := 1
	for _, b := range c.Branching[:v] {
		p *= b
	}
	return p
}

// Validate checks structural consistency against the problem.
func (c Config) Validate(prob *fl.Problem) error {
	if len(c.Branching) < 1 {
		return fmt.Errorf("multilayer: need at least one branching level")
	}
	if len(c.Taus) != len(c.Branching) {
		return fmt.Errorf("multilayer: len(Taus)=%d != len(Branching)=%d", len(c.Taus), len(c.Branching))
	}
	for i, b := range c.Branching {
		if b <= 0 {
			return fmt.Errorf("multilayer: Branching[%d] = %d", i, b)
		}
		if c.Taus[i] <= 0 {
			return fmt.Errorf("multilayer: Taus[%d] = %d", i, c.Taus[i])
		}
	}
	if got := prob.Fed.NumAreas(); got != c.Branching[len(c.Branching)-1] {
		return fmt.Errorf("multilayer: federation has %d areas, tree wants %d", got, c.Branching[len(c.Branching)-1])
	}
	if got, want := prob.Fed.ClientsPerArea(), c.LeavesPerArea(); got != want {
		return fmt.Errorf("multilayer: federation has %d clients per area, tree wants %d", got, want)
	}
	if c.Base.Compression.Enabled() {
		return fmt.Errorf("multilayer: uplink compression is not supported")
	}
	if c.Base.DropoutProb != 0 {
		return fmt.Errorf("multilayer: dropout injection is not supported")
	}
	if c.Base.TrackAverages {
		return fmt.Errorf("multilayer: iterate averaging is not supported")
	}
	return nil
}

// HierMinimax runs the L-layer generalization of Algorithm 1.
func HierMinimax(prob *fl.Problem, cfg Config) (*fl.Result, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(prob); err != nil {
		return nil, err
	}
	base := cfg.Base
	// The shared run loop's slot bookkeeping uses Tau1*Tau2; encode the
	// true product so Snapshot.Slots stays correct.
	base.Tau1 = cfg.SlotsPerRound()
	base.Tau2 = 1
	pool := fl.NewModelPool(prob.Model)
	name := fmt.Sprintf("HierMinimax/%d-layer", cfg.Layers())
	return fl.Run(name, prob, base, func(k int, st *fl.State) {
		round(k, st, &cfg, pool)
	})
}

// linkFor classifies the boundary between level v and level v-1.
func linkFor(v int) topology.Link {
	if v == 1 {
		return topology.ClientEdge
	}
	return topology.MidTier
}

func round(k int, st *fl.State, cfg *Config, pool *fl.ModelPool) {
	prob := st.Prob
	base := &st.Cfg
	nAreas := prob.Fed.NumAreas()
	dBytes := topology.ModelBytes(len(st.W))
	kr := st.Root.ChildN('k', uint64(k))
	top := len(cfg.Taus) - 1 // level of the top-level area nodes

	// ---- Phase 1 ----
	slots := kr.Child(1).SampleWeighted(base.SampledEdges, st.P)
	cr := kr.Child(2)
	// Draw the checkpoint vector top-down so the 3-layer order matches
	// Algorithm 1's (c2 then c1).
	chk := make([]int, len(cfg.Taus))
	for v := top; v >= 0; v-- {
		if v == 0 {
			chk[0] = 1 + cr.Intn(cfg.Taus[0])
		} else {
			chk[v] = cr.Intn(cfg.Taus[v])
		}
	}

	st.Ledger.RecordRound(topology.EdgeCloud, len(slots), dBytes)
	type out struct{ w, c []float64 }
	results := make([]out, len(slots))
	base.ForEach(len(slots), func(i int) {
		m := pool.Get()
		defer pool.Put(m)
		n := &nodeRun{cfg: cfg, base: base, prob: prob, model: m,
			area: prob.Fed.Areas[slots[i]].Clients, ledger: st.Ledger, chk: chk}
		w, c := n.run(top, st.W, kr.ChildN(3, uint64(i)), 0, true)
		results[i] = out{w, c}
	})

	wVecs := make([][]float64, len(results))
	cVecs := make([][]float64, len(results))
	for i, r := range results {
		wVecs[i] = r.w
		cVecs[i] = r.c
	}
	st.Ledger.RecordRound(topology.EdgeCloud, len(results), 2*dBytes)
	tensor.AverageInto(st.W, wVecs...)
	fl.ProjectW(prob.W, st.W)
	wChk := make([]float64, len(st.W))
	tensor.AverageInto(wChk, cVecs...)
	if base.CheckpointOff {
		copy(wChk, st.W)
	}

	// ---- Phase 2 ---- (identical to the 3-layer Algorithm 1)
	ur := kr.Child(4)
	sampled := ur.SampleUniform(base.SampledEdges, nAreas)
	st.Ledger.RecordRound(topology.EdgeCloud, len(sampled), dBytes)
	losses := make([]float64, len(sampled))
	base.ForEach(len(sampled), func(i int) {
		m := pool.Get()
		defer pool.Put(m)
		er := ur.ChildN(5, uint64(i))
		var n int
		losses[i], n = fl.CohortLossEstimate(m, wChk, base, prob.Fed, k, sampled[i], er)
		st.Ledger.RecordRound(topology.ClientEdge, n, dBytes)
		st.Ledger.RecordRound(topology.ClientEdge, n, 8)
	})
	st.Ledger.RecordRound(topology.EdgeCloud, len(sampled), 8)
	v := make([]float64, nAreas)
	scale := float64(nAreas) / float64(base.SampledEdges)
	for i, e := range sampled {
		v[e] += scale * losses[i]
	}
	optim.AscentStep(st.P, v, base.EtaP*float64(cfg.SlotsPerRound()), prob.P)
}

// nodeRun is the per-slot recursion state.
type nodeRun struct {
	cfg    *Config
	base   *fl.Config
	prob   *fl.Problem
	model  model.Model
	area   []data.Subset // the area's client shards, leaf order
	ledger *topology.Ledger
	chk    []int
}

// run executes the aggregation recursion for a node at level v (>= 1),
// whose leaves start at client index leafLo within the area. inChk marks
// whether every ancestor is currently inside its checkpoint block; the
// node's own checkpoint block is chk[v], and the client records its model
// after chk[0] steps only when the whole ancestor chain is in scope —
// exactly the (c1, c2) mechanism of Algorithm 1, lifted to a vector.
func (n *nodeRun) run(v int, w []float64, stream *rng.Stream, leafLo int, inChk bool) (wOut, chkOut []float64) {
	nc := n.cfg.Branching[v-1]
	link := linkFor(v)
	dBytes := topology.ModelBytes(len(w))
	we := append([]float64(nil), w...)
	finals := make([][]float64, nc)
	chks := make([][]float64, nc)
	for t := 0; t < n.cfg.Taus[v]; t++ {
		blockChk := inChk && t == n.chk[v]
		n.ledger.RecordRound(link, nc, dBytes)
		for j := 0; j < nc; j++ {
			cs := stream.ChildN(uint64(t), uint64(j))
			if v == 1 {
				chkAt := 0
				if blockChk {
					chkAt = n.chk[0]
				}
				finals[j], chks[j] = fl.LocalSGD(n.model, we, n.area[leafLo+j],
					n.cfg.Taus[0], n.base.BatchSize, n.base.EtaW, n.prob.W, cs, chkAt, nil)
			} else {
				finals[j], chks[j] = n.run(v-1, we, cs, leafLo+j*n.cfg.leavesBelow(v-1), blockChk)
			}
		}
		up := dBytes
		if blockChk {
			up *= 2
		}
		n.ledger.RecordRound(link, nc, up)
		tensor.AverageInto(we, finals...)
		fl.ProjectW(n.prob.W, we)
		if blockChk {
			chkOut = make([]float64, len(we))
			tensor.AverageInto(chkOut, chks...)
		}
	}
	return we, chkOut
}
