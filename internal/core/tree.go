package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/rng"
)

// Tree is the multi-layer hub-and-spoke network of the paper's §3:
// clients at level 0, aggregators at levels 1..L-2, the cloud at level
// L-1. Branching[v] is the number of children of a level-(v+1) node, the
// last entry the areas under the cloud; Taus[0] is the local SGD steps
// per level-1 aggregation and Taus[v], v >= 1, the blocks a level-v node
// runs per block of its parent. The checkpoint (c1, c2) becomes a vector
// drawn uniformly from the periods' product, which keeps the Phase-2
// gradient unbiased. The zero Tree is the paper's [N0, N_E], [tau1, tau2].
type Tree struct {
	Branching, Taus []int
}

// Layers returns L, client level through cloud.
func (t Tree) Layers() int { return len(t.Branching) + 1 }

// HierMinimaxTree runs HierMinimax on tree as "HierMinimax/<L>-layer"; the
// zero Tree is HierMinimax. Tau1 = Taus[0] and Tau2 = Prod(Taus[1:]) replace
// cfg's, so the slots per round and the ascent step are the tree's.
func HierMinimaxTree(prob *fl.Problem, cfg fl.Config, tree Tree) (*fl.Result, error) {
	if tree.Branching == nil && tree.Taus == nil {
		return HierMinimax(prob, cfg)
	}
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if err := tree.validate(prob.Fed, &cfg); err != nil {
		return nil, err
	}
	cfg.Tau1, cfg.Tau2 = tree.Taus[0], prod(tree.Taus[1:])
	return hierMinimax(fmt.Sprintf("%s/%d-layer", Algorithm, tree.Layers()), prob, cfg, tree, fl.RunOptions{})
}

// validate checks the tree's shape against the federation and refuses
// the regimes that would need a pricing or cohort rule it does not define.
func (t Tree) validate(fed *data.Federation, cfg *fl.Config) error {
	top := len(t.Branching) - 1
	switch {
	case cfg.PopulationEnabled():
		return errors.New("core: Population does not compose with an explicit multi-layer tree")
	case top < 0 || len(t.Taus) != len(t.Branching) || slices.Min(t.Branching) <= 0 || slices.Min(t.Taus) <= 0:
		return fmt.Errorf("core: a tree needs positive Branching %v and Taus %v of one length", t.Branching, t.Taus)
	case fed.NumAreas() != t.Branching[top] || fed.ClientsPerArea() != prod(t.Branching[:top]):
		return fmt.Errorf("core: federation has %d areas of %d clients, tree %v does not fit it", fed.NumAreas(), fed.ClientsPerArea(), t.Branching)
	case top > 1 && cfg.Compression.Enabled():
		return errors.New("core: uplink compression needs a three-layer tree (mid-tier uplinks have no priced form)")
	}
	return nil
}

func prod(xs []int) int {
	p := 1
	for _, x := range xs {
		p *= x
	}
	return p
}

// drawCheckpoint fills chk off cr from the top level down: chk[v], v >= 1,
// the 0-based block at level v, chk[0] the local step (Algorithm 1's c2, c1).
func drawCheckpoint(cr *rng.Stream, taus, chk []int) {
	for v := len(taus) - 1; v > 0; v-- {
		chk[v] = cr.Intn(taus[v])
	}
	chk[0] = 1 + cr.Intn(taus[0])
}
