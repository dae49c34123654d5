package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/sched"
	"repro/internal/simplex"
	"repro/internal/topology"
)

// ablations runs the DESIGN.md §4 ablation studies on the convex
// workload, one row per variant with its client-edge traffic in
// megabytes (where the A3 quantization ablation saves):
//
//	A1 checkpoint:   random checkpoint (Algorithm 1) vs end-of-round model
//	A2 participation: m_E in {1, 2, 5, 10}
//	A3 quantization: exact vs 8-bit vs 4-bit stochastic uplinks
//	A4 constraint:   P = capped simplex with caps {1.0, 0.5, 0.2}
//	A5 depth:        3-layer vs 4-layer trees at equal total SGD slots
//
// Every variant is one scheduler job; jobs rebuild the convex workload
// themselves (a shared-dataset-cache hit) so they stay pure, and the
// committed row order matches the sequential study order exactly.
func ablations(pool *sched.Pool, scale Scale, seed uint64) (*Table, error) {
	t := newTable("ablations", "Ablations (HierMinimax, convex workload)", seed, []string{"study", "variant"},
		append(fairCols, "cloud_rounds", "uplink_mb")...)
	// The A2 grid filter needs the federation size before the jobs are
	// laid out; this inline construction warms the same cache entry the
	// jobs will hit.
	numAreas := convexSetup(scale, seed).Fed.NumAreas()

	var jobs []job
	// variant adds one HierMinimax variant on the convex workload.
	variant := func(study, name string, mutate func(*fl.Problem, *fl.Config)) {
		jobs = append(jobs, job{[]string{study, name}, func() ([]float64, error) {
			out, err := train(convexSetup(scale, seed), HierMinimax, mutate)
			if err != nil {
				return nil, err
			}
			return append(fair(out), float64(out.Ledger.CloudRounds()),
				float64(out.Ledger.Bytes[topology.ClientEdge])/1e6), nil
		}})
	}

	variant("A1-checkpoint", "random-checkpoint", nil)
	variant("A1-checkpoint", "end-of-round", func(p *fl.Problem, c *fl.Config) { c.CheckpointOff = true })
	for _, mE := range []int{1, 2, 5, 10} {
		if mE <= numAreas {
			variant("A2-participation", fmt.Sprintf("mE=%d", mE), func(p *fl.Problem, c *fl.Config) { c.SampledEdges = mE })
		}
	}
	variant("A3-quantization", "exact", nil)
	for _, bits := range []uint{8, 4} {
		variant("A3-quantization", fmt.Sprintf("%dbit", bits), func(p *fl.Problem, c *fl.Config) {
			c.Compression = quant.Config{Bits: bits}
		})
	}
	for _, cap := range []float64{1.0, 0.5, 0.2} {
		variant("A4-constraint", fmt.Sprintf("cap=%.1f", cap), func(p *fl.Problem, c *fl.Config) {
			p.P = simplex.CappedSimplex{Dim: p.Fed.NumAreas(), Cap: cap}
		})
	}
	for _, name := range []string{"3-layer", "4-layer"} {
		jobs = append(jobs, job{[]string{"A5-depth", name}, func() ([]float64, error) { return depthRun(scale, seed, name) }})
	}
	if err := t.fill(pool, jobs); err != nil {
		return nil, err
	}
	return t, nil
}

// depthRun is one A5 variant: the multi-layer generalization at depth 3
// or 4 with the same total slot budget; the deeper tree halves the
// number of rounds (8 slots per round instead of 4), so the root link
// carries half the synchronization passes. A dedicated federation with
// 4 clients per area supports both the 3-layer tree (4 clients per
// edge) and the 4-layer tree (2 mid-tier nodes x 2 clients).
func depthRun(scale Scale, seed uint64, variant string) ([]float64, error) {
	p := convexParamsFor(scale)
	profile := data.EMNISTDigitsLike()
	profile.Dim = p.dim
	train, test := profile.GenerateShared(p.perTrain, p.perTest, seed)
	fed := data.OneClassPerArea(train, test, 4, seed+1)
	totalSlots := p.rounds * 4

	cfg := p.base(seed)
	var tree core.Tree
	switch variant {
	case "3-layer":
		cfg.Rounds = totalSlots / 4
		tree = core.Tree{Branching: []int{4, 10}, Taus: []int{2, 2}}
	default: // 4-layer
		cfg.Rounds = totalSlots / 8
		tree = core.Tree{Branching: []int{2, 2, 10}, Taus: []int{2, 2, 2}}
	}
	out, err := core.HierMinimaxTree(fl.NewProblem(fed, model.NewLinear(p.dim, profile.Classes)), cfg, tree)
	if err != nil {
		return nil, fmt.Errorf("experiments: ablation A5-depth/%s: %w", variant, err)
	}
	return append(fair(out), float64(out.Ledger.CloudRounds()),
		float64(out.Ledger.Bytes[topology.ClientEdge]+out.Ledger.Bytes[topology.MidTier])/1e6), nil
}
