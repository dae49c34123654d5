package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/sched"
	"repro/internal/simplex"
	"repro/internal/topology"
)

// AblationRow is one variant's outcome in an ablation study.
type AblationRow struct {
	Study   string
	Variant string
	Summary
	CloudRounds int64
	// UplinkMB is the client-edge traffic in megabytes (where the A3
	// quantization ablation saves).
	UplinkMB float64
}

// AblationResult collects the DESIGN.md §4 ablations A1-A4.
type AblationResult struct {
	Rows []AblationRow
}

// Ablations runs the four ablation studies on the convex workload:
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
func Ablations(pool *sched.Pool, scale Scale, seed uint64) (*AblationResult, error) {
	// The A2 grid filter needs the federation size before the jobs are
	// laid out; this inline construction warms the same cache entry the
	// jobs will hit.
	numAreas := convexSetup(scale, seed).Fed.NumAreas()

	// hmRun builds one HierMinimax variant job on the convex workload.
	hmRun := func(study, variant string, mutate func(*fl.Problem, *fl.Config)) func() (AblationRow, error) {
		return func() (AblationRow, error) {
			setup := convexSetup(scale, seed)
			prob := fl.NewProblem(setup.Fed, setup.Model.Clone())
			cfg := setup.Base
			mutate(prob, &cfg)
			out, err := core.HierMinimax(prob, cfg)
			if err != nil {
				return AblationRow{}, fmt.Errorf("experiments: ablation %s/%s: %w", study, variant, err)
			}
			f := out.History.Final().Fair
			return AblationRow{
				Study:       study,
				Variant:     variant,
				Summary:     Summary{Average: f.Average, Worst: f.Worst, Variance: f.Variance},
				CloudRounds: out.Ledger.CloudRounds(),
				UplinkMB:    float64(out.Ledger.Bytes[topology.ClientEdge]) / 1e6,
			}, nil
		}
	}

	var jobs []func() (AblationRow, error)

	// A1: checkpoint mechanism.
	jobs = append(jobs,
		hmRun("A1-checkpoint", "random-checkpoint", func(p *fl.Problem, c *fl.Config) {}),
		hmRun("A1-checkpoint", "end-of-round", func(p *fl.Problem, c *fl.Config) { c.CheckpointOff = true }))

	// A2: partial participation.
	for _, mE := range []int{1, 2, 5, 10} {
		mE := mE
		if mE > numAreas {
			continue
		}
		jobs = append(jobs, hmRun("A2-participation", fmt.Sprintf("mE=%d", mE), func(p *fl.Problem, c *fl.Config) { c.SampledEdges = mE }))
	}

	// A3: uplink quantization.
	jobs = append(jobs, hmRun("A3-quantization", "exact", func(p *fl.Problem, c *fl.Config) {}))
	for _, bits := range []uint{8, 4} {
		bits := bits
		jobs = append(jobs, hmRun("A3-quantization", fmt.Sprintf("%dbit", bits), func(p *fl.Problem, c *fl.Config) {
			c.Compression = quant.Config{Bits: bits}
		}))
	}

	// A4: constraint set P.
	for _, cap := range []float64{1.0, 0.5, 0.2} {
		cap := cap
		jobs = append(jobs, hmRun("A4-constraint", fmt.Sprintf("cap=%.1f", cap), func(p *fl.Problem, c *fl.Config) {
			p.P = simplex.CappedSimplex{Dim: p.Fed.NumAreas(), Cap: cap}
		}))
	}

	// A5: tree depth at equal total SGD slots (see depthJob).
	for _, variant := range []string{"3-layer", "4-layer"} {
		jobs = append(jobs, depthJob(scale, seed, variant))
	}

	rows, err := sched.Map(pool, "ablations", len(jobs), func(i int) (AblationRow, error) {
		return jobs[i]()
	})
	if err != nil {
		return nil, err
	}
	return &AblationResult{Rows: rows}, nil
}

// depthJob builds one A5 variant: the multi-layer generalization at
// depth 3 or 4 with the same total slot budget; the deeper tree halves
// the number of rounds (8 slots per round instead of 4), so the root
// link carries half the synchronization passes. A dedicated federation
// with 4 clients per area supports both the 3-layer tree (4 clients per
// edge) and the 4-layer tree (2 mid-tier nodes x 2 clients).
func depthJob(scale Scale, seed uint64, variant string) func() (AblationRow, error) {
	return func() (AblationRow, error) {
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
		prob := fl.NewProblem(fed, model.NewLinear(p.dim, profile.Classes))
		out, err := core.HierMinimaxTree(prob, cfg, tree)
		if err != nil {
			return AblationRow{}, fmt.Errorf("experiments: ablation A5-depth/%s: %w", variant, err)
		}
		f := out.History.Final().Fair
		return AblationRow{
			Study:       "A5-depth",
			Variant:     variant,
			Summary:     Summary{Average: f.Average, Worst: f.Worst, Variance: f.Variance},
			CloudRounds: out.Ledger.CloudRounds(),
			UplinkMB:    float64(out.Ledger.Bytes[topology.ClientEdge]+out.Ledger.Bytes[topology.MidTier]) / 1e6,
		}, nil
	}
}

// Render prints the ablation table.
func (a *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Ablations (HierMinimax, convex workload) ==\n")
	fmt.Fprintf(&b, "%-18s %-18s %9s %9s %10s %12s %10s\n",
		"Study", "Variant", "Average", "Worst", "Variance", "CloudRounds", "UplinkMB")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-18s %-18s %9.4f %9.4f %10.4f %12d %10.2f\n",
			r.Study, r.Variant, r.Average, r.Worst, r.Variance, r.CloudRounds, r.UplinkMB)
	}
	return b.String()
}
