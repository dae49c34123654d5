// Package fl holds the infrastructure shared by HierMinimax
// (internal/core) and the baselines (internal/baselines): the problem
// statement, run configuration, local-SGD primitive, client-block fold,
// Phase-2 loss estimation, and the run loop with evaluation snapshots.
// The round's parallel loop is sched.For.
//
// Determinism contract: every engine derives all randomness from
// Config.Seed via key paths (round, phase, slot, client), so sequential
// and parallel execution produce bitwise-identical trajectories; tests
// assert this.
package fl

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/simplex"
	"repro/internal/topology"
)

// Problem is one instance of the minimax optimization (3): a federation
// of edge areas with data, a model whose parameters w range over
// W = R^d, and the constraint set P of the edge weights.
type Problem struct {
	Fed   *data.Federation
	Model model.Model // prototype; engines Clone per worker
	P     simplex.Set // constraint on edge weights (subset of the simplex)
}

// Topology returns the client-edge-cloud topology implied by the data.
func (p *Problem) Topology() topology.Topology {
	return topology.New(p.Fed.NumAreas(), p.Fed.ClientsPerArea())
}

// Validate checks the problem is well formed.
func (p *Problem) Validate() error {
	if p.Fed == nil || p.Model == nil || p.P == nil {
		return fmt.Errorf("fl: incomplete problem")
	}
	if err := p.Fed.Validate(); err != nil {
		return err
	}
	if p.Model.InputDim() != p.Fed.InputDim {
		return fmt.Errorf("fl: model input dim %d != data dim %d", p.Model.InputDim(), p.Fed.InputDim)
	}
	if p.Model.NumClasses() != p.Fed.NumClasses {
		return fmt.Errorf("fl: model classes %d != data classes %d", p.Model.NumClasses(), p.Fed.NumClasses)
	}
	return nil
}

// NewProblem builds a problem with the experiments' default constraint
// set P = Δ_{N_E-1}.
func NewProblem(fed *data.Federation, m model.Model) *Problem {
	return &Problem{
		Fed:   fed,
		Model: m,
		P:     simplex.Simplex{Dim: fed.NumAreas()},
	}
}
