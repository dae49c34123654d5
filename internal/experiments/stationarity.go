package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sched"
)

// stationarity is the Theorem 2 companion: along a non-convex
// HierMinimax run, the squared norm of the (1/2L)-Moreau envelope
// gradient of Phi(w) = max_p F(w, p), the §5.2 optimality measure, must
// trend to zero. It trains the non-convex workload and measures the
// surrogate at checkpoints along the trajectory. The training run is
// one scheduler job (checkpoints are inherently sequential); the probe
// at each captured model is then an independent job.
func stationarity(pool *sched.Pool, scale Scale, seed uint64) (*Table, error) {
	var dim, h1, h2, perTrain, perTest, rounds, probes int
	var etaW, etaP float64
	switch scale {
	case Smoke:
		dim, h1, h2 = 24, 12, 8
		perTrain, perTest, rounds, probes = 120, 40, 400, 4
		etaW, etaP = 0.02, 0.001
	case Small:
		dim, h1, h2 = 48, 24, 12
		perTrain, perTest, rounds, probes = 400, 100, 1200, 6
		etaW, etaP = 0.01, 0.001
	default:
		dim, h1, h2 = 196, 300, 100
		perTrain, perTest, rounds, probes = 1500, 150, 6000, 8
		etaW, etaP = 0.005, 0.001
	}
	profile := data.FashionMNISTLike()
	profile.Dim = dim
	train, test := profile.GenerateShared(perTrain, perTest, seed)
	fed := data.Similarity(train, test, 10, 3, 0.5, perTest*2, seed+1)
	prob := fl.NewProblem(fed, model.NewMLP(dim, h1, h2, 10))

	// Capture checkpoints along one training run, then measure the
	// Moreau surrogate at each captured model.
	var checkpoints []*fl.Checkpoint
	cfg := fl.Config{
		Rounds: rounds, Tau1: 2, Tau2: 2,
		EtaW: etaW, EtaP: etaP,
		BatchSize: 8, LossBatch: 16,
		SampledEdges: 2, Seed: seed,
	}
	every := rounds / probes
	if _, err := sched.Map(pool, "stationarity-train", 1, func(int) (struct{}, error) {
		_, err := core.HierMinimaxWithOptions(prob, cfg, fl.RunOptions{
			CheckpointEvery: every,
			OnCheckpoint:    func(c *fl.Checkpoint) { checkpoints = append(checkpoints, c) },
		})
		return struct{}{}, err
	}); err != nil {
		return nil, fmt.Errorf("experiments: stationarity: %w", err)
	}

	// An empirical smoothness scale for the Moreau parameter: the §5.2
	// analysis uses 1/2L; the exact L is unknown for the MLP, so a fixed
	// moderate value is used consistently across snapshots (only the
	// trend matters).
	const lSmooth = 1.0
	t := newTable("stationarity", "Theorem 2 companion: Moreau-envelope stationarity along a non-convex run (predicted to decay toward 0)",
		seed, nil, "round", "moreau_grad_sq", "worst")
	jobs := make([]job, len(checkpoints))
	for i, c := range checkpoints {
		jobs[i] = job{nil, func() ([]float64, error) {
			m := prob.Model.Clone()
			grad2 := metrics.MoreauGradNormSq(m, c.W, fed, prob.P, lSmooth, 25, etaW)
			ev := metrics.EvaluateAreas(m, c.W, fed)
			return []float64{float64(c.Round), grad2, metrics.Worst(ev.Accuracy)}, nil
		}}
	}
	if err := t.fill(pool, jobs); err != nil {
		return nil, fmt.Errorf("experiments: stationarity: %w", err)
	}
	return t, nil
}
