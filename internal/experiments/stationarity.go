package experiments

import (
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sched"
)

// StationarityPoint is one snapshot of the Theorem-2 measurement.
type StationarityPoint struct {
	Round int
	// MoreauGradSq is the squared norm of the (1/2L)-Moreau envelope
	// gradient of Phi(w) = max_p F(w, p) — the §5.2 optimality measure.
	MoreauGradSq float64
	Worst        float64
}

// StationarityResult verifies Theorem 2 empirically: along a non-convex
// HierMinimax run, the Moreau-envelope stationarity measure
// ||∇Φ_{1/2L}(w)||² must trend to zero.
type StationarityResult struct {
	Points []StationarityPoint
	// First and Last summarize the trend the theorem predicts.
	First, Last float64
}

// Stationarity trains the non-convex workload and measures the Moreau
// surrogate at checkpoints along the trajectory. The training run is
// one scheduler job (checkpoints are inherently sequential); the probe
// at each captured model is then an independent job.
func Stationarity(pool *sched.Pool, scale Scale, seed uint64) (*StationarityResult, error) {
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
	points, err := sched.Map(pool, "stationarity-probe", len(checkpoints), func(i int) (StationarityPoint, error) {
		c := checkpoints[i]
		m := prob.Model.Clone()
		grad2 := metrics.MoreauGradNormSq(m, c.W, fed, prob.W, prob.P, lSmooth, 25, etaW)
		ev := metrics.EvaluateAreas(m, c.W, fed)
		return StationarityPoint{
			Round:        c.Round,
			MoreauGradSq: grad2,
			Worst:        metrics.Worst(ev.Accuracy),
		}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: stationarity: %w", err)
	}
	res := &StationarityResult{Points: points}
	if len(res.Points) > 0 {
		res.First = res.Points[0].MoreauGradSq
		res.Last = res.Points[len(res.Points)-1].MoreauGradSq
	}
	return res, nil
}

// Render prints the stationarity trajectory.
func (r *StationarityResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Theorem 2 companion: Moreau-envelope stationarity along a non-convex run ==\n")
	fmt.Fprintf(&b, "%8s %16s %9s\n", "round", "||dPhi_1/2L||^2", "worst")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8d %16.5f %9.4f\n", p.Round, p.MoreauGradSq, p.Worst)
	}
	fmt.Fprintf(&b, "trend: %.5f -> %.5f (Theorem 2 predicts decay toward 0)\n", r.First, r.Last)
	return b.String()
}

// WriteFiles exports the trajectory.
func (r *StationarityResult) WriteFiles(dir, base string) error {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Round), ftoa(p.MoreauGradSq), ftoa(p.Worst),
		})
	}
	if err := writeCSV(filepath.Join(dir, base+".csv"),
		[]string{"round", "moreau_grad_sq", "worst"}, rows); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, base+".json"), r)
}
