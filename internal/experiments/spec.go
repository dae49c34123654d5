// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): Fig. 3 (convex comparison), Fig. 4 (non-convex
// comparison), Table 2 (HierFAvg vs HierMinimax fairness across five
// datasets), and an empirical companion to Table 1 (the
// communication/convergence trade-off of §5). Each experiment has a
// scale knob so the same harness drives fast benchmark runs and the full
// recorded reproduction.
package experiments

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/model"
)

// Scale selects the experiment size.
type Scale int

// Scales. Smoke is for tests and testing.B benches (seconds); Small is
// the recorded reproduction scale (minutes on one core); Full approaches
// the paper's round counts (hours) and is available from the CLI.
const (
	Smoke Scale = iota
	Small
	Full
)

func (s Scale) String() string {
	switch s {
	case Smoke:
		return "smoke"
	case Small:
		return "small"
	case Full:
		return "full"
	}
	return fmt.Sprintf("scale(%d)", int(s))
}

// AlgorithmName identifies one of the five methods.
type AlgorithmName string

// The five §6 methods.
const (
	FedAvg        AlgorithmName = "FedAvg"
	StochasticAFL AlgorithmName = "Stochastic-AFL"
	DRFA          AlgorithmName = "DRFA"
	HierFAvg      AlgorithmName = "HierFAvg"
	HierMinimax   AlgorithmName = "HierMinimax"
)

// FigSetup bundles everything one comparison figure needs.
type FigSetup struct {
	Name        string
	Fed         *data.Federation
	Model       model.Model
	Base        fl.Config // per-algorithm Tau fields are overridden
	TargetWorst float64   // worst-accuracy target for the headline table
}

// WithPopulation switches a figure setup to the sparse-population
// regime: each edge area registers population/N_E virtual clients and
// the engines sample samplePerRound of them per round via the
// deterministic roster (internal/population), streaming the cohort
// aggregation so memory stays O(sampled). The workload name records the
// population size so artifacts from different regimes never collide.
func (s FigSetup) WithPopulation(population, samplePerRound int) FigSetup {
	s.Base.Population = population
	s.Base.SamplePerRound = samplePerRound
	s.Name = fmt.Sprintf("%s-pop%d", s.Name, population)
	return s
}

// convexParams are the scale-dependent knobs shared by the convex
// experiments (Fig. 3, Table 2, ablations).
type convexParams struct {
	dim, perTrain, perTest, rounds, evalEvery int
	etaW, etaP                                float64
}

func convexParamsFor(scale Scale) convexParams {
	switch scale {
	case Smoke:
		return convexParams{48, 400, 150, 600, 25, 0.01, 0.001}
	case Small:
		return convexParams{784, 2000, 150, 6000, 200, 0.002, 0.0003}
	default: // Full
		return convexParams{784, 4000, 300, 20000, 250, 0.001, 0.0001}
	}
}

func (p convexParams) base(seed uint64) fl.Config {
	return fl.Config{
		Rounds: p.rounds, Tau1: 2, Tau2: 2,
		EtaW: p.etaW, EtaP: p.etaP,
		BatchSize: 4, LossBatch: 16,
		SampledEdges: 5, Seed: seed, EvalEvery: p.evalEvery,
	}
}

// convexSetup builds the Fig. 3 workload: logistic regression on the
// EMNIST-Digits substitute, one class per edge area, N_E=10, N0=3,
// m_E=5, tau1=tau2=2 for hierarchical methods (§6.1).
func convexSetup(scale Scale, seed uint64) FigSetup {
	p := convexParamsFor(scale)
	profile := data.EMNISTDigitsLike()
	profile.Dim = p.dim
	train, test := profile.GenerateShared(p.perTrain, p.perTest, seed)
	fed := data.OneClassPerArea(train, test, 3, seed+1)
	return FigSetup{
		Name:        "fig3-convex-emnist",
		Fed:         fed,
		Model:       model.NewLinear(p.dim, profile.Classes),
		Base:        p.base(seed),
		TargetWorst: targetFor(scale, 0.75, 0.70, 0.75),
	}
}

// nonConvexSetup builds the Fig. 4 workload: the 300-100 MLP on the
// Fashion-MNIST substitute with s=50% similarity, N_E=10, N0=3, m_E=2
// (§6.2).
func nonConvexSetup(scale Scale, seed uint64) FigSetup {
	var perTrain, perTest, rounds, evalEvery, testPerArea int
	var etaW, etaP float64
	var dim, h1, h2 int
	switch scale {
	case Smoke:
		// Small-capacity MLP on 48-dim downscales: the underparameterized
		// regime where the minimax effect is strongest (see DESIGN.md).
		dim, h1, h2 = 48, 24, 12
		perTrain, perTest, rounds, evalEvery, testPerArea = 400, 100, 600, 25, 200
		etaW, etaP = 0.01, 0.001
	case Small:
		// 14x14 downscale with the paper's 300-100 architecture; enough
		// training data per class that the MLP cannot interpolate (the
		// regime real Fashion-MNIST sits in with 6000 samples per class).
		dim, h1, h2 = 196, 300, 100
		perTrain, perTest, rounds, evalEvery, testPerArea = 3000, 150, 1500, 50, 400
		etaW, etaP = 0.01, 0.002
	default: // Full
		dim, h1, h2 = 784, 300, 100
		perTrain, perTest, rounds, evalEvery, testPerArea = 6000, 200, 50000, 500, 600
		etaW, etaP = 0.001, 0.0001
	}
	profile := data.FashionMNISTLike()
	profile.Dim = dim
	train, test := profile.GenerateShared(perTrain, perTest, seed)
	fed := data.Similarity(train, test, 10, 3, 0.5, testPerArea, seed+1)
	return FigSetup{
		Name:  "fig4-nonconvex-fashion",
		Fed:   fed,
		Model: model.NewMLP(dim, h1, h2, profile.Classes),
		Base: fl.Config{
			Rounds: rounds, Tau1: 2, Tau2: 2,
			EtaW: etaW, EtaP: etaP,
			BatchSize: 8, LossBatch: 16,
			SampledEdges: 2, Seed: seed, EvalEvery: evalEvery,
		},
		TargetWorst: targetFor(scale, 0.45, 0.50, 0.50),
	}
}

func targetFor(scale Scale, smoke, small, full float64) float64 {
	switch scale {
	case Smoke:
		return smoke
	case Small:
		return small
	default:
		return full
	}
}

// configFor specializes the base config for one algorithm: two-layer
// methods get Tau2=1 and Stochastic-AFL additionally Tau1=1 (its
// single-step update), exactly the §6 protocol ("we set tau1=2 ... and
// tau2=2 for methods utilizing hierarchical architectures").
func configFor(base fl.Config, algo AlgorithmName) fl.Config {
	cfg := base
	switch algo {
	case StochasticAFL:
		cfg.Tau1, cfg.Tau2 = 1, 1
	case FedAvg, DRFA:
		cfg.Tau2 = 1
	}
	return cfg
}
