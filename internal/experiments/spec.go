// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): Fig. 3 (convex comparison), Fig. 4 (non-convex
// comparison), Table 2 (HierFAvg vs HierMinimax fairness across five
// datasets), an empirical companion to Table 1 (the
// communication/convergence trade-off of §5), the Theorem 1 and 2
// checks, the ablations and the fault and compression sweeps. Every
// experiment publishes Tables: one row per run, one column per metric.
// Each experiment has a scale knob so the same harness drives fast
// test runs and the full recorded reproduction.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/model"
	"repro/internal/sched"
)

// Experiment is one entry of the reproduction.
type Experiment struct {
	Name string
	run  func(pool *sched.Pool, scale Scale, seed uint64) (*Table, error)
	// fig builds the workload of a comparison figure, which runs every
	// algorithm; only figures run on a sparse population.
	fig func(Scale, uint64) FigSetup
}

// Experiments lists every experiment in the order "all" runs them.
var Experiments = []Experiment{
	{Name: "fig3", fig: convexSetup},
	{Name: "fig4", fig: nonConvexSetup},
	{Name: "table2", run: table2},
	{Name: "table1", run: tradeoff},
	{Name: "rates", run: rates},
	{Name: "stationarity", run: stationarity},
	{Name: "ablations", run: ablations},
	{Name: "chaos", run: ChaosSweep},
	{Name: "compression", run: compression},
}

// Run computes the experiment's tables. The scheduler commits every
// job in submission order, so they are identical for any worker count.
func (e Experiment) Run(pool *sched.Pool, scale Scale, seed uint64) ([]*Table, error) {
	if e.fig == nil {
		t, err := e.run(pool, scale, seed)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
	res, err := RunFigure(pool, func() FigSetup { return e.fig(scale, seed) }, AllAlgorithms)
	if err != nil {
		return nil, err
	}
	return res.tables(e.Name, seed), nil
}

// Select returns the experiment called name, or every experiment for
// "all". A population > 0 draws each round's samplePerRound clients
// from that many registered ones (see FigSetup.WithPopulation); only
// the figures accept it.
func Select(name string, population, samplePerRound int) ([]Experiment, error) {
	if (population > 0) != (samplePerRound > 0) {
		return nil, fmt.Errorf("experiments: a population and a per-round sample size must be set together")
	}
	var out []Experiment
	for _, e := range Experiments {
		if name != "all" && name != e.Name {
			continue
		}
		if population > 0 {
			if e.fig == nil {
				return nil, fmt.Errorf("experiments: a sparse population applies to fig3 and fig4 only, not %s", e.Name)
			}
			fig := e.fig
			e.fig = func(scale Scale, seed uint64) FigSetup {
				return fig(scale, seed).WithPopulation(population, samplePerRound)
			}
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: unknown experiment %q (want %s)", name, Names())
	}
	return out, nil
}

// Names lists the experiment names Select accepts.
func Names() string {
	names := make([]string, 0, len(Experiments)+1)
	for _, e := range Experiments {
		names = append(names, e.Name)
	}
	return strings.Join(append(names, "all"), "|")
}

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
// experiments (Fig. 3, Table 2, ablations), with Fig. 3's
// worst-accuracy target.
type convexParams struct {
	dim, perTrain, perTest, rounds, evalEvery int
	etaW, etaP, targetWorst                   float64
}

func convexParamsFor(scale Scale) convexParams {
	switch scale {
	case Smoke:
		return convexParams{48, 400, 150, 600, 25, 0.01, 0.001, 0.75}
	case Small:
		return convexParams{784, 2000, 150, 6000, 200, 0.002, 0.0003, 0.70}
	default: // Full
		return convexParams{784, 4000, 300, 20000, 250, 0.001, 0.0001, 0.75}
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
		TargetWorst: p.targetWorst,
	}
}

// nonConvexSetup builds the Fig. 4 workload: the 300-100 MLP on the
// Fashion-MNIST substitute with s=50% similarity, N_E=10, N0=3, m_E=2
// (§6.2).
func nonConvexSetup(scale Scale, seed uint64) FigSetup {
	var perTrain, perTest, rounds, evalEvery, testPerArea int
	var etaW, etaP, target float64
	var dim, h1, h2 int
	switch scale {
	case Smoke:
		// Small-capacity MLP on 48-dim downscales: the underparameterized
		// regime where the minimax effect is strongest (see DESIGN.md).
		dim, h1, h2 = 48, 24, 12
		perTrain, perTest, rounds, evalEvery, testPerArea = 400, 100, 600, 25, 200
		etaW, etaP, target = 0.01, 0.001, 0.45
	case Small:
		// 14x14 downscale with the paper's 300-100 architecture; enough
		// training data per class that the MLP cannot interpolate (the
		// regime real Fashion-MNIST sits in with 6000 samples per class).
		dim, h1, h2 = 196, 300, 100
		perTrain, perTest, rounds, evalEvery, testPerArea = 3000, 150, 1500, 50, 400
		etaW, etaP, target = 0.01, 0.002, 0.50
	default: // Full
		dim, h1, h2 = 784, 300, 100
		perTrain, perTest, rounds, evalEvery, testPerArea = 6000, 200, 50000, 500, 600
		etaW, etaP, target = 0.001, 0.0001, 0.50
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
		TargetWorst: target,
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
