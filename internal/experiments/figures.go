package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// Series is one algorithm's accuracy trajectory: the data behind one
// curve of Fig. 3 or Fig. 4.
type Series struct {
	Algorithm   AlgorithmName
	Rounds      []int   // training rounds at each snapshot
	CloudRounds []int64 // cumulative cloud-link rounds
	Average     []float64
	Worst       []float64
}

// FigResult is one figure reproduction: all five curves and each
// algorithm's final summary.
type FigResult struct {
	Name        string
	Series      []Series
	TargetWorst float64
	// Final holds each algorithm's last-snapshot summary.
	Final map[AlgorithmName]Summary
}

// Summary is the (average, worst, variance) triple of §6.
type Summary = metrics.Fairness

// fairCols names the Summary columns; fair extracts them from a run.
var fairCols = []string{"average", "worst", "variance"}

func fair(out *fl.Result) []float64 {
	f := out.History.Final().Fair
	return []float64{f.Average, f.Worst, f.Variance}
}

// runAlgorithm dispatches to the right engine.
func runAlgorithm(algo AlgorithmName, prob *fl.Problem, cfg fl.Config) (*fl.Result, error) {
	switch algo {
	case FedAvg:
		return baselines.FedAvg(prob, cfg)
	case StochasticAFL:
		return baselines.StochasticAFL(prob, cfg)
	case DRFA:
		return baselines.DRFA(prob, cfg)
	case HierFAvg:
		return baselines.HierFAvg(prob, cfg)
	case HierMinimax:
		return core.HierMinimax(prob, cfg)
	}
	return nil, fmt.Errorf("experiments: unknown algorithm %q", algo)
}

// train runs algo in process on a fresh problem over setup's workload
// with the algorithm's §6 config; mutate, when set, adjusts the problem
// and the config first.
func train(setup FigSetup, algo AlgorithmName, mutate func(*fl.Problem, *fl.Config)) (*fl.Result, error) {
	prob := fl.NewProblem(setup.Fed, setup.Model.Clone())
	cfg := configFor(setup.Base, algo)
	if mutate != nil {
		mutate(prob, &cfg)
	}
	out, err := runAlgorithm(algo, prob, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s on %s: %w", algo, setup.Name, err)
	}
	return out, nil
}

// AllAlgorithms lists the five methods in the paper's presentation order.
var AllAlgorithms = []AlgorithmName{FedAvg, StochasticAFL, DRFA, HierFAvg, HierMinimax}

// figRun is one algorithm's committed result within a figure sweep.
type figRun struct {
	series Series
	final  Summary
	name   string
	target float64
}

// RunFigure runs every algorithm on the workload and assembles the
// figure data. Each run is one scheduler job that builds its own setup
// via build (dataset construction dedupes through the internal/data
// cache, so concurrent jobs share one immutable corpus); results commit
// in algos order, so the artifact is identical for any worker count.
func RunFigure(pool *sched.Pool, build func() FigSetup, algos []AlgorithmName) (*FigResult, error) {
	runs, err := sched.Map(pool, "figure", len(algos), func(i int) (figRun, error) {
		setup := build()
		algo := algos[i]
		out, err := train(setup, algo, nil)
		if err != nil {
			return figRun{}, err
		}
		s := Series{Algorithm: algo}
		for _, snap := range out.History.Snapshots {
			s.Rounds = append(s.Rounds, snap.Round)
			s.CloudRounds = append(s.CloudRounds, snap.CloudRounds())
			s.Average = append(s.Average, snap.Fair.Average)
			s.Worst = append(s.Worst, snap.Fair.Worst)
		}
		return figRun{series: s, final: out.History.Final().Fair, name: setup.Name, target: setup.TargetWorst}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &FigResult{Final: make(map[AlgorithmName]Summary)}
	for i, r := range runs {
		res.Name, res.TargetWorst = r.name, r.target
		res.Series = append(res.Series, r.series)
		res.Final[algos[i]] = r.final
	}
	return res, nil
}

// SetupFig3 exposes the Fig. 3 workload construction (used by the bench
// harness to run one algorithm at a time).
func SetupFig3(scale Scale, seed uint64) FigSetup { return convexSetup(scale, seed) }

// sustainedCrossing returns the first round whose worst accuracy reaches
// target AND stays there at the following snapshot (a single noisy spike
// above the target does not count), or 0 if never reached. The final
// snapshot counts without a successor.
func sustainedCrossing(s Series, target float64) int {
	for i := 1; i < len(s.Rounds); i++ {
		if s.Worst[i] < target {
			continue
		}
		if i == len(s.Rounds)-1 || s.Worst[i+1] >= target {
			return s.Rounds[i]
		}
	}
	return 0
}

// tables publishes the figure as two tables: name holds the curves, one
// row per method and snapshot, and draws the paper's average and worst
// accuracy panels; name-summary holds one row per method with its final
// summary and the rounds its worst accuracy needs to reach the target
// (0 = not reached), the headline §6.1 and §6.2 report in prose.
func (r *FigResult) tables(name string, seed uint64) []*Table {
	curves := newTable(name, r.Name, seed, []string{"method"}, "round", "cloud_rounds", "average", "worst")
	curves.Plot = []string{"average", "worst"}
	summary := newTable(name+"-summary", r.Name+": final accuracy and rounds to the worst-accuracy target",
		seed, []string{"method"}, append(fairCols, "target_worst", "rounds_to_target")...)
	for _, s := range r.Series {
		key := []string{string(s.Algorithm)}
		for i := range s.Rounds {
			curves.add(key, float64(s.Rounds[i]), float64(s.CloudRounds[i]), s.Average[i], s.Worst[i])
		}
		f := r.Final[s.Algorithm]
		summary.add(key, f.Average, f.Worst, f.Variance, r.TargetWorst, float64(sustainedCrossing(s, r.TargetWorst)))
	}
	return []*Table{curves, summary}
}
