package hierfair

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/model"
	"repro/internal/simnet"
)

// Point is one evaluation snapshot of a training run.
type Point struct {
	// Round is the number of completed training rounds; CloudRounds the
	// cumulative cloud-link synchronization passes at that moment.
	Round       int
	CloudRounds int64
	// Average, Worst and Variance summarize per-edge-area test accuracy
	// (variance in Table-2 units, i.e. Var[accuracy]*1e4).
	Average, Worst, Variance float64
	// AreaAccuracy is the per-edge-area test accuracy.
	AreaAccuracy []float64
	// EdgeWeights is the weight vector p at the snapshot.
	EdgeWeights []float64
}

// RunStats reports the distributed-execution metrics of a simnet or wire
// run.
type RunStats = simnet.RunStats

// Report is the outcome of one Run.
type Report struct {
	Algorithm string
	// Final metrics (the last History point's summary).
	FinalAverage, FinalWorst, FinalVariance float64
	// History holds every evaluation snapshot in round order.
	History []Point
	// EdgeWeights is the final minimax weight vector p (uniform and
	// constant for the minimization algorithms).
	EdgeWeights []float64
	// Communication totals.
	CloudRounds, CloudBytes, TotalBytes int64
	// RunStats holds the simnet and wire engines' counters: simulated
	// wall-clock time, protocol and control messages, fault outcomes
	// under a Chaos plan, and payload-arena health. All zero in-process.
	RunStats

	mdl model.Model
	w   []float64
}

// Predict classifies a feature vector with the trained global model.
func (r *Report) Predict(x []float64) int {
	return r.mdl.Predict(r.w, x)
}

// Parameters returns a copy of the trained global model parameters w.
func (r *Report) Parameters() []float64 {
	return append([]float64(nil), r.w...)
}

// baselineRuns runs the four comparison methods on the in-process engine.
var baselineRuns = map[Algorithm]func(*fl.Problem, fl.Config) (*fl.Result, error){
	AlgHierFAvg: baselines.HierFAvg,
	AlgFedAvg:   baselines.FedAvg,
	AlgAFL:      baselines.StochasticAFL,
	AlgDRFA:     baselines.DRFA,
}

// Run trains one Spec and reports the result.
func Run(spec Spec) (*Report, error) {
	prob, cfg, opts, err := spec.plan(false)
	if err != nil {
		return nil, err
	}
	var res *fl.Result
	var stats RunStats
	switch {
	case spec.Engine == EngineSimNet:
		res, stats, err = simnet.HierMinimax(prob, cfg, opts...)
	case spec.Algorithm == AlgHierMinimax:
		res, err = core.HierMinimaxTree(prob, cfg, core.Tree{Branching: spec.Branching, Taus: spec.Taus})
	default:
		res, err = baselineRuns[spec.Algorithm](prob, cfg)
	}
	if err != nil {
		return nil, err
	}
	return newReport(prob, res, stats), nil
}

// newReport folds an engine result and its run statistics into the
// public Report shape.
func newReport(prob *fl.Problem, res *fl.Result, stats RunStats) *Report {
	rep := &Report{
		Algorithm:   res.Algorithm,
		EdgeWeights: append([]float64(nil), res.PWeights...),
		CloudRounds: res.Ledger.CloudRounds(),
		CloudBytes:  res.Ledger.CloudBytes(),
		TotalBytes:  res.Ledger.TotalBytes(),
		RunStats:    stats,
		mdl:         prob.Model,
		w:           res.W,
	}
	for _, s := range res.History.Snapshots {
		rep.History = append(rep.History, Point{
			Round:        s.Round,
			CloudRounds:  s.CloudRounds(),
			Average:      s.Fair.Average,
			Worst:        s.Fair.Worst,
			Variance:     s.Fair.Variance,
			AreaAccuracy: append([]float64(nil), s.Areas.Accuracy...),
			EdgeWeights:  s.P,
		})
	}
	final := rep.History[len(rep.History)-1]
	rep.FinalAverage, rep.FinalWorst, rep.FinalVariance = final.Average, final.Worst, final.Variance
	return rep
}

// Summary renders a one-line result.
func (r *Report) Summary() string {
	return fmt.Sprintf("%s: avg=%.4f worst=%.4f var=%.4f cloudRounds=%d cloudMB=%.2f",
		r.Algorithm, r.FinalAverage, r.FinalWorst, r.FinalVariance,
		r.CloudRounds, float64(r.CloudBytes)/1e6)
}
