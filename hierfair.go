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
	// SimulatedMs is the modeled wall-clock time (simnet engine only).
	SimulatedMs float64
	// MessagesSent counts protocol messages; ControlMessages counts the
	// actor-lifecycle traffic kept out of that figure (simnet only).
	MessagesSent    int64
	ControlMessages int64
	// Fault outcomes under a Chaos plan (simnet only): messages lost in
	// transit, fan-in deadlines that fired, retransmissions spent, and
	// client-rounds lost to crashes. All zero on a fault-free run.
	MessagesLost int64
	Timeouts     int64
	Retries      int64
	Crashes      int64
	// PoolRecycled and PoolAllocated report how the payload arena served
	// the run's weight traffic: recycled vectors vs fresh allocations
	// (simnet engine only; allocated stays flat after warm-up).
	PoolRecycled, PoolAllocated int64

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

// Run trains one Spec and reports the result.
func Run(spec Spec) (*Report, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	prob, cfg, err := spec.buildProblem()
	if err != nil {
		return nil, err
	}

	var res *fl.Result
	var stats simnet.RunStats
	switch {
	case len(spec.Branching) > 0 && (spec.Algorithm != AlgHierMinimax || spec.Engine == EngineSimNet):
		return nil, fmt.Errorf("hierfair: multi-layer trees only run %s on the in-process engine", AlgHierMinimax)
	case spec.Engine == EngineSimNet:
		var opts []simnet.Option
		if sched := spec.Chaos.schedule(spec.Seed); sched != nil {
			opts = append(opts, simnet.WithChaos(sched))
		}
		res, stats, err = simnet.HierMinimax(prob, cfg, opts...)
	default:
		switch spec.Algorithm {
		case AlgHierMinimax:
			res, err = core.HierMinimaxTree(prob, cfg, core.Tree{Branching: spec.Branching, Taus: spec.Taus})
		case AlgHierFAvg:
			res, err = baselines.HierFAvg(prob, cfg)
		case AlgFedAvg:
			res, err = baselines.FedAvg(prob, cfg)
		case AlgAFL:
			res, err = baselines.StochasticAFL(prob, cfg)
		case AlgDRFA:
			res, err = baselines.DRFA(prob, cfg)
		default:
			return nil, fmt.Errorf("hierfair: unknown algorithm %q", spec.Algorithm)
		}
	}
	if err != nil {
		return nil, err
	}
	return newReport(prob, res, stats), nil
}

// newReport folds an engine result and its run statistics into the
// public Report shape.
func newReport(prob *fl.Problem, res *fl.Result, stats simnet.RunStats) *Report {
	rep := &Report{
		Algorithm:       res.Algorithm,
		EdgeWeights:     append([]float64(nil), res.PWeights...),
		CloudRounds:     res.Ledger.CloudRounds(),
		CloudBytes:      res.Ledger.CloudBytes(),
		TotalBytes:      res.Ledger.TotalBytes(),
		SimulatedMs:     stats.SimulatedMs,
		MessagesSent:    stats.MessagesSent,
		ControlMessages: stats.ControlMessages,
		MessagesLost:    stats.MessagesLost,
		Timeouts:        stats.Timeouts,
		Retries:         stats.Retries,
		Crashes:         stats.Crashes,
		PoolRecycled:    stats.PoolRecycled,
		PoolAllocated:   stats.PoolAllocated,
		mdl:             prob.Model,
		w:               res.W,
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
