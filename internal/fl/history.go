package fl

import (
	"repro/internal/metrics"
	"repro/internal/topology"
)

// Snapshot records the state of a run at one evaluation point.
type Snapshot struct {
	// Round is the number of completed training rounds (0 = before
	// training).
	Round int
	// Slots is the cumulative number of local SGD time slots, t.
	Slots int
	// Ledger is the communication spent so far.
	Ledger topology.LedgerSnapshot
	// Areas holds per-edge-area test accuracy and loss.
	Areas metrics.AreaEval
	// Fair summarizes Areas.Accuracy (average / worst / variance).
	Fair metrics.Fairness
	// P is a copy of the edge-weight vector at this point.
	P []float64
}

// CloudRounds is the Figs. 3-4 x-axis value at this snapshot.
func (s Snapshot) CloudRounds() int64 { return s.Ledger.CloudRounds() }

// History is the ordered list of snapshots of a run.
type History struct {
	Snapshots []Snapshot
}

// Final returns the last snapshot; it panics on an empty history.
func (h *History) Final() Snapshot {
	if len(h.Snapshots) == 0 {
		panic("fl: empty history")
	}
	return h.Snapshots[len(h.Snapshots)-1]
}

// Result is the outcome of one training run.
type Result struct {
	// Algorithm names the method that produced the result.
	Algorithm string
	// W is the final global model; PWeights the final edge weights.
	W, PWeights []float64
	// WHat and PHat are the time-averaged iterates evaluated by the
	// convex analysis (only set when Config.TrackAverages).
	WHat, PHat []float64
	// History holds the evaluation snapshots; Ledger the total
	// communication.
	History History
	Ledger  topology.LedgerSnapshot
}
