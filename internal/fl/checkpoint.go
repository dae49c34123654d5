package fl

import (
	"fmt"

	"repro/internal/topology"
)

// Checkpoint captures the cloud-side training state after a round. The
// determinism contract makes resumption exact: every round derives its
// randomness from (Seed, round index) alone, so continuing from a
// checkpoint reproduces the uninterrupted run bit for bit — asserted in
// tests. WSum/WCount/PSum carry the iterate-averaging accumulators so
// TrackAverages survives a restart too.
type Checkpoint struct {
	Algorithm string
	Round     int
	W, P      []float64
	WSum      []float64
	WCount    float64
	PSum      []float64
	Ledger    topology.LedgerSnapshot
}

// checkpointOf snapshots the run state after `round` completed rounds.
func checkpointOf(algorithm string, round int, st *State) *Checkpoint {
	c := &Checkpoint{
		Algorithm: algorithm,
		Round:     round,
		W:         append([]float64(nil), st.W...),
		P:         append([]float64(nil), st.P...),
		WCount:    st.WCount,
		Ledger:    st.Ledger.Snapshot(),
	}
	if st.WSum != nil {
		c.WSum = append([]float64(nil), st.WSum...)
		c.PSum = append([]float64(nil), st.PSum...)
	}
	return c
}

// restore loads a checkpoint into the run state, returning the round to
// continue from.
func (st *State) restore(c *Checkpoint) (startRound int, err error) {
	if len(c.W) != len(st.W) {
		return 0, fmt.Errorf("fl: checkpoint has %d parameters, problem wants %d", len(c.W), len(st.W))
	}
	if len(c.P) != len(st.P) {
		return 0, fmt.Errorf("fl: checkpoint has %d weights, problem wants %d", len(c.P), len(st.P))
	}
	copy(st.W, c.W)
	copy(st.P, c.P)
	st.WCount = c.WCount
	if st.WSum != nil {
		if c.WSum == nil {
			return 0, fmt.Errorf("fl: checkpoint lacks iterate accumulators required by TrackAverages")
		}
		copy(st.WSum, c.WSum)
		copy(st.PSum, c.PSum)
	}
	// Restore the communication totals in one consistent write instead
	// of replaying synthetic Record calls.
	st.Ledger.Restore(c.Ledger)
	return c.Round, nil
}
