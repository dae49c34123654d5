package core

import (
	"testing"

	"repro/internal/fl/fltest"
)

// TestWarmRoundAllocatesNoModelVector is the allocation contract of the
// slot path: once the pools are warm, a HierMinimax round — resident or
// population, with tracked averages, or on a four-layer tree — allocates
// less than one model vector, i.e. every d-sized buffer is recycled.
func TestWarmRoundAllocatesNoModelVector(t *testing.T) {
	prob := fltest.WideProblem(3)
	vec := float64(8 * prob.Model.Dim())
	for _, leg := range []struct {
		name       string
		population int
		tree       Tree
	}{
		{"resident", 0, Tree{}},
		{"population", 400, Tree{}},
		{"4-layer", 0, Tree{Branching: []int{1, 2, 10}, Taus: []int{2, 2, 2}}},
	} {
		cfg := fltest.ToyConfig()
		cfg.EvalEvery = 0
		// Iterate sums have no priced form on a deeper tree.
		cfg.TrackAverages = leg.tree.Taus == nil
		if leg.population > 0 {
			cfg.Population, cfg.SamplePerRound = leg.population, 6
		}
		got := fltest.WarmRoundBytes(t, func(rounds int) {
			cfg.Rounds = rounds
			if _, err := HierMinimaxTree(prob, cfg, leg.tree); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f bytes per warm round", leg.name, got)
		if got >= vec {
			t.Errorf("%s: a warm round allocates %.0f bytes, a model vector is %.0f", leg.name, got, vec)
		}
	}
}
