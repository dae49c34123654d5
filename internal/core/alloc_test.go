package core

import (
	"testing"

	"repro/internal/fl/fltest"
)

// TestWarmRoundAllocatesNoModelVector is the allocation contract of the
// slot path: once the pools are warm, a HierMinimax round — resident or
// population, with tracked averages — allocates less than one model
// vector, i.e. every d-sized buffer is recycled.
func TestWarmRoundAllocatesNoModelVector(t *testing.T) {
	prob := fltest.WideProblem(3)
	vec := float64(8 * prob.Model.Dim())
	for _, population := range []int{0, 400} {
		cfg := fltest.ToyConfig()
		cfg.Sequential, cfg.TrackAverages, cfg.EvalEvery = true, true, 0
		if population > 0 {
			cfg.Population, cfg.SamplePerRound = population, 6
		}
		got := fltest.WarmRoundBytes(t, func(rounds int) {
			cfg.Rounds = rounds
			if _, err := HierMinimax(prob, cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("population=%d: %.0f bytes per warm round", population, got)
		if got >= vec {
			t.Errorf("population=%d: a warm round allocates %.0f bytes, a model vector is %.0f", population, got, vec)
		}
	}
}
