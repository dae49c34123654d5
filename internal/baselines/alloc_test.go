package baselines

import (
	"testing"

	"repro/internal/fl/fltest"
)

// TestWarmRoundAllocatesNoModelVector: every baseline runs the same
// recycled client block as HierMinimax, so a warm round — resident or
// population, with tracked averages — allocates less than one model
// vector. (The allocating fl.LocalSGD path these engines used to call
// cost two to three vectors per client per round.)
func TestWarmRoundAllocatesNoModelVector(t *testing.T) {
	prob := fltest.WideProblem(3)
	vec := float64(8 * prob.Model.Dim())
	for _, b := range popBaselines() {
		for _, population := range []int{0, 400} {
			cfg := fltest.ToyConfig()
			cfg.TrackAverages, cfg.EvalEvery = true, 0
			b.prep(&cfg)
			if population > 0 {
				cfg.Population, cfg.SamplePerRound = population, 6
			}
			got := fltest.WarmRoundBytes(t, func(rounds int) {
				cfg.Rounds = rounds
				if _, err := b.run(prob, cfg); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s population=%d: %.0f bytes per warm round", b.name, population, got)
			if got >= vec {
				t.Errorf("%s population=%d: a warm round allocates %.0f bytes, a model vector is %.0f", b.name, population, got, vec)
			}
		}
	}
}
