package baselines

import (
	"testing"

	"repro/internal/fl"
	"repro/internal/fl/fltest"
)

// popBaselines enumerates every baseline under the sparse population
// regime; the two-layer methods keep their Tau1/Tau2 constraints.
func popBaselines() []struct {
	name string
	run  func(*fl.Problem, fl.Config) (*fl.Result, error)
	prep func(*fl.Config)
} {
	return []struct {
		name string
		run  func(*fl.Problem, fl.Config) (*fl.Result, error)
		prep func(*fl.Config)
	}{
		{"FedAvg", FedAvg, func(c *fl.Config) { c.Tau2 = 1 }},
		{"Stochastic-AFL", StochasticAFL, func(c *fl.Config) { c.Tau1, c.Tau2 = 1, 1 }},
		{"DRFA", DRFA, func(c *fl.Config) { c.Tau2 = 1 }},
		{"HierFAvg", HierFAvg, func(c *fl.Config) {}},
	}
}

// TestBaselinesPopulationDeterministicAcrossWorkers: every baseline's
// population path must be invariant to the engine's parallelism
// (GOMAXPROCS 1, 4 and 13) — the streaming cohort folds happen in
// sample order regardless of chunking or worker count.
func TestBaselinesPopulationDeterministicAcrossWorkers(t *testing.T) {
	for _, b := range popBaselines() {
		t.Run(b.name, func(t *testing.T) {
			cfg := fltest.ToyConfig()
			cfg.Rounds = 20
			cfg.TrackAverages = true
			cfg.Population = 400
			cfg.SamplePerRound = 6
			b.prep(&cfg)
			var ref *fl.Result
			var err error
			fltest.WithProcs(1, func() { ref, err = b.run(fltest.ToyProblem(1), cfg) })
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4, 13} {
				var got *fl.Result
				fltest.WithProcs(workers, func() { got, err = b.run(fltest.ToyProblem(1), cfg) })
				if err != nil {
					t.Fatal(err)
				}
				for i := range ref.W {
					if ref.W[i] != got.W[i] {
						t.Fatalf("workers=%d: w diverges at %d", workers, i)
					}
				}
				for i := range ref.WHat {
					if ref.WHat[i] != got.WHat[i] {
						t.Fatalf("workers=%d: wHat diverges at %d", workers, i)
					}
				}
				if ref.Ledger != got.Ledger {
					t.Fatalf("workers=%d: ledgers differ", workers)
				}
			}
		})
	}
}

// TestBaselinesPopulationLearns: the population regime must still
// train every baseline to a sane accuracy on the toy problem, with the
// ledger independent of the registered population size.
func TestBaselinesPopulationLearns(t *testing.T) {
	for _, b := range popBaselines() {
		t.Run(b.name, func(t *testing.T) {
			cfg := fltest.ToyConfig()
			cfg.Population = 400
			cfg.SamplePerRound = 6
			b.prep(&cfg)
			res, err := b.run(fltest.ToyProblem(1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !fltest.AllFinite(res.W) {
				t.Fatal("non-finite parameters")
			}
			if final := res.History.Final().Fair; final.Average < 0.6 {
				t.Fatalf("%s population run reached only %v", b.name, final.Average)
			}

			cfg.Population = 40000
			big, err := b.run(fltest.ToyProblem(1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ledger != big.Ledger {
				t.Fatalf("%s ledger depends on population size", b.name)
			}
		})
	}
}
