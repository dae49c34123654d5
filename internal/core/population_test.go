package core

import (
	"testing"

	"repro/internal/fl/fltest"
)

// TestPopulationWorkerCountInvariant pins the population regime's
// determinism contract: the sequential reference, the default parallel
// engine and two fixed worker counts (the same spread the ci.sh smoke
// leg drives through -jobs) must produce bit-for-bit identical models,
// weights and ledgers. fl.Fold's chunk-lane fold makes this hold by
// construction — cohort order is the only fold order.
func TestPopulationWorkerCountInvariant(t *testing.T) {
	base := fltest.ToyConfig()
	base.Rounds = 30
	base.TrackAverages = true
	base.Population = 400
	base.SamplePerRound = 6
	base.Workers = 1

	ref, err := HierMinimax(fltest.ToyProblem(1), base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 13} {
		cfg := base
		cfg.Workers = workers
		got, err := HierMinimax(fltest.ToyProblem(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.W {
			if ref.W[i] != got.W[i] {
				t.Fatalf("workers=%d: w diverges at %d: %v vs %v", workers, i, ref.W[i], got.W[i])
			}
		}
		for i := range ref.WHat {
			if ref.WHat[i] != got.WHat[i] {
				t.Fatalf("workers=%d: wHat diverges at %d", workers, i)
			}
		}
		for i := range ref.PWeights {
			if ref.PWeights[i] != got.PWeights[i] {
				t.Fatalf("workers=%d: p diverges at %d", workers, i)
			}
		}
		if ref.Ledger != got.Ledger {
			t.Fatalf("workers=%d: ledgers differ:\nseq %+v\npar %+v", workers, ref.Ledger, got.Ledger)
		}
	}
}

// TestPopulationLearns checks the regime actually trains: sampling 6 of
// 400 registered clients per round on lazily materialized shards still
// reaches a useful accuracy on the toy problem.
func TestPopulationLearns(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Population = 400
	cfg.SamplePerRound = 6
	res, err := HierMinimax(fltest.ToyProblem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !fltest.AllFinite(res.W) {
		t.Fatal("non-finite parameters")
	}
	if final := res.History.Final().Fair; final.Average < 0.7 {
		t.Fatalf("population run reached only %v", final.Average)
	}
}

// TestPopulationLedgerScalesWithCohort: client-edge traffic must be
// priced per sampled cohort member, independent of the registered
// population size — the same run with a 100x larger roster moves
// exactly the same bytes (cohorts are positions in a per-edge lot
// permutation, so their size is what the ledger sees).
func TestPopulationLedgerScalesWithCohort(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 10
	cfg.Population = 400
	cfg.SamplePerRound = 6
	small, err := HierMinimax(fltest.ToyProblem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Population = 40000
	large, err := HierMinimax(fltest.ToyProblem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if small.Ledger != large.Ledger {
		t.Fatalf("ledger depends on population size:\n400    %+v\n40000  %+v", small.Ledger, large.Ledger)
	}
}
