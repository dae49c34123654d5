package simnet

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fl/fltest"
	"repro/internal/quant"
)

// TestSimnetPopulationMatchesCore is the population twin of the full
// trajectory parity test: with the roster regime on, the edge actors'
// virtual cohorts must reproduce the in-process engine bit for bit —
// model, tracked averages, every snapshot, and the complete ledger
// (whose client-edge traffic now scales with the cohorts, not the
// resident clients).
func TestSimnetPopulationMatchesCore(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 30
	cfg.EvalEvery = 5
	cfg.TrackAverages = true
	cfg.Population = 400
	cfg.SamplePerRound = 6

	ref, err := core.HierMinimax(fltest.ToyProblem(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, stats, err := HierMinimax(fltest.ToyProblem(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.W {
		if ref.W[i] != sim.W[i] {
			t.Fatalf("w diverges at %d: %v vs %v", i, ref.W[i], sim.W[i])
		}
	}
	for i := range ref.WHat {
		if ref.WHat[i] != sim.WHat[i] {
			t.Fatalf("wHat diverges at %d", i)
		}
	}
	for i := range ref.PWeights {
		if ref.PWeights[i] != sim.PWeights[i] {
			t.Fatalf("p diverges at %d", i)
		}
	}
	if ref.Ledger != sim.Ledger {
		t.Fatalf("final ledgers differ:\ncore   %+v\nsimnet %+v", ref.Ledger, sim.Ledger)
	}
	if len(ref.History.Snapshots) != len(sim.History.Snapshots) {
		t.Fatalf("snapshot counts differ")
	}
	for s, rs := range ref.History.Snapshots {
		ss := sim.History.Snapshots[s]
		if rs.Ledger != ss.Ledger {
			t.Fatalf("snapshot %d ledgers differ:\ncore   %+v\nsimnet %+v", s, rs.Ledger, ss.Ledger)
		}
		if rs.Fair != ss.Fair {
			t.Fatalf("snapshot %d fairness differs", s)
		}
	}
	if stats.MessagesSent == 0 {
		t.Fatal("no cloud-edge messages counted")
	}
}

// TestSimnetPopulationCompressedMatchesCore pins the composition of the
// roster regime with stateless uplink quantization: per-client 'q' and
// slot-level 'Q' stream keys must line up between the virtual cohorts
// and core.
func TestSimnetPopulationCompressedMatchesCore(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 25
	cfg.Population = 400
	cfg.SamplePerRound = 6
	cfg.Compression = quant.Config{Bits: 8}

	ref, err := core.HierMinimax(fltest.ToyProblem(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, _, err := HierMinimax(fltest.ToyProblem(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.W {
		if ref.W[i] != sim.W[i] {
			t.Fatalf("w diverges at %d under quantization: %v vs %v", i, ref.W[i], sim.W[i])
		}
	}
	if ref.Ledger != sim.Ledger {
		t.Fatalf("compressed ledgers differ:\ncore   %+v\nsimnet %+v", ref.Ledger, sim.Ledger)
	}
}

// TestSimnetPopulationChaosComposes runs the roster regime under a
// crash-and-straggler schedule: sampled cohort members crash by their
// global population id, the surviving quorum keeps the run finite and
// learning, and the whole thing stays bitwise deterministic run-to-run.
func TestSimnetPopulationChaosComposes(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 60
	cfg.Population = 400
	cfg.SamplePerRound = 6
	sched := &chaos.Schedule{Seed: 11, CrashProb: 0.25, StragglerProb: 0.2, StragglerMs: 40}

	run := func() (w []float64, crashed int64, ms float64) {
		res, stats, err := HierMinimax(fltest.ToyProblem(3), cfg, WithChaos(sched))
		if err != nil {
			t.Fatal(err)
		}
		return res.W, stats.Crashes, stats.SimulatedMs
	}
	w1, crashed, ms := run()
	if crashed == 0 {
		t.Fatal("crash schedule never fired on the sampled cohorts")
	}
	if !fltest.AllFinite(w1) {
		t.Fatal("non-finite parameters under cohort crashes")
	}
	if ms <= 0 {
		t.Fatal("no simulated time accumulated")
	}
	w2, _, ms2 := run()
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("chaos run not deterministic at %d", i)
		}
	}
	if ms != ms2 {
		t.Fatalf("simulated clock not deterministic: %v vs %v", ms, ms2)
	}
}

// TestWirePopulationMatchesSimnet: the distributed roles run a sparse
// population the way the simnet engine does — each edge process trains
// its roster cohorts through its own fold while the client hosts idle —
// so W, p, every snapshot, the ledger and the RunStats counters (arena
// internals aside) match over a thousand-client roster, with a fault
// schedule of crashes, loss with retries and stragglers and without.
func TestWirePopulationMatchesSimnet(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 12
	cfg.EvalEvery = 4
	cfg.TrackAverages = true
	cfg.Population = 1000
	cfg.SamplePerRound = 6
	for _, leg := range []struct {
		name  string
		sched *chaos.Schedule
	}{
		{"fault-free", nil},
		{"chaos", &chaos.Schedule{Seed: 99, CrashProb: 0.2, LossProb: 0.1, StragglerProb: 0.2, StragglerMs: 10, MaxRetries: 1}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			ref, refStats, err := HierMinimax(fltest.ToyProblem(3), cfg, WithChaos(leg.sched))
			if err != nil {
				t.Fatal(err)
			}
			if leg.sched != nil && (refStats.Crashes == 0 || refStats.Retries == 0) {
				t.Fatalf("the schedule did not fire: %d crashes, %d retries", refStats.Crashes, refStats.Retries)
			}
			got, gotStats := runWire(t, cfg, 3, WithChaos(leg.sched))
			assertSameRun(t, ref, got, refStats, gotStats)
			for i := range ref.WHat {
				if ref.WHat[i] != got.WHat[i] {
					t.Fatalf("wHat diverges at %d", i)
				}
			}
		})
	}
}
