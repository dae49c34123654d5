package simnet

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fl/fltest"
	"repro/internal/topology"
)

// heavySchedule is the acceptance-level fault plan: every class of
// fault at once, with a crash rate above 10%.
func heavySchedule() *chaos.Schedule {
	return &chaos.Schedule{
		Seed:          99,
		CrashProb:     0.15,
		PartitionProb: 0.05,
		LossProb:      0.05,
		StragglerProb: 0.2,
		StragglerMs:   40,
		MaxRetries:    1,
	}
}

// Under simultaneous crashes, partitions, link loss and stragglers the
// protocol must still complete every round with finite parameters, no
// leaked pool payloads, and the fault counters lighting up.
func TestSimnetSurvivesChaos(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 150
	cfg.TrackAverages = true
	res, stats, err := HierMinimax(fltest.ToyProblem(1), cfg, WithChaos(heavySchedule()))
	if err != nil {
		t.Fatal(err)
	}
	if !fltest.AllFinite(res.W) || !fltest.AllFinite(res.PWeights) {
		t.Fatal("non-finite parameters under chaos")
	}
	if got := res.History.Final().Round; got != cfg.Rounds {
		t.Fatalf("run stopped early: final snapshot at round %d of %d", got, cfg.Rounds)
	}
	if stats.PoolOutstanding != 0 {
		t.Fatalf("payload leak under chaos: %d vectors outstanding", stats.PoolOutstanding)
	}
	if stats.Crashes == 0 {
		t.Fatal("crash schedule never fired")
	}
	if stats.MessagesLost == 0 {
		t.Fatal("loss/partition schedule never fired")
	}
	if stats.Timeouts == 0 {
		t.Fatal("no fan-in deadline ever fired despite crashes and losses")
	}
	if stats.Retries == 0 {
		t.Fatal("MaxRetries=1 with link loss should have spent retransmissions")
	}
	if final := res.History.Final().Fair; final.Average < 0.6 {
		t.Fatalf("run under chaos reached only %v", final.Average)
	}
}

// The same seed must reproduce the same faulted run exactly — same
// trajectory, same ledger, same fault counters — regardless of
// goroutine scheduling.
func TestSimnetChaosIsDeterministic(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 60
	type endState struct {
		W, P   []float64
		Ledger topology.LedgerSnapshot
	}
	run := func() (endState, RunStats) {
		t.Helper()
		res, stats, err := HierMinimax(fltest.ToyProblem(1), cfg, WithChaos(heavySchedule()))
		if err != nil {
			t.Fatal(err)
		}
		return endState{W: res.W, P: res.PWeights, Ledger: res.Ledger}, stats
	}
	a, sa := run()
	b, sb := run()
	for i := range a.W {
		if a.W[i] != b.W[i] {
			t.Fatalf("w[%d] differs across identical chaos runs: %v vs %v", i, a.W[i], b.W[i])
		}
	}
	for i := range a.P {
		if a.P[i] != b.P[i] {
			t.Fatalf("p[%d] differs across identical chaos runs", i)
		}
	}
	if a.Ledger != b.Ledger {
		t.Fatalf("ledgers differ across identical chaos runs:\n%+v\n%+v", a.Ledger, b.Ledger)
	}
	if sa.Timeouts != sb.Timeouts || sa.Retries != sb.Retries || sa.Crashes != sb.Crashes ||
		sa.MessagesSent != sb.MessagesSent || sa.MessagesLost != sb.MessagesLost {
		t.Fatalf("fault counters differ across identical chaos runs:\n%+v\n%+v", sa, sb)
	}
}

// A schedule with all probabilities zero must not perturb the
// trajectory at all: bitwise identity with the in-process engine.
func TestSimnetZeroChaosMatchesCore(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 40
	ref, err := core.HierMinimax(fltest.ToyProblem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, stats, err := HierMinimax(fltest.ToyProblem(1), cfg, WithChaos(&chaos.Schedule{Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.W {
		if ref.W[i] != sim.W[i] {
			t.Fatalf("w[%d] differs under zero-prob chaos: %v vs %v", i, ref.W[i], sim.W[i])
		}
	}
	if ref.Ledger != sim.Ledger {
		t.Fatalf("ledger differs under zero-prob chaos:\ncore   %+v\nsimnet %+v", ref.Ledger, sim.Ledger)
	}
	if stats.Timeouts != 0 || stats.Retries != 0 || stats.Crashes != 0 || stats.MessagesLost != 0 {
		t.Fatalf("zero-prob chaos produced fault activity: %+v", stats)
	}
}

// Config.DropoutProb is one knob for both engines: the simnet run must
// drop the same slots as core on the same seed and stay bitwise
// identical, ledger included.
func TestSimnetDropoutMatchesCore(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 60
	cfg.DropoutProb = 0.3
	cfg.TrackAverages = true
	ref, err := core.HierMinimax(fltest.ToyProblem(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, stats, err := HierMinimax(fltest.ToyProblem(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.W {
		if ref.W[i] != sim.W[i] {
			t.Fatalf("w[%d] differs under DropoutProb: %v vs %v", i, ref.W[i], sim.W[i])
		}
	}
	for i := range ref.PWeights {
		if ref.PWeights[i] != sim.PWeights[i] {
			t.Fatalf("p[%d] differs under DropoutProb", i)
		}
	}
	for i := range ref.WHat {
		if ref.WHat[i] != sim.WHat[i] {
			t.Fatalf("wHat[%d] differs under DropoutProb", i)
		}
	}
	if ref.Ledger != sim.Ledger {
		t.Fatalf("ledger differs under DropoutProb:\ncore   %+v\nsimnet %+v", ref.Ledger, sim.Ledger)
	}
	if stats.PoolOutstanding != 0 {
		t.Fatalf("payload leak under DropoutProb: %d outstanding", stats.PoolOutstanding)
	}
}

// Stragglers are a time-model fault only: the trajectory must be
// bitwise identical to the fault-free run, with strictly more simulated
// time.
func TestSimnetStragglersOnlyStretchTime(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 40
	base, baseStats, err := HierMinimax(fltest.ToyProblem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := &chaos.Schedule{Seed: 5, StragglerProb: 0.5, StragglerMs: 25}
	slow, slowStats, err := HierMinimax(fltest.ToyProblem(1), cfg, WithChaos(sched))
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.W {
		if base.W[i] != slow.W[i] {
			t.Fatalf("stragglers changed the trajectory at w[%d]", i)
		}
	}
	if base.Ledger != slow.Ledger {
		t.Fatal("stragglers changed the communication ledger")
	}
	if slowStats.SimulatedMs <= baseStats.SimulatedMs {
		t.Fatalf("stragglers did not stretch simulated time: %v <= %v",
			slowStats.SimulatedMs, baseStats.SimulatedMs)
	}
	if slowStats.MessagesLost != 0 || slowStats.Timeouts != 0 {
		t.Fatalf("straggler-only schedule produced losses/timeouts: %+v", slowStats)
	}
}

// Retries must convert would-be losses into deliveries: with aggressive
// retransmission the same lossy schedule should deliver more protocol
// messages and time out less at the fan-ins.
func TestSimnetRetriesRecoverLosses(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 60
	lossy := &chaos.Schedule{Seed: 11, LossProb: 0.1}
	_, noRetry, err := HierMinimax(fltest.ToyProblem(1), cfg, WithChaos(lossy))
	if err != nil {
		t.Fatal(err)
	}
	withRetry := &chaos.Schedule{Seed: 11, LossProb: 0.1, MaxRetries: 4}
	_, retried, err := HierMinimax(fltest.ToyProblem(1), cfg, WithChaos(withRetry))
	if err != nil {
		t.Fatal(err)
	}
	if retried.Retries == 0 {
		t.Fatal("retrying run recorded no retransmissions")
	}
	if retried.Timeouts >= noRetry.Timeouts {
		t.Fatalf("retries did not reduce timeouts: %d >= %d", retried.Timeouts, noRetry.Timeouts)
	}
}
