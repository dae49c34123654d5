package core

import (
	"bytes"
	"strconv"
	"sync"
	"testing"

	"repro/internal/fl"
	"repro/internal/fl/fltest"
	"repro/internal/obs"
)

// collectorSink is an obs.Sink that records every round event in
// order, for asserting deterministic event sequences.
type collectorSink struct {
	mu     sync.Mutex
	events []string
}

func (c *collectorSink) RoundStart(ev obs.RoundEvent) { c.record("start", ev) }

func (c *collectorSink) RoundEnd(ev obs.RoundEvent) { c.record("end", ev) }

func (c *collectorSink) record(kind string, ev obs.RoundEvent) {
	c.mu.Lock()
	c.events = append(c.events, kind+" "+ev.Algorithm+" "+strconv.Itoa(ev.Round))
	c.mu.Unlock()
}

// Events returns the recorded event strings in arrival order.
func (c *collectorSink) Events() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.events...)
}

func TestCollectorSinkOrder(t *testing.T) {
	hub := obs.New()
	var c collectorSink
	hub.AddSink(&c)
	hub.RoundStart(obs.RoundEvent{Algorithm: "A", Round: 0})
	hub.RoundEnd(obs.RoundEvent{Algorithm: "A", Round: 0})
	hub.RoundStart(obs.RoundEvent{Algorithm: "A", Round: 1})
	hub.RoundEnd(obs.RoundEvent{Algorithm: "A", Round: 1})
	got := c.Events()
	want := []string{"start A 0", "end A 0", "start A 1", "end A 1"}
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// withCollector runs fn with a fresh global hub carrying a collector
// sink and returns the recorded event sequence.
func withCollector(t *testing.T, fn func()) []string {
	t.Helper()
	hub := obs.New()
	var sink collectorSink
	hub.AddSink(&sink)
	prev := obs.SetGlobal(hub)
	defer obs.SetGlobal(prev)
	fn()
	return sink.Events()
}

// Round lifecycle events are a pure function of (problem, config, seed),
// so interrupting a run at a checkpoint and resuming must replay exactly
// the uninterrupted run's event sequence: leg one emits rounds [0, s),
// the resumed leg [s, K), and their concatenation equals the full run.
func TestResumeReplaysRoundEventSequence(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 40
	const stop = 15

	full := withCollector(t, func() {
		if _, err := HierMinimax(fltest.ToyProblem(1), cfg); err != nil {
			t.Fatal(err)
		}
	})
	if want := 2 * cfg.Rounds; len(full) != want {
		t.Fatalf("full run emitted %d events, want %d", len(full), want)
	}

	var chk *fl.Checkpoint
	legCfg := cfg
	legCfg.Rounds = stop
	leg1 := withCollector(t, func() {
		_, err := HierMinimaxWithOptions(fltest.ToyProblem(1), legCfg, fl.RunOptions{
			CheckpointEvery: stop,
			OnCheckpoint:    func(c *fl.Checkpoint) { chk = c },
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	restored := gobRoundTrip(t, chk)
	leg2 := withCollector(t, func() {
		if _, err := HierMinimaxWithOptions(fltest.ToyProblem(1), cfg, fl.RunOptions{Resume: restored}); err != nil {
			t.Fatal(err)
		}
	})

	stitched := append(append([]string(nil), leg1...), leg2...)
	if len(stitched) != len(full) {
		t.Fatalf("stitched %d events, full run %d", len(stitched), len(full))
	}
	for i := range full {
		if stitched[i] != full[i] {
			t.Fatalf("event %d diverges after resume: %q vs %q", i, stitched[i], full[i])
		}
	}
}

// The trace journal must contain exactly one "round" span per configured
// training round, and every line must parse as JSON (the JSONL
// contract the acceptance criteria pin down).
func TestTraceJournalRoundSpansMatchRounds(t *testing.T) {
	var journal bytes.Buffer
	hub := obs.New()
	hub.SetTracer(obs.NewTracer(&journal))
	prev := obs.SetGlobal(hub)
	defer obs.SetGlobal(prev)

	cfg := fltest.ToyConfig()
	cfg.Rounds = 25
	if _, err := HierMinimax(fltest.ToyProblem(1), cfg); err != nil {
		t.Fatal(err)
	}

	lines, err := fltest.ReadTrace(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatalf("journal is not valid JSONL: %v", err)
	}
	rounds, phase1 := 0, 0
	for _, ln := range lines {
		if ln.Type != "span" && ln.Type != "event" {
			t.Fatalf("unknown journal record type %q", ln.Type)
		}
		switch ln.Name {
		case "round":
			rounds++
			if ln.Attrs["algorithm"] != Algorithm {
				t.Fatalf("round span algorithm = %v", ln.Attrs["algorithm"])
			}
		case "phase1":
			phase1++
		}
	}
	if rounds != cfg.Rounds {
		t.Fatalf("journal has %d round spans, want %d", rounds, cfg.Rounds)
	}
	if phase1 != cfg.Rounds {
		t.Fatalf("journal has %d phase1 spans, want %d", phase1, cfg.Rounds)
	}
}

// With no hub installed (the default), instrumented training must
// produce trajectories bitwise-identical to an instrumented-and-enabled
// run: observability may time things but never touch the math.
func TestTrajectoryUnchangedByObservability(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 30

	plain, err := HierMinimax(fltest.ToyProblem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}

	hub := obs.New()
	hub.SetTracer(obs.NewTracer(&bytes.Buffer{}))
	prev := obs.SetGlobal(hub)
	defer obs.SetGlobal(prev)
	traced, err := HierMinimax(fltest.ToyProblem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}

	for i := range plain.W {
		if plain.W[i] != traced.W[i] {
			t.Fatalf("w diverges at %d under observability", i)
		}
	}
	for i := range plain.PWeights {
		if plain.PWeights[i] != traced.PWeights[i] {
			t.Fatalf("p diverges at %d under observability", i)
		}
	}
	if plain.Ledger != traced.Ledger {
		t.Fatal("ledger diverges under observability")
	}
}
