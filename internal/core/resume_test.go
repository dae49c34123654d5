package core

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/fl"
	"repro/internal/fl/fltest"
)

// Interrupt-and-resume must reproduce the uninterrupted run bit for bit,
// including the communication ledger and the averaged iterates.
func TestResumeBitwiseIdentical(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 80
	cfg.TrackAverages = true

	full, err := HierMinimax(fltest.ToyProblem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// First leg: stop after 30 rounds, keeping the checkpoint.
	var chk *fl.Checkpoint
	legCfg := cfg
	legCfg.Rounds = 30
	_, err = HierMinimaxWithOptions(fltest.ToyProblem(1), legCfg, fl.RunOptions{
		CheckpointEvery: 30,
		OnCheckpoint:    func(c *fl.Checkpoint) { chk = c },
	})
	if err != nil {
		t.Fatal(err)
	}
	if chk == nil || chk.Round != 30 {
		t.Fatalf("no checkpoint captured: %+v", chk)
	}

	restored := gobRoundTrip(t, chk)

	// Second leg: resume to the full horizon.
	resumed, err := HierMinimaxWithOptions(fltest.ToyProblem(1), cfg, fl.RunOptions{Resume: restored})
	if err != nil {
		t.Fatal(err)
	}

	for i := range full.W {
		if full.W[i] != resumed.W[i] {
			t.Fatalf("w diverges at %d after resume", i)
		}
	}
	for i := range full.PWeights {
		if full.PWeights[i] != resumed.PWeights[i] {
			t.Fatalf("p diverges at %d after resume", i)
		}
	}
	if full.Ledger != resumed.Ledger {
		t.Fatalf("ledger diverges after resume:\nfull:    %+v\nresumed: %+v", full.Ledger, resumed.Ledger)
	}
	for i := range full.WHat {
		if full.WHat[i] != resumed.WHat[i] {
			t.Fatalf("wHat diverges at %d after resume", i)
		}
	}
	for i := range full.PHat {
		if full.PHat[i] != resumed.PHat[i] {
			t.Fatalf("pHat diverges at %d after resume", i)
		}
	}
}

func TestResumeRejectsMismatch(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 20
	var chk *fl.Checkpoint
	_, err := HierMinimaxWithOptions(fltest.ToyProblem(1), cfg, fl.RunOptions{
		CheckpointEvery: 20,
		OnCheckpoint:    func(c *fl.Checkpoint) { chk = c },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint at the horizon cannot resume.
	if _, err := HierMinimaxWithOptions(fltest.ToyProblem(1), cfg, fl.RunOptions{Resume: chk}); err == nil {
		t.Fatal("resume at horizon accepted")
	}
	// Wrong problem size rejected.
	other := fltest.ToyMLPProblem(1)
	if _, err := HierMinimaxWithOptions(other, cfg, fl.RunOptions{Resume: chk}); err == nil {
		t.Fatal("mismatched checkpoint accepted")
	}
}

// gobRoundTrip serializes c through encoding/gob and decodes it back,
// as a restart from disk would.
func gobRoundTrip(t *testing.T, c *fl.Checkpoint) *fl.Checkpoint {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		t.Fatal(err)
	}
	var restored fl.Checkpoint
	if err := gob.NewDecoder(&buf).Decode(&restored); err != nil {
		t.Fatal(err)
	}
	return &restored
}

func TestCheckpointGobGarbage(t *testing.T) {
	if err := gob.NewDecoder(bytes.NewReader([]byte("junk"))).Decode(new(fl.Checkpoint)); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
}

func TestResumeTrackAveragesRequiresAccumulators(t *testing.T) {
	// A checkpoint taken without TrackAverages cannot seed a run that
	// needs the iterate accumulators.
	cfg := fltest.ToyConfig()
	cfg.Rounds = 10
	var chk *fl.Checkpoint
	_, err := HierMinimaxWithOptions(fltest.ToyProblem(1), cfg, fl.RunOptions{
		CheckpointEvery: 5,
		OnCheckpoint:    func(c *fl.Checkpoint) { chk = c },
	})
	if err != nil {
		t.Fatal(err)
	}
	withAvg := cfg
	withAvg.Rounds = 20
	withAvg.TrackAverages = true
	if _, err := HierMinimaxWithOptions(fltest.ToyProblem(1), withAvg, fl.RunOptions{Resume: chk}); err == nil {
		t.Fatal("accumulator-less checkpoint accepted by TrackAverages run")
	}
}

func TestCheckpointEveryWithoutCallbackIsNoOp(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 10
	if _, err := HierMinimaxWithOptions(fltest.ToyProblem(1), cfg, fl.RunOptions{CheckpointEvery: 5}); err != nil {
		t.Fatal(err)
	}
}
