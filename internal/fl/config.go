package fl

import (
	"fmt"

	"repro/internal/population"
	"repro/internal/quant"
	"repro/internal/topology"
)

// Config controls one training run. The zero value is not runnable; call
// WithDefaults or fill the required fields (Rounds, EtaW).
type Config struct {
	// Rounds is K, the number of training rounds (one w update and one p
	// update each).
	Rounds int
	// Tau1 is the number of local SGD steps per client-edge aggregation;
	// Tau2 is the number of client-edge aggregations per round. Two-layer
	// algorithms ignore Tau2 (treat it as 1).
	Tau1, Tau2 int
	// EtaW and EtaP are the learning rates of Eq. (4) and Eq. (7).
	EtaW, EtaP float64
	// BatchSize is the local SGD mini-batch size; LossBatch is the
	// per-client mini-batch for Phase-2 loss estimation.
	BatchSize, LossBatch int
	// SampledEdges is m_E, the number of edge servers sampled in each
	// phase. Two-layer algorithms sample SampledEdges*N0 clients so all
	// five algorithms touch the same amount of data per round.
	SampledEdges int
	// Seed drives every random choice of the run.
	Seed uint64
	// EvalEvery takes an evaluation snapshot every this many rounds
	// (plus one before training and one after the last round). 0 means
	// only initial and final snapshots.
	EvalEvery int
	// TrackAverages maintains the time-averaged iterates (wHat, pHat)
	// that the convex analysis evaluates (Eq. 8). Costs one extra
	// d-vector accumulation per local step.
	TrackAverages bool
	// Compression, when enabled, compresses every uplink model transfer
	// (client->edge and edge->cloud) under one regime: stochastic
	// uniform quantization (Bits) or top-k sparsification (TopK,
	// optionally with per-client error-feedback residuals). Downlink
	// broadcasts stay dense. The zero value means exact uplinks. Each
	// setting is a deterministic rounding regime — bitwise-reproducible
	// from the seed and identical across the core, simnet and wire
	// engines — priced exactly in the topology ledger.
	Compression quant.Config
	// DropoutProb is the probability that a sampled slot (Phase 1) or
	// sampled edge (Phase 2) silently fails for the round; failure
	// injection for the robustness tests. 0 disables. Both engines
	// decide through fl.SlotDropped, so core and simnet drop the same
	// slots on the same seed; transport-level faults (loss, crashes,
	// partitions) are the simnet engine's chaos.Schedule instead.
	DropoutProb float64
	// CheckpointOff replaces the random-checkpoint model of Phase 2 with
	// the end-of-round model (the A1 ablation; breaks the unbiasedness
	// the analysis relies on but is the "obvious" simpler design).
	CheckpointOff bool
	// Population, when > 0, switches the engines into the sparse
	// population regime: the federation's per-area client shards are
	// ignored and instead Population clients are registered as pure
	// (seed, group) records (internal/population), striped over the
	// edge areas. Each round samples roughly SamplePerRound of them
	// deterministically and materializes their data lazily out of the
	// per-area training corpora; memory and per-round work are
	// O(sampled), never O(Population). Requires SamplePerRound.
	Population int
	// SamplePerRound is the total number of population clients trained
	// per round: each of the SampledEdges Phase-1 slots trains a cohort
	// of SamplePerRound/SampledEdges clients (Phase 2's loss estimates
	// reuse the same per-edge cohorts). Only meaningful with Population.
	SamplePerRound int
}

// PopulationEnabled reports whether the sparse population regime is on.
func (c Config) PopulationEnabled() bool { return c.Population > 0 }

// CohortSize returns the per-slot client cohort of the population
// regime: SamplePerRound split evenly over the sampled edge slots.
func (c Config) CohortSize() int { return c.SamplePerRound / c.SampledEdges }

// Roster builds the population roster the engines sample from — a pure
// value derived from the config, so every engine (and every process of
// a distributed run) reconstructs the identical roster.
func (c Config) Roster(edges int) population.Roster {
	return population.New(c.Seed, c.Population, edges, c.CohortSize())
}

// WithDefaults fills unset optional fields.
func (c Config) WithDefaults() Config {
	if c.Tau1 == 0 {
		c.Tau1 = 1
	}
	if c.Tau2 == 0 {
		c.Tau2 = 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 1
	}
	if c.LossBatch == 0 {
		c.LossBatch = c.BatchSize
	}
	if c.SampledEdges == 0 {
		c.SampledEdges = 1
	}
	if c.EtaP == 0 {
		c.EtaP = c.EtaW
	}
	return c
}

// Validate checks the configuration against a problem.
func (c Config) Validate(p *Problem) error {
	if c.Rounds <= 0 {
		return fmt.Errorf("fl: Rounds must be positive, got %d", c.Rounds)
	}
	if c.Tau1 <= 0 || c.Tau2 <= 0 {
		return fmt.Errorf("fl: Tau1/Tau2 must be positive, got %d/%d", c.Tau1, c.Tau2)
	}
	if c.EtaW <= 0 {
		return fmt.Errorf("fl: EtaW must be positive, got %g", c.EtaW)
	}
	if c.EtaP < 0 {
		return fmt.Errorf("fl: EtaP must be non-negative, got %g", c.EtaP)
	}
	if c.BatchSize <= 0 || c.LossBatch <= 0 {
		return fmt.Errorf("fl: batch sizes must be positive")
	}
	if c.SampledEdges <= 0 || c.SampledEdges > p.Fed.NumAreas() {
		return fmt.Errorf("fl: SampledEdges %d outside [1,%d]", c.SampledEdges, p.Fed.NumAreas())
	}
	if c.DropoutProb < 0 || c.DropoutProb >= 1 {
		return fmt.Errorf("fl: DropoutProb %g outside [0,1)", c.DropoutProb)
	}
	if err := c.Compression.Validate(); err != nil {
		return err
	}
	if c.Population != 0 || c.SamplePerRound != 0 {
		if c.Population <= 0 || c.SamplePerRound <= 0 {
			return fmt.Errorf("fl: Population and SamplePerRound must be set together, both positive, got %d/%d", c.Population, c.SamplePerRound)
		}
		if c.SamplePerRound > c.Population {
			return fmt.Errorf("fl: SamplePerRound %d exceeds Population %d", c.SamplePerRound, c.Population)
		}
		if c.SamplePerRound < c.SampledEdges {
			return fmt.Errorf("fl: SamplePerRound %d below SampledEdges %d (every sampled edge slot needs a cohort)", c.SamplePerRound, c.SampledEdges)
		}
		if err := c.Roster(p.Fed.NumAreas()).Validate(); err != nil {
			return err
		}
	}
	if c.Compression.Enabled() {
		if d := p.Model.Dim(); c.Compression.TopK > d {
			return fmt.Errorf("fl: Compression.TopK %d exceeds model dimension %d", c.Compression.TopK, d)
		}
	}
	return nil
}

// UplinkBytes is the priced size of what one member — a client to its
// edge, or an edge to the cloud — uploads per block: its d-dimensional
// model, compressed when Compression is on; twice that when the block's
// checkpoint rides along (chk); plus one dense iterate sum under
// TrackAverages. Core's ledger, simnet's simulated time and simnet's
// virtual roster fan-out price uplinks with it; the messages that do
// travel report their payloads' own sizes, which equal it.
func (c Config) UplinkBytes(d int, chk bool) int64 {
	up := c.Compression.VecWireBytes(d) // the dense payload when disabled
	if chk {
		up *= 2
	}
	if c.TrackAverages {
		up += topology.ModelBytes(d)
	}
	return up
}

// SlotsPerRound returns tau1*tau2, the local SGD slots per round.
func (c Config) SlotsPerRound() int { return c.Tau1 * c.Tau2 }
