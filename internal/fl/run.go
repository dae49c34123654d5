package fl

import (
	"fmt"
	"sync"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/topology"
)

// State is the mutable run state shared between the Run loop and an
// algorithm's per-round function.
type State struct {
	Prob   *Problem
	Cfg    Config
	Ledger *topology.Ledger
	// Root is the run's root randomness; engines derive per-round,
	// per-slot and per-client streams from it by key paths.
	Root *rng.Stream
	// W is the global model w^(k); P the edge weights p^(k).
	W, P []float64
	// WSum accumulates local iterates for wHat (TrackAverages only);
	// WCount counts accumulated (slot, client) pairs. PSum accumulates
	// p^(k) over rounds.
	WSum   []float64
	WCount float64
	PSum   []float64
}

// RoundFunc advances one training round k, mutating st.W and st.P and
// recording communication on st.Ledger.
type RoundFunc func(k int, st *State)

// RunOptions adjusts Run for fault-tolerant training.
type RunOptions struct {
	// Resume continues from a checkpoint instead of a fresh
	// initialization; the result is bitwise-identical to the
	// uninterrupted run because every round's randomness is derived from
	// (Seed, round) alone.
	Resume *Checkpoint
	// CheckpointEvery emits a checkpoint to OnCheckpoint every this many
	// completed rounds (0 = never).
	CheckpointEvery int
	// OnCheckpoint receives periodic checkpoints; it runs on the
	// training goroutine, so heavy work should be handed off.
	OnCheckpoint func(*Checkpoint)
}

// Run executes the common training loop: initialize (w^(0), p^(0)),
// call roundFn K times, take evaluation snapshots per Config.EvalEvery,
// and assemble the Result (including the time-averaged iterates when
// requested). Algorithm engines supply only their per-round logic.
func Run(algorithm string, prob *Problem, cfg Config, roundFn RoundFunc) (*Result, error) {
	return RunWithOptions(algorithm, prob, cfg, roundFn, RunOptions{})
}

// RunWithOptions is Run with checkpoint/resume support.
func RunWithOptions(algorithm string, prob *Problem, cfg Config, roundFn RoundFunc, opts RunOptions) (*Result, error) {
	cfg = cfg.WithDefaults()
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(prob); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	st := &State{
		Prob:   prob,
		Cfg:    cfg,
		Ledger: topology.NewLedger(),
		Root:   root,
		W:      make([]float64, prob.Model.Dim()),
		P:      make([]float64, prob.Fed.NumAreas()),
	}
	prob.Model.Init(st.W, root.Child('i'))
	tensor.Fill(st.P, 1/float64(len(st.P))) // p^(0) = uniform (Algorithm 1 line 1)
	prob.P.Project(st.P)
	if cfg.TrackAverages {
		st.WSum = make([]float64, len(st.W))
		st.PSum = make([]float64, len(st.P))
	}

	startRound := 0
	if opts.Resume != nil {
		var err error
		if startRound, err = st.restore(opts.Resume); err != nil {
			return nil, err
		}
		if startRound >= cfg.Rounds {
			return nil, fmt.Errorf("fl: checkpoint at round %d is not before Rounds=%d", startRound, cfg.Rounds)
		}
	}

	evalModel := prob.Model.Clone()
	hist := History{}
	record := func(round int) {
		sp := obs.Start("eval", obs.Str("algorithm", algorithm), obs.Int("round", round))
		areas := metrics.EvaluateAreas(evalModel, st.W, prob.Fed)
		hist.Snapshots = append(hist.Snapshots, Snapshot{
			Round:  round,
			Slots:  round * cfg.SlotsPerRound(),
			Ledger: st.Ledger.Snapshot(),
			Areas:  areas,
			Fair:   metrics.Summarize(areas.Accuracy),
			P:      append([]float64(nil), st.P...),
		})
		sp.End()
	}
	record(startRound)

	// The observability hub is resolved once per run: rounds of one run
	// all report to the same hub even if the global is swapped mid-run.
	hub := obs.Get()
	for k := startRound; k < cfg.Rounds; k++ {
		if cfg.TrackAverages {
			tensor.Axpy(1, st.P, st.PSum)
		}
		var sp obs.Span
		if hub != nil {
			hub.RoundStart(obs.RoundEvent{Algorithm: algorithm, Round: k})
			sp = hub.Start("round", obs.Str("algorithm", algorithm), obs.Int("round", k))
		}
		roundFn(k, st)
		if hub != nil {
			sp.End()
			hub.Registry().Counter("fl_rounds_total").Inc()
			hub.RoundEnd(obs.RoundEvent{Algorithm: algorithm, Round: k})
		}
		if cfg.EvalEvery > 0 && (k+1)%cfg.EvalEvery == 0 && k+1 < cfg.Rounds {
			record(k + 1)
		}
		if opts.CheckpointEvery > 0 && (k+1)%opts.CheckpointEvery == 0 && opts.OnCheckpoint != nil {
			csp := obs.Start("checkpoint-save", obs.Int("round", k+1))
			opts.OnCheckpoint(checkpointOf(algorithm, k+1, st))
			csp.End()
		}
	}
	record(cfg.Rounds)

	res := &Result{
		Algorithm: algorithm,
		W:         st.W,
		PWeights:  st.P,
		History:   hist,
		Ledger:    st.Ledger.Snapshot(),
	}
	if cfg.TrackAverages {
		if st.WCount > 0 {
			res.WHat = append([]float64(nil), st.WSum...)
			tensor.Scale(1/st.WCount, res.WHat)
		}
		res.PHat = append([]float64(nil), st.PSum...)
		tensor.Scale(1/float64(cfg.Rounds), res.PHat)
	}
	return res, nil
}

// ModelPool hands out per-goroutine model clones. Engines Get a model at
// the start of a parallel task and Put it back after; clones are reused
// across rounds to avoid per-round allocation of scratch buffers.
type ModelPool struct {
	proto model.Model
	mu    sync.Mutex
	free  []model.Model
}

// NewModelPool returns a pool cloning proto on demand.
func NewModelPool(proto model.Model) *ModelPool {
	return &ModelPool{proto: proto}
}

// Get returns an exclusive model instance.
func (p *ModelPool) Get() model.Model {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free = p.free[:n-1]
		return m
	}
	return p.proto.Clone()
}

// Put returns an instance to the pool.
func (p *ModelPool) Put(m model.Model) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, m)
}
