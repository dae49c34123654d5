package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sync"
	"time"

	hierfair "repro"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/sched"
)

// outcome is what one complete engine run yields for the correctness
// checks and the exact (count) metrics.
type outcome struct {
	hash  uint64  // FNV-64 of the run's output bits
	bytes int64   // ledger total over both links; noBytes if the facade hides it
	worst float64 // final worst-area accuracy
}

// noBytes marks an outcome whose entry point does not expose the byte
// ledger (experiments.RunFigure); the reference run supplies it.
const noBytes = -1

// workload is one named input of the benchmark: a complete engine run
// parameterised only by its round count, so the driver can time
// Rounds=1 (setup) and Rounds=K (steady state) runs of the same thing.
type workload struct {
	name   string
	rounds int // K of one long run
	run    func(rounds int) (outcome, error)
	// reference, when set, recomputes the outcome through an independent
	// entry point (the cross-engine oracle); hash and bytes must agree.
	reference func(rounds int) (outcome, error)
	// spec is the workload's facade spec: the source of the probe shapes
	// and of the per-round call counts in the budget.
	spec hierfair.Spec
	// wire says the run crosses loopback sockets; sweep that it is the
	// five-algorithm grid. The budget derives call counts from them.
	wire, sweep bool
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{
	"core-logreg", "core-mlp", "core-pop1m", "simnet-logreg",
	"wire-dense", "wire-q8", "sweep-5alg",
}

// baseSpec is the §6.1 topology every workload starts from: N_E=10, N0=3,
// m_E=5, tau1=tau2=2, B=4, logistic regression on 784 inputs (d=7850).
func baseSpec(seed uint64) hierfair.Spec {
	s := hierfair.DefaultSpec(hierfair.AlgHierMinimax)
	s.InputDim = 784
	s.TrainPerClass = 200
	s.TestPerClass = 50
	s.EtaW = 0.01
	s.EtaP = 0.001
	s.EvalEvery = 0
	s.Seed = seed
	return s
}

// newWorkload builds the named workload for a seed. Long-run round
// counts are sized so one run takes 0.3 to 0.9 s on a 2.1 GHz core: many
// short runs keep the median steady when a noisy neighbour slows a few.
func newWorkload(name string, seed uint64) (*workload, error) {
	spec := baseSpec(seed)
	w := &workload{name: name}
	switch name {
	case "core-logreg":
		w.rounds = 750
	case "core-mlp":
		spec.Model = hierfair.ModelMLP
		spec.BatchSize = 16
		w.rounds = 10
	case "core-pop1m":
		spec.Population = 1000000
		spec.SamplePerRound = 50
		w.rounds = 275
	case "simnet-logreg":
		spec.Engine = hierfair.EngineSimNet
		w.rounds = 650
	case "wire-dense":
		w.rounds, w.wire = 140, true
	case "wire-q8":
		spec.QuantBits = 8
		w.rounds, w.wire = 65, true
	case "sweep-5alg":
		w.rounds, w.sweep = 600, true
		w.spec = sweepSpec(seed)
		w.run = func(rounds int) (outcome, error) { return runSweep(sched.New(0), seed, rounds) }
		w.reference = func(rounds int) (outcome, error) { return runSweepDirect(seed, rounds) }
		return w, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	w.spec = spec
	inProcess := func(rounds int) (outcome, error) {
		s := spec
		s.Engine = hierfair.EngineInProcess
		return runSpec(s, rounds)
	}
	switch {
	case w.wire:
		w.run = func(rounds int) (outcome, error) { return runWire(spec, rounds) }
		w.reference = inProcess
	case spec.Engine == hierfair.EngineSimNet:
		w.run = func(rounds int) (outcome, error) { return runSpec(spec, rounds) }
		w.reference = inProcess
	default:
		w.run = inProcess
	}
	return w, nil
}

func reportOutcome(rep *hierfair.Report) (outcome, error) {
	h := newBitsHash()
	h.add(rep.Parameters()...)
	return h.outcome(rep.Algorithm, rep.TotalBytes, rep.FinalWorst)
}

// bitsHash folds float64 outputs into an FNV-64 bit for bit, noting any
// non-finite value on the way.
type bitsHash struct {
	h      hash.Hash64
	finite bool
}

func newBitsHash() *bitsHash { return &bitsHash{h: fnv.New64a(), finite: true} }

func (s *bitsHash) add(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			s.finite = false
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		s.h.Write(b[:])
	}
}

func (s *bitsHash) outcome(what string, bytes int64, worst float64) (outcome, error) {
	if !s.finite || math.IsNaN(worst) || math.IsInf(worst, 0) {
		return outcome{}, fmt.Errorf("%s: non-finite output", what)
	}
	return outcome{hash: s.h.Sum64(), bytes: bytes, worst: worst}, nil
}

// runSpec is one hierfair.Run of spec with the given round count.
func runSpec(spec hierfair.Spec, rounds int) (outcome, error) {
	spec.Rounds = rounds
	rep, err := hierfair.Run(spec)
	if err != nil {
		return outcome{}, err
	}
	return reportOutcome(rep)
}

func runWire(spec hierfair.Spec, rounds int) (outcome, error) {
	spec.Rounds = rounds
	rep, err := wireReport(spec)
	if err != nil {
		return outcome{}, err
	}
	return reportOutcome(rep)
}

// wireReport is one distributed run over loopback TCP: a cloud runtime plus
// one edge-server and one client-host runtime per area, each a goroutine
// behind the public role entry points and each building its own problem —
// the cmd/hierminimax -role layout without the process boundary.
func wireReport(spec hierfair.Spec) (*hierfair.Report, error) {
	type cloudOut struct {
		rep *hierfair.Report
		err error
	}
	cloudAddr := make(chan string, 1)
	cloudCh := make(chan cloudOut, 1)
	go func() {
		rep, err := hierfair.RunCloud(spec, hierfair.DistConfig{
			Listen:  "127.0.0.1:0",
			Started: func(a string) { cloudAddr <- a },
		})
		cloudCh <- cloudOut{rep, err}
	}()
	var ca string
	select {
	case ca = <-cloudAddr:
	case out := <-cloudCh:
		return nil, fmt.Errorf("cloud exited before listening: %w", out.err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 2*spec.NumEdges) // one send per role goroutine
	for edge := 0; edge < spec.NumEdges; edge++ {
		edge := edge
		edgeAddr := make(chan string, 1)
		edgeDone := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(edgeDone)
			errCh <- hierfair.RunEdge(spec, hierfair.DistConfig{
				Listen:  "127.0.0.1:0",
				Connect: ca,
				Edge:    edge,
				Started: func(a string) { edgeAddr <- a },
			})
		}()
		var ea string
		select {
		case ea = <-edgeAddr:
		case <-edgeDone:
			// The edge failed before binding; the cloud gives up at its
			// handshake deadline and the error surfaces below.
			continue
		case <-time.After(30 * time.Second):
			return nil, fmt.Errorf("edge %d never bound its listener", edge)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errCh <- hierfair.RunClientHost(spec, hierfair.DistConfig{
				Listen:  "127.0.0.1:0",
				Connect: ea,
				Edge:    edge,
			})
		}()
	}

	out := <-cloudCh
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil && out.err == nil {
			out.err = err
		}
	}
	return out.rep, out.err
}

// sweepSetup is the Fig. 3 smoke grid (d=490) with K rounds per job.
func sweepSetup(seed uint64, rounds int) experiments.FigSetup {
	setup := experiments.SetupFig3(experiments.Smoke, seed)
	setup.Base.Rounds = rounds
	return setup
}

// sweepSpec describes the sweep's HierMinimax job as a facade spec, for
// the probe shapes only (the sweep itself runs through RunFigure).
func sweepSpec(seed uint64) hierfair.Spec {
	base := sweepSetup(seed, 1).Base
	s := baseSpec(seed)
	s.InputDim = 48
	s.BatchSize, s.LossBatch = base.BatchSize, base.LossBatch
	s.EvalEvery = base.EvalEvery
	return s
}

// runSweep is one five-algorithm grid through the scheduler and the
// dataset-cache guard, the path cmd/experiments takes.
func runSweep(pool *sched.Pool, seed uint64, rounds int) (outcome, error) {
	res, err := experiments.RunFigure(pool, func() experiments.FigSetup { return sweepSetup(seed, rounds) }, experiments.AllAlgorithms)
	if err != nil {
		return outcome{}, err
	}
	h := newBitsHash()
	for _, s := range res.Series {
		for i := range s.Rounds {
			h.add(float64(s.Rounds[i]), float64(s.CloudRounds[i]), s.Average[i], s.Worst[i])
		}
	}
	return h.outcome("sweep", noBytes, res.Final[experiments.HierMinimax].Worst)
}

// runSweepDirect recomputes the grid by calling the five engines
// directly, in order, without scheduler or RunFigure: the reference the
// sweep must agree with, and the only place its byte ledger is visible.
func runSweepDirect(seed uint64, rounds int) (outcome, error) {
	h := newBitsHash()
	var bytes int64
	var worst float64
	for _, algo := range experiments.AllAlgorithms {
		setup := sweepSetup(seed, rounds)
		prob := fl.NewProblem(setup.Fed, setup.Model.Clone())
		cfg := setup.Base
		run := core.HierMinimax
		// The §6 protocol: two-layer methods run tau2=1, Stochastic-AFL
		// single-step updates.
		switch algo {
		case experiments.FedAvg:
			cfg.Tau2, run = 1, baselines.FedAvg
		case experiments.DRFA:
			cfg.Tau2, run = 1, baselines.DRFA
		case experiments.StochasticAFL:
			cfg.Tau1, cfg.Tau2, run = 1, 1, baselines.StochasticAFL
		case experiments.HierFAvg:
			run = baselines.HierFAvg
		}
		res, err := run(prob, cfg)
		if err != nil {
			return outcome{}, fmt.Errorf("%s: %w", algo, err)
		}
		for _, snap := range res.History.Snapshots {
			h.add(float64(snap.Round), float64(snap.CloudRounds()), snap.Fair.Average, snap.Fair.Worst)
		}
		bytes += res.Ledger.TotalBytes()
		worst = res.History.Final().Fair.Worst // HierMinimax runs last
	}
	return h.outcome("sweep reference", bytes, worst)
}
