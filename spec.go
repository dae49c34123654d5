// Package hierfair is a from-scratch Go implementation of
// "Distributed Minimax Fair Optimization over Hierarchical Networks"
// (Xu, Wang, Liang, Boudreau, Sokun — ICPP 2024): the HierMinimax
// algorithm, the four baselines it is evaluated against (FedAvg,
// Stochastic-AFL, DRFA, HierFAvg), the client-edge-cloud simulation
// substrate they run on, and the experiment harness that regenerates the
// paper's tables and figures.
//
// The package is a self-contained facade: callers describe a workload
// with a Spec and call Run. See the examples/ directory for end-to-end
// programs and DESIGN.md for the architecture.
package hierfair

import (
	"fmt"
	"slices"

	"repro/internal/chaos"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/simplex"
)

// Algorithm selects the training method.
type Algorithm string

// The five algorithms of the paper's evaluation.
const (
	// AlgHierMinimax is the paper's contribution: three-layer minimax
	// fair optimization (Algorithm 1).
	AlgHierMinimax Algorithm = "hierminimax"
	// AlgHierFAvg is hierarchical FedAvg (Liu et al. 2020): same
	// topology, no fairness.
	AlgHierFAvg Algorithm = "hierfavg"
	// AlgFedAvg is two-layer Federated Averaging (McMahan et al. 2017).
	AlgFedAvg Algorithm = "fedavg"
	// AlgAFL is Stochastic Agnostic Federated Learning (Mohri et al.
	// 2019): two-layer minimax, single-step updates.
	AlgAFL Algorithm = "afl"
	// AlgDRFA is Distributionally Robust Federated Averaging (Deng et
	// al. 2020): two-layer minimax, multi-step updates.
	AlgDRFA Algorithm = "drfa"
)

// Dataset selects a built-in synthetic workload (see DESIGN.md §1 for
// how each substitutes its real counterpart).
type Dataset string

// Built-in datasets.
const (
	DatasetEMNIST    Dataset = "emnist"    // EMNIST-Digits substitute (hub-confusion images)
	DatasetMNIST     Dataset = "mnist"     // MNIST substitute (easier)
	DatasetFashion   Dataset = "fashion"   // Fashion-MNIST substitute (harder)
	DatasetAdult     Dataset = "adult"     // census-like two-group tabular data
	DatasetSynthetic Dataset = "synthetic" // Li et al. Synthetic(1,1), 100 devices
	DatasetCustom    Dataset = "custom"    // user-provided areas via Spec.Custom
)

// Partition selects how training data is split across edge areas.
type Partition string

// Partitions. Adult and Synthetic datasets define their own areas and
// ignore this field.
const (
	// PartitionOneClassPerArea gives each edge area one label (§6.1).
	PartitionOneClassPerArea Partition = "one-class"
	// PartitionSimilarity mixes s% i.i.d. data with label-sorted blocks
	// (§6.2); set Spec.Similarity.
	PartitionSimilarity Partition = "similarity"
	// PartitionDirichlet draws per-area class mixtures from a symmetric
	// Dirichlet; set Spec.DirichletAlpha.
	PartitionDirichlet Partition = "dirichlet"
)

// ModelKind selects the classifier.
type ModelKind string

// Models of §6: convex multinomial logistic regression and the
// non-convex two-hidden-layer ReLU MLP.
const (
	ModelLogReg ModelKind = "logreg"
	ModelMLP    ModelKind = "mlp"
)

// Engine selects the execution substrate.
type Engine string

// Engines Run accepts; the distributed roles run through RunCloud, RunEdge
// and RunClientHost. Both produce identical trajectories for
// AlgHierMinimax; the simnet engine runs every node as a goroutine actor
// and additionally reports simulated wall-clock time. Which algorithm
// runs which regime on which engine is the regime table's (regimes.go).
const (
	EngineInProcess Engine = "inprocess"
	EngineSimNet    Engine = "simnet"
)

// AreaSamples is one edge area's data for DatasetCustom.
type AreaSamples struct {
	TrainX [][]float64
	TrainY []int
	TestX  [][]float64
	TestY  []int
}

// Spec describes one training run. Zero values get defaults when Run,
// RunCloud, RunEdge or RunClientHost plans the Spec; the only
// always-required fields are Algorithm, Rounds and EtaW.
type Spec struct {
	Algorithm Algorithm
	Engine    Engine

	// Workload.
	Dataset        Dataset
	Partition      Partition
	Similarity     float64 // s in [0,1] for PartitionSimilarity
	DirichletAlpha float64
	NumEdges       int // N_E (image datasets: must equal 10 for one-class)
	ClientsPerEdge int // N0
	InputDim       int // 0 = dataset default (784 for images)
	TrainPerClass  int
	TestPerClass   int
	Custom         []AreaSamples // DatasetCustom only
	NumClasses     int           // DatasetCustom only

	// Model.
	Model            ModelKind
	Hidden1, Hidden2 int // MLP layer sizes (default 300, 100)

	// Optimization (paper notation).
	Rounds       int     // K
	Tau1, Tau2   int     // local steps / client-edge aggregations
	EtaW, EtaP   float64 // learning rates of Eqs. (4) and (7)
	BatchSize    int
	LossBatch    int
	SampledEdges int // m_E

	// Branching and Taus, when set, run HierMinimax on that L-layer tree
	// (core.Tree; Algorithm 1 is its three-layer case): Branching[v]
	// children per level-(v+1) node (last entry = top-level areas),
	// Taus[v] the aggregation period at level v. ClientsPerEdge must equal
	// the product of Branching[:len-1]. Tau1/Tau2 are ignored when set.
	Branching []int
	Taus      []int

	// Extensions and constraints.
	// QuantBits and TopK select the uplink-compression regime (mutually
	// exclusive): QuantBits > 0 enables stochastic uniform quantization
	// at that bit width; TopK > 0 enables top-k sparsification with
	// per-client error-feedback residuals. Both engines price the
	// compressed payloads exactly in the byte ledger, and the wire
	// transport actually ships the compressed form.
	QuantBits uint
	TopK      int
	// DropoutProb drops each sampled client slot for a whole round with
	// this probability. It is one knob for both engines: the in-process
	// and simnet runs make identical seeded drop decisions, so their
	// trajectories stay bitwise equal. For transport-level faults
	// (crashes, partitions, message loss) see Chaos.
	DropoutProb float64
	// PCap > 0 makes P the capped simplex {p : p_e <= PCap}; it must
	// leave P non-empty (areas × PCap >= 1).
	PCap float64
	// CheckpointOff replaces the Phase-2 random checkpoint with the
	// end-of-round model (the A1 ablation).
	CheckpointOff bool

	// Population and SamplePerRound switch the run into the sparse
	// population regime (DESIGN.md §14): Population clients are
	// registered as pure (seed, group) roster records striped over the
	// edge areas, and each round deterministically samples roughly
	// SamplePerRound of them (a cohort of SamplePerRound/SampledEdges
	// per sampled edge slot), materializing their shards lazily out of
	// the per-area corpora. Memory and per-round work are O(sampled),
	// never O(Population), so million-client runs are routine. Both must
	// be set together. Both compression regimes compose; a top-k
	// residual lives for one slot per cohort position.
	Population     int
	SamplePerRound int

	// Chaos injects deterministic transport faults: crashes, partitions,
	// link loss, stragglers. The zero value injects nothing; a zero
	// Chaos.Seed is derived from Seed. See DESIGN.md §10 for the fault
	// model.
	Chaos Chaos

	Seed          uint64
	EvalEvery     int
	TrackAverages bool
}

// Chaos is a deterministic fault plan. All decisions are pure functions
// of (Seed, round, entity), so the same plan reproduces the same faulted
// run exactly; a run with all probabilities zero is bitwise identical to
// a fault-free one.
type Chaos = chaos.Schedule

// DefaultSpec returns the paper's §6.1 convex configuration (EMNIST
// substitute, logistic regression, N_E=10, N0=3, m_E=5, tau1=tau2=2)
// scaled to a laptop-friendly run, for the given algorithm.
func DefaultSpec(alg Algorithm) Spec {
	s := Spec{
		Algorithm:      alg,
		Dataset:        DatasetEMNIST,
		Partition:      PartitionOneClassPerArea,
		NumEdges:       10,
		ClientsPerEdge: 3,
		InputDim:       784,
		TrainPerClass:  2000,
		TestPerClass:   150,
		Model:          ModelLogReg,
		Rounds:         3000,
		Tau1:           2,
		Tau2:           2,
		EtaW:           0.002,
		EtaP:           0.0003,
		BatchSize:      4,
		LossBatch:      16,
		SampledEdges:   5,
		Seed:           1,
		EvalEvery:      100,
	}
	switch alg {
	case AlgAFL:
		s.Tau1, s.Tau2 = 1, 1
	case AlgFedAvg, AlgDRFA:
		s.Tau2 = 1
	}
	return s
}

// normalize fills defaults in place and validates.
func (s *Spec) normalize() error {
	if s.Algorithm == "" {
		return fmt.Errorf("hierfair: Spec.Algorithm is required")
	}
	if !slices.Contains(algorithms, s.Algorithm) {
		return fmt.Errorf("hierfair: unknown algorithm %q", s.Algorithm)
	}
	if s.Engine == "" {
		s.Engine = EngineInProcess
	}
	if _, ok := engines[s.Engine]; !ok {
		return fmt.Errorf("hierfair: unknown Spec.Engine %q (want %s or %s; distributed runs go through RunCloud, RunEdge and RunClientHost)",
			s.Engine, EngineInProcess, EngineSimNet)
	}
	// QuantBits × TopK and the Population/SamplePerRound pairing are
	// fl.Config.Validate's, which every engine runs.
	for _, n := range []struct {
		knob string
		v    int
	}{
		{"NumEdges", s.NumEdges}, {"ClientsPerEdge", s.ClientsPerEdge}, {"InputDim", s.InputDim},
		{"TrainPerClass", s.TrainPerClass}, {"TestPerClass", s.TestPerClass},
		{"Hidden1", s.Hidden1}, {"Hidden2", s.Hidden2},
		{"Population", s.Population}, {"SamplePerRound", s.SamplePerRound},
	} {
		if n.v < 0 {
			return fmt.Errorf("hierfair: Spec.%s = %d is negative (0 selects the default)", n.knob, n.v)
		}
	}
	if !(s.PCap >= 0) {
		return fmt.Errorf("hierfair: Spec.PCap = %g must be >= 0 (0 leaves P the plain simplex)", s.PCap)
	}
	if s.Dataset == "" {
		s.Dataset = DatasetEMNIST
	}
	if s.Partition == "" {
		s.Partition = PartitionOneClassPerArea
	}
	if s.Model == "" {
		s.Model = ModelLogReg
	}
	if s.NumEdges == 0 {
		s.NumEdges = 10
	}
	if s.ClientsPerEdge == 0 {
		s.ClientsPerEdge = 3
	}
	if s.TrainPerClass == 0 {
		s.TrainPerClass = 400
	}
	if s.TestPerClass == 0 {
		s.TestPerClass = 100
	}
	if s.Hidden1 == 0 {
		s.Hidden1 = 300
	}
	if s.Hidden2 == 0 {
		s.Hidden2 = 100
	}
	if s.Similarity == 0 {
		s.Similarity = 0.5
	}
	if s.DirichletAlpha == 0 {
		s.DirichletAlpha = 0.5
	}
	return nil
}

// buildFederation materializes the Spec's data layout.
func (s *Spec) buildFederation() (*data.Federation, error) {
	switch s.Dataset {
	case DatasetCustom:
		return s.buildCustom()
	case DatasetAdult:
		cfg := data.DefaultAdult()
		if s.TrainPerClass > 0 {
			cfg.TrainPerArea = s.TrainPerClass
		}
		if s.TestPerClass > 0 {
			cfg.TestPerArea = s.TestPerClass
		}
		return data.GenerateAdultShared(cfg, s.ClientsPerEdge, s.Seed+101), nil
	case DatasetSynthetic:
		cfg := data.DefaultLiSynthetic()
		if s.NumEdges > 0 {
			cfg.NumDevices = s.NumEdges
		}
		return data.GenerateLiSyntheticShared(cfg, s.ClientsPerEdge, s.Seed+102), nil
	}
	var profile data.ImageProfile
	switch s.Dataset {
	case DatasetEMNIST:
		profile = data.EMNISTDigitsLike()
	case DatasetMNIST:
		profile = data.MNISTLike()
	case DatasetFashion:
		profile = data.FashionMNISTLike()
	default:
		return nil, fmt.Errorf("hierfair: unknown dataset %q", s.Dataset)
	}
	if s.InputDim > 0 {
		profile.Dim = s.InputDim
	}
	// The shared content-keyed cache (internal/data) makes repeated
	// builds of the same workload — multi-role wire processes, benchmark
	// fan-outs, population runs re-materializing corpora — reuse one
	// generated corpus instead of regenerating per caller; generation
	// parameters key the cache, so distinct specs never collide, and the
	// cache's mutation guard panics if a caller writes into shared rows.
	train, test := profile.GenerateShared(s.TrainPerClass, s.TestPerClass, s.Seed+100)
	switch s.Partition {
	case PartitionOneClassPerArea:
		if s.NumEdges != profile.Classes {
			return nil, fmt.Errorf("hierfair: one-class partition needs NumEdges == %d classes, got %d", profile.Classes, s.NumEdges)
		}
		return data.OneClassPerArea(train, test, s.ClientsPerEdge, s.Seed+103), nil
	case PartitionSimilarity:
		return data.Similarity(train, test, s.NumEdges, s.ClientsPerEdge, s.Similarity, s.TestPerClass*2, s.Seed+104), nil
	case PartitionDirichlet:
		return data.Dirichlet(train, test, s.NumEdges, s.ClientsPerEdge, s.DirichletAlpha, s.TestPerClass*2, s.Seed+105), nil
	}
	return nil, fmt.Errorf("hierfair: unknown partition %q", s.Partition)
}

// buildCustom wraps user-provided areas into a federation.
func (s *Spec) buildCustom() (*data.Federation, error) {
	if len(s.Custom) == 0 {
		return nil, fmt.Errorf("hierfair: DatasetCustom needs Spec.Custom areas")
	}
	if s.NumClasses < 2 {
		return nil, fmt.Errorf("hierfair: DatasetCustom needs Spec.NumClasses >= 2")
	}
	if len(s.Custom[0].TrainX) == 0 {
		return nil, fmt.Errorf("hierfair: custom area 0 has no training data")
	}
	dim := len(s.Custom[0].TrainX[0])
	fed := &data.Federation{Name: "custom", NumClasses: s.NumClasses, InputDim: dim}
	for _, a := range s.Custom {
		var train, test data.Subset
		for i := range a.TrainX {
			train.Append(a.TrainX[i], a.TrainY[i])
		}
		for i := range a.TestX {
			test.Append(a.TestX[i], a.TestY[i])
		}
		clients := s.ClientsPerEdge
		if clients > train.Len() {
			clients = train.Len()
		}
		fed.Areas = append(fed.Areas, data.AreaData{
			Clients: splitClients(train, clients),
			Train:   train,
			Test:    test,
		})
	}
	// Equalize client counts (the substrate assumes |N_e| = N0).
	n0 := len(fed.Areas[0].Clients)
	for _, a := range fed.Areas[1:] {
		if len(a.Clients) != n0 {
			return nil, fmt.Errorf("hierfair: custom areas must admit equal client counts (area sizes too uneven)")
		}
	}
	return fed, fed.Validate()
}

// splitClients deals a subset round-robin into n shards.
func splitClients(s data.Subset, n int) []data.Subset {
	shards := make([]data.Subset, n)
	for i := range s.Xs {
		shards[i%n].Append(s.Xs[i], s.Ys[i])
	}
	return shards
}

// buildProblem assembles the internal problem and config.
func (s *Spec) buildProblem() (*fl.Problem, fl.Config, error) {
	fed, err := s.buildFederation()
	if err != nil {
		return nil, fl.Config{}, err
	}
	var m model.Model
	switch s.Model {
	case ModelLogReg:
		m = model.NewLinear(fed.InputDim, fed.NumClasses)
	case ModelMLP:
		m = model.NewMLP(fed.InputDim, s.Hidden1, s.Hidden2, fed.NumClasses)
	default:
		return nil, fl.Config{}, fmt.Errorf("hierfair: unknown model %q", s.Model)
	}
	prob := fl.NewProblem(fed, m)
	if s.PCap > 0 {
		capped := simplex.CappedSimplex{Dim: fed.NumAreas(), Cap: s.PCap}
		if !capped.Feasible() {
			return nil, fl.Config{}, fmt.Errorf("hierfair: Spec.PCap = %g leaves P empty for %d edge areas (it needs PCap >= 1/%d)",
				s.PCap, capped.Dim, capped.Dim)
		}
		prob.P = capped
	}
	cfg := fl.Config{
		Compression:    quant.Config{Bits: s.QuantBits, TopK: s.TopK, ErrorFeedback: s.TopK > 0},
		Rounds:         s.Rounds,
		Tau1:           s.Tau1,
		Tau2:           s.Tau2,
		EtaW:           s.EtaW,
		EtaP:           s.EtaP,
		BatchSize:      s.BatchSize,
		LossBatch:      s.LossBatch,
		SampledEdges:   s.SampledEdges,
		Seed:           s.Seed,
		EvalEvery:      s.EvalEvery,
		DropoutProb:    s.DropoutProb,
		TrackAverages:  s.TrackAverages,
		CheckpointOff:  s.CheckpointOff,
		Population:     s.Population,
		SamplePerRound: s.SamplePerRound,
	}
	return prob, cfg, nil
}
