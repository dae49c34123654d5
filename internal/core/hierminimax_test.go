package core

import (
	"math"
	"testing"

	"repro/internal/fl"
	"repro/internal/fl/fltest"
	"repro/internal/quant"
	"repro/internal/simplex"
	"repro/internal/tensor"
	"repro/internal/topology"
)

func TestHierMinimaxLearns(t *testing.T) {
	prob := fltest.ToyProblem(1)
	cfg := fltest.ToyConfig()
	res, err := HierMinimax(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := res.History.Snapshots[0].Fair
	final := res.History.Final().Fair
	if final.Average < 0.75 {
		t.Fatalf("average accuracy %v after training (start %v)", final.Average, first.Average)
	}
	if final.Worst <= first.Worst {
		t.Fatalf("worst accuracy did not improve: %v -> %v", first.Worst, final.Worst)
	}
	if !fltest.AllFinite(res.W) {
		t.Fatal("non-finite parameters")
	}
}

func TestSequentialParallelIdentical(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 30

	var a *fl.Result
	var err error
	fltest.WithProcs(1, func() { a, err = HierMinimax(fltest.ToyProblem(1), cfg) })
	if err != nil {
		t.Fatal(err)
	}
	b, err := HierMinimax(fltest.ToyProblem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.W {
		if a.W[i] != b.W[i] {
			t.Fatalf("w diverges at %d: %v vs %v", i, a.W[i], b.W[i])
		}
	}
	for i := range a.PWeights {
		if a.PWeights[i] != b.PWeights[i] {
			t.Fatalf("p diverges at %d", i)
		}
	}
	if a.Ledger.CloudRounds() != b.Ledger.CloudRounds() {
		t.Fatal("ledgers diverge")
	}
}

func TestRunDeterministicAcrossRuns(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 25
	a, _ := HierMinimax(fltest.ToyProblem(1), cfg)
	b, _ := HierMinimax(fltest.ToyProblem(1), cfg)
	for i := range a.W {
		if a.W[i] != b.W[i] {
			t.Fatal("same seed, different result")
		}
	}
	cfg.Seed++
	c, _ := HierMinimax(fltest.ToyProblem(1), cfg)
	same := true
	for i := range a.W {
		if a.W[i] != c.W[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestPWeightsTrackHardArea(t *testing.T) {
	// Area 3 is strictly hardest in the toy profile; after training, p
	// must overweight it relative to uniform.
	prob := fltest.ToyProblem(1)
	cfg := fltest.ToyConfig()
	cfg.Rounds = 300
	res, err := HierMinimax(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := res.PWeights
	if p[3] <= 0.25 {
		t.Fatalf("hard area not overweighted: p = %v", p)
	}
	// p stays a distribution.
	if math.Abs(tensor.Sum(p)-1) > 1e-9 {
		t.Fatalf("p sums to %v", tensor.Sum(p))
	}
	for _, v := range p {
		if v < -1e-12 {
			t.Fatalf("negative weight in %v", p)
		}
	}
}

func TestCommunicationAccounting(t *testing.T) {
	prob := fltest.ToyProblem(1)
	cfg := fltest.ToyConfig()
	cfg.Rounds = 10
	res, err := HierMinimax(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Per round: Phase 1 broadcast + upload, Phase 2 broadcast + upload
	// = 4 edge-cloud rounds.
	if got := res.Ledger.Rounds[topology.EdgeCloud]; got != 4*10 {
		t.Fatalf("edge-cloud rounds = %d, want 40", got)
	}
	if res.Ledger.Rounds[topology.ClientCloud] != 0 {
		t.Fatal("three-layer method used client-cloud link")
	}
	// Client-edge rounds: Phase 1: m_E slots * tau2 blocks * 2 + Phase 2:
	// m_E edges * 2.
	wantCE := int64(10 * (cfg.SampledEdges*cfg.Tau2*2 + cfg.SampledEdges*2))
	if got := res.Ledger.Rounds[topology.ClientEdge]; got != wantCE {
		t.Fatalf("client-edge rounds = %d, want %d", got, wantCE)
	}
	// Bytes: the model has 44 params = 352 bytes. Phase-1 broadcast
	// moves m_E messages per round.
	if res.Ledger.Bytes[topology.EdgeCloud] <= 0 {
		t.Fatal("no edge-cloud bytes recorded")
	}
}

func TestTrackAveragesProducesFeasibleIterates(t *testing.T) {
	prob := fltest.ToyProblem(1)
	cfg := fltest.ToyConfig()
	cfg.Rounds = 40
	cfg.TrackAverages = true
	res, err := HierMinimax(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WHat == nil || res.PHat == nil {
		t.Fatal("averaged iterates missing")
	}
	if math.Abs(tensor.Sum(res.PHat)-1) > 1e-9 || tensor.Min(res.PHat) < -1e-9 {
		t.Fatalf("PHat infeasible: %v", res.PHat)
	}
	if !fltest.AllFinite(res.WHat) {
		t.Fatal("WHat not finite")
	}
	// wHat is an average of iterates near the trajectory; its norm must
	// be comparable to the final iterate's, not wildly off.
	if tensor.Norm2(res.WHat) > 10*tensor.Norm2(res.W)+1 {
		t.Fatalf("WHat norm %v vs W norm %v", tensor.Norm2(res.WHat), tensor.Norm2(res.W))
	}
}

func TestDropoutKeepsTrainingAlive(t *testing.T) {
	prob := fltest.ToyProblem(1)
	cfg := fltest.ToyConfig()
	cfg.DropoutProb = 0.3
	cfg.Rounds = 150
	res, err := HierMinimax(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if final := res.History.Final().Fair; final.Average < 0.6 {
		t.Fatalf("training under 30%% dropout reached only %v average accuracy", final.Average)
	}
	if !fltest.AllFinite(res.W) {
		t.Fatal("non-finite parameters under dropout")
	}
}

func TestTotalDropoutRoundIsNoOp(t *testing.T) {
	// With DropoutProb extremely high, most rounds drop everything; the
	// run must stay finite and p must remain a distribution.
	prob := fltest.ToyProblem(1)
	cfg := fltest.ToyConfig()
	cfg.DropoutProb = 0.99
	cfg.Rounds = 30
	res, err := HierMinimax(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !fltest.AllFinite(res.W) {
		t.Fatal("non-finite parameters")
	}
	if math.Abs(tensor.Sum(res.PWeights)-1) > 1e-9 {
		t.Fatalf("p corrupted: %v", res.PWeights)
	}
}

func TestQuantizedUplinksStillLearn(t *testing.T) {
	prob := fltest.ToyProblem(1)
	cfg := fltest.ToyConfig()
	cfg.Compression = quant.Config{Bits: 8}
	res, err := HierMinimax(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if final := res.History.Final().Fair; final.Average < 0.7 {
		t.Fatalf("8-bit quantized run reached only %v", final.Average)
	}
	// Quantized client uplinks must move fewer bytes than exact ones.
	exact, _ := HierMinimax(fltest.ToyProblem(1), fltest.ToyConfig())
	if res.Ledger.Bytes[topology.ClientEdge] >= exact.Ledger.Bytes[topology.ClientEdge] {
		t.Fatalf("quantized bytes %d not below exact %d",
			res.Ledger.Bytes[topology.ClientEdge], exact.Ledger.Bytes[topology.ClientEdge])
	}
}

func TestCheckpointOffAblationRuns(t *testing.T) {
	prob := fltest.ToyProblem(1)
	cfg := fltest.ToyConfig()
	cfg.CheckpointOff = true
	res, err := HierMinimax(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if final := res.History.Final().Fair; final.Average < 0.7 {
		t.Fatalf("checkpoint-off run reached only %v", final.Average)
	}
}

func TestCappedSimplexConstraint(t *testing.T) {
	// With P = {p : p_e <= 0.3}, no area's weight may exceed the cap.
	prob := fltest.ToyProblem(1)
	prob.P = simplex.CappedSimplex{Dim: 4, Cap: 0.3}
	cfg := fltest.ToyConfig()
	cfg.Rounds = 200
	res, err := HierMinimax(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e, v := range res.PWeights {
		if v > 0.3+1e-9 {
			t.Fatalf("area %d weight %v exceeds cap", e, v)
		}
	}
}

func TestNonConvexModelTrains(t *testing.T) {
	prob := fltest.ToyMLPProblem(1)
	cfg := fltest.ToyConfig()
	cfg.EtaW = 0.05
	cfg.Rounds = 200
	res, err := HierMinimax(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if final := res.History.Final().Fair; final.Average < 0.6 {
		t.Fatalf("MLP training reached only %v", final.Average)
	}
}

func TestTauOneOneRecoversAFLShape(t *testing.T) {
	// With tau1 = tau2 = 1 the checkpoint model coincides with w^(k+1)
	// by construction; the run must still learn (this is the
	// Stochastic-AFL special case discussed after Theorem 1).
	prob := fltest.ToyProblem(1)
	cfg := fltest.ToyConfig()
	cfg.Tau1, cfg.Tau2 = 1, 1
	cfg.Rounds = 300
	res, err := HierMinimax(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if final := res.History.Final().Fair; final.Average < 0.7 {
		t.Fatalf("tau=1 run reached only %v", final.Average)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	prob := fltest.ToyProblem(1)
	cfg := fltest.ToyConfig()
	cfg.Rounds = 0
	if _, err := HierMinimax(prob, cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

var _ = fl.Config{} // keep the fl import explicit for documentation
