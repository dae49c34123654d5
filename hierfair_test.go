package hierfair

import (
	"math"
	"strings"
	"testing"
)

// smokeSpec is a seconds-fast configuration used across the API tests.
func smokeSpec(alg Algorithm) Spec {
	s := DefaultSpec(alg)
	s.InputDim = 48
	s.TrainPerClass = 400
	s.TestPerClass = 100
	s.Rounds = 500
	s.EtaW = 0.01
	s.EtaP = 0.001
	s.EvalEvery = 50
	// Seed 8's prototype geometry has a clearly hard hub class, so the
	// fairness separation between minimax and minimization is large and
	// stable (the deterministic instance the fairness assertions probe).
	s.Seed = 8
	return s
}

func TestRunAllAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{AlgHierMinimax, AlgHierFAvg, AlgFedAvg, AlgAFL, AlgDRFA} {
		rep, err := Run(smokeSpec(alg))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if rep.FinalAverage < 0.6 {
			t.Fatalf("%s: final average %v too low", alg, rep.FinalAverage)
		}
		if len(rep.History) == 0 || rep.CloudRounds == 0 {
			t.Fatalf("%s: empty history or ledger", alg)
		}
		if len(rep.EdgeWeights) != 10 {
			t.Fatalf("%s: edge weights %v", alg, rep.EdgeWeights)
		}
		if rep.Summary() == "" {
			t.Fatalf("%s: empty summary", alg)
		}
	}
}

func TestRunRequiresAlgorithm(t *testing.T) {
	if _, err := Run(Spec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestSimnetEngineMatchesInProcess(t *testing.T) {
	spec := smokeSpec(AlgHierMinimax)
	spec.Rounds = 60
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Engine = EngineSimNet
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Parameters(), b.Parameters()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("engines diverge at parameter %d", i)
		}
	}
	if b.SimulatedMs <= 0 || b.MessagesSent == 0 {
		t.Fatal("simnet stats missing")
	}
}

func TestChaosSpecInjectsFaults(t *testing.T) {
	spec := smokeSpec(AlgHierMinimax)
	spec.Engine = EngineSimNet
	spec.Rounds = 120
	spec.Chaos = Chaos{CrashProb: 0.15, LossProb: 0.05, MaxRetries: 1}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes == 0 || rep.MessagesLost == 0 || rep.Timeouts == 0 || rep.Retries == 0 {
		t.Fatalf("fault plan produced no fault activity: %+v", rep)
	}
	if rep.History[len(rep.History)-1].Round != spec.Rounds {
		t.Fatal("faulted run stopped early")
	}
	if rep.FinalAverage < 0.5 {
		t.Fatalf("faulted run collapsed: average %v", rep.FinalAverage)
	}
}

func TestChaosRequiresSimnetEngine(t *testing.T) {
	spec := smokeSpec(AlgHierMinimax)
	spec.Chaos = Chaos{CrashProb: 0.1}
	if _, err := Run(spec); err == nil {
		t.Fatal("in-process engine accepted a chaos plan")
	}
}

func TestSimnetRejectsBaselines(t *testing.T) {
	spec := smokeSpec(AlgDRFA)
	spec.Engine = EngineSimNet
	if _, err := Run(spec); err == nil {
		t.Fatal("simnet accepted a baseline algorithm")
	}
}

func TestPredictWorks(t *testing.T) {
	spec := smokeSpec(AlgHierMinimax)
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 48)
	cls := rep.Predict(x)
	if cls < 0 || cls >= 10 {
		t.Fatalf("Predict returned %d", cls)
	}
	// Parameters must be a copy.
	p := rep.Parameters()
	p[0] += 1e9
	if rep.Predict(x) != cls {
		t.Fatal("Parameters leaked internal state")
	}
}

func TestMinimaxFairnessViaPublicAPI(t *testing.T) {
	hmm, err := Run(smokeSpec(AlgHierMinimax))
	if err != nil {
		t.Fatal(err)
	}
	hfa, err := Run(smokeSpec(AlgHierFAvg))
	if err != nil {
		t.Fatal(err)
	}
	if hmm.FinalVariance >= hfa.FinalVariance {
		t.Fatalf("HierMinimax variance %v not below HierFAvg %v", hmm.FinalVariance, hfa.FinalVariance)
	}
	if hmm.FinalWorst <= hfa.FinalWorst {
		t.Fatalf("HierMinimax worst %v not above HierFAvg %v", hmm.FinalWorst, hfa.FinalWorst)
	}
	// HierFAvg never moves p.
	for _, v := range hfa.EdgeWeights {
		if math.Abs(v-0.1) > 1e-12 {
			t.Fatalf("HierFAvg p = %v", hfa.EdgeWeights)
		}
	}
	// HierMinimax overweights the hub class (area 4 under one-class).
	if hmm.EdgeWeights[4] <= 0.1 {
		t.Fatalf("HierMinimax did not overweight the hub: %v", hmm.EdgeWeights)
	}
}

func TestDatasets(t *testing.T) {
	cases := []Spec{
		func() Spec {
			s := smokeSpec(AlgHierMinimax)
			s.Dataset = DatasetFashion
			s.Partition = PartitionSimilarity
			s.Similarity = 0.5
			return s
		}(),
		func() Spec {
			s := smokeSpec(AlgHierMinimax)
			s.Dataset = DatasetMNIST
			s.Partition = PartitionDirichlet
			s.DirichletAlpha = 0.3
			s.NumEdges = 6
			s.SampledEdges = 3
			return s
		}(),
		func() Spec {
			s := smokeSpec(AlgHierMinimax)
			s.Dataset = DatasetAdult
			s.NumEdges = 2
			s.SampledEdges = 2
			s.TrainPerClass = 400
			s.TestPerClass = 150
			return s
		}(),
		func() Spec {
			s := smokeSpec(AlgHierMinimax)
			s.Dataset = DatasetSynthetic
			s.NumEdges = 12
			s.SampledEdges = 4
			return s
		}(),
	}
	for _, spec := range cases {
		rep, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Dataset, err)
		}
		if rep.FinalAverage <= 0.3 {
			t.Fatalf("%s: suspiciously low accuracy %v", spec.Dataset, rep.FinalAverage)
		}
	}
}

func TestCustomDataset(t *testing.T) {
	// Two trivially separable areas.
	mk := func(off float64) AreaSamples {
		var a AreaSamples
		for i := 0; i < 40; i++ {
			x := []float64{off + float64(i%5)*0.01, -off}
			y := 0
			if off > 0 {
				y = 1
			}
			a.TrainX = append(a.TrainX, x)
			a.TrainY = append(a.TrainY, y)
			a.TestX = append(a.TestX, x)
			a.TestY = append(a.TestY, y)
		}
		return a
	}
	spec := Spec{
		Algorithm:      AlgHierMinimax,
		Dataset:        DatasetCustom,
		Custom:         []AreaSamples{mk(-1), mk(1)},
		NumClasses:     2,
		NumEdges:       2,
		ClientsPerEdge: 2,
		SampledEdges:   2,
		Rounds:         200,
		Tau1:           2,
		Tau2:           2,
		EtaW:           0.1,
		EtaP:           0.001,
		BatchSize:      4,
		Seed:           3,
	}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalWorst < 0.95 {
		t.Fatalf("custom separable data not learned: worst %v", rep.FinalWorst)
	}
	if rep.Predict([]float64{1, -1}) != 1 || rep.Predict([]float64{-1, 1}) != 0 {
		t.Fatal("Predict wrong on custom data")
	}
}

func TestCustomDatasetValidation(t *testing.T) {
	spec := Spec{Algorithm: AlgHierMinimax, Dataset: DatasetCustom, Rounds: 1, EtaW: 0.1}
	if _, err := Run(spec); err == nil {
		t.Fatal("custom dataset without areas accepted")
	}
	spec.Custom = []AreaSamples{{TrainX: [][]float64{{1}}, TrainY: []int{0}}}
	if _, err := Run(spec); err == nil {
		t.Fatal("custom dataset without NumClasses accepted")
	}
}

func TestQuantizedSpec(t *testing.T) {
	spec := smokeSpec(AlgHierMinimax)
	spec.QuantBits = 8
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Run(smokeSpec(AlgHierMinimax))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalBytes >= exact.TotalBytes {
		t.Fatalf("quantized run moved %d bytes >= exact %d", rep.TotalBytes, exact.TotalBytes)
	}
	if rep.FinalAverage < 0.6 {
		t.Fatalf("quantized run accuracy %v", rep.FinalAverage)
	}
}

// TestBaselinesRefuseUnimplementedRegimes: a baseline handed a regime it
// does not implement must fail by name rather than run the dense, fully
// participating trajectory, while HierMinimax runs the same Spec.
func TestBaselinesRefuseUnimplementedRegimes(t *testing.T) {
	knobs := []struct {
		name, refusal string
		set           func(*Spec)
	}{
		{"QuantBits=8", "does not implement uplink compression", func(s *Spec) { s.QuantBits = 8 }},
		{"TopK=10", "does not implement uplink compression", func(s *Spec) { s.TopK = 10 }},
		{"DropoutProb=0.5", "does not implement slot dropout", func(s *Spec) { s.DropoutProb = 0.5 }},
	}
	for _, k := range knobs {
		for _, alg := range []Algorithm{AlgHierMinimax, AlgHierFAvg, AlgFedAvg, AlgAFL, AlgDRFA} {
			spec := smokeSpec(alg)
			spec.Rounds = 20
			k.set(&spec)
			_, err := Run(spec)
			switch {
			case alg != AlgHierMinimax:
				if err == nil || !strings.Contains(err.Error(), k.refusal) {
					t.Errorf("%s with %s: got error %v, want %q", alg, k.name, err, k.refusal)
				}
			case err != nil:
				t.Errorf("HierMinimax with %s: %v", k.name, err)
			}
		}
	}
}

func TestCappedPSpec(t *testing.T) {
	spec := smokeSpec(AlgHierMinimax)
	spec.PCap = 0.2
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for e, v := range rep.EdgeWeights {
		if v > 0.2+1e-9 {
			t.Fatalf("weight %d = %v exceeds cap", e, v)
		}
	}
}

// TestHalfValidSpecRefusedByName: a knob out of its range ends in an
// error naming it, from Run and from the wire roles' plan alike, never
// in a panic or a silent default.
func TestHalfValidSpecRefusedByName(t *testing.T) {
	for _, c := range []struct {
		knob string
		set  func(*Spec)
	}{
		{"PCap", func(s *Spec) { s.PCap = -1 }},
		{"PCap", func(s *Spec) { s.PCap = math.NaN() }},
		{"PCap", func(s *Spec) { s.PCap = 0.0999 }}, // 10 areas need a cap of at least 0.1
		{"NumEdges", func(s *Spec) { s.NumEdges = -1 }},
		{"ClientsPerEdge", func(s *Spec) { s.ClientsPerEdge = -1 }},
		{"InputDim", func(s *Spec) { s.InputDim = -1 }},
		{"TrainPerClass", func(s *Spec) { s.TrainPerClass = -1 }},
		{"TestPerClass", func(s *Spec) { s.TestPerClass = -1 }},
		{"Hidden1", func(s *Spec) { s.Model, s.Hidden1 = ModelMLP, -1 }},
		{"Hidden2", func(s *Spec) { s.Model, s.Hidden2 = ModelMLP, -1 }},
		{"Population", func(s *Spec) { s.Population = -1 }},
		{"Population", func(s *Spec) { s.Population, s.SamplePerRound = -1000, 4 }},
		{"SamplePerRound", func(s *Spec) { s.SamplePerRound = -4 }},
		{"SamplePerRound", func(s *Spec) { s.Population, s.SamplePerRound = 1000, -4 }},
		{"Population", func(s *Spec) { s.Population, s.SamplePerRound = -1, -4 }},
	} {
		spec := smokeSpec(AlgHierMinimax)
		c.set(&spec)
		_, runErr := Run(spec)
		_, _, _, planErr := spec.plan(true)
		for _, err := range []error{runErr, planErr} {
			if err == nil || !strings.Contains(err.Error(), "Spec."+c.knob) {
				t.Errorf("Spec.%s out of range: got %v, want an error naming it", c.knob, err)
			}
		}
	}
}

func TestOneClassPartitionRequiresMatchingEdges(t *testing.T) {
	spec := smokeSpec(AlgHierMinimax)
	spec.NumEdges = 7
	if _, err := Run(spec); err == nil {
		t.Fatal("one-class partition with 7 edges over 10 classes accepted")
	}
}

func TestHistoryMonotoneCloudRounds(t *testing.T) {
	rep, err := Run(smokeSpec(AlgHierMinimax))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rep.History); i++ {
		if rep.History[i].CloudRounds < rep.History[i-1].CloudRounds {
			t.Fatal("cloud rounds not monotone")
		}
		if rep.History[i].Round <= rep.History[i-1].Round {
			t.Fatal("rounds not increasing")
		}
	}
	if math.Abs(sum(rep.History[len(rep.History)-1].EdgeWeights)-1) > 1e-9 {
		t.Fatal("final p not a distribution")
	}
}

func sum(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

func TestMultiLayerSpec(t *testing.T) {
	spec := smokeSpec(AlgHierMinimax)
	spec.ClientsPerEdge = 4
	spec.Branching = []int{2, 2, 10}
	spec.Taus = []int{2, 2, 2}
	spec.Rounds = 250 // 8 slots per round
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != "HierMinimax/4-layer" {
		t.Fatalf("algorithm = %q", rep.Algorithm)
	}
	if rep.FinalAverage < 0.6 {
		t.Fatalf("4-layer run reached only %v", rep.FinalAverage)
	}
}

func TestMultiLayerSpecRejectsBaselines(t *testing.T) {
	spec := smokeSpec(AlgDRFA)
	spec.Branching = []int{3, 10}
	spec.Taus = []int{2, 2}
	if _, err := Run(spec); err == nil {
		t.Fatal("multi-layer baseline accepted")
	}
	spec = smokeSpec(AlgHierMinimax)
	spec.Branching = []int{3, 10}
	spec.Taus = []int{2, 2}
	spec.Engine = EngineSimNet
	if _, err := Run(spec); err == nil {
		t.Fatal("multi-layer simnet accepted")
	}
}

func TestMultiLayerSpecValidatesTree(t *testing.T) {
	spec := smokeSpec(AlgHierMinimax)
	spec.Branching = []int{5, 10} // ClientsPerEdge is 3, tree wants 5
	spec.Taus = []int{2, 2}
	if _, err := Run(spec); err == nil {
		t.Fatal("mismatched tree accepted")
	}
}
