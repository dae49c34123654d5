package hierfair

import (
	"strings"
	"testing"

	"repro/internal/tensor"
)

// popSpec is a seconds-fast sparse-population configuration: a hundred
// thousand registered clients per run, twenty of which materialize each
// round. The corpus is the usual smoke workload — population clients
// alias its rows through the roster's shard mapping.
func popSpec(alg Algorithm) Spec {
	s := smokeSpec(alg)
	s.Rounds = 60
	s.EvalEvery = 20
	s.Population = 100000
	s.SamplePerRound = 20
	return s
}

func TestPopulationSpecRunsAllAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{AlgHierMinimax, AlgHierFAvg, AlgFedAvg, AlgAFL, AlgDRFA} {
		rep, err := Run(popSpec(alg))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(rep.History) == 0 || rep.CloudRounds == 0 {
			t.Fatalf("%s: empty history or ledger", alg)
		}
		if rep.FinalAverage < 0.3 {
			t.Fatalf("%s: population run collapsed, average %v", alg, rep.FinalAverage)
		}
	}
}

// TestPopulationTopKRunsAllAlgorithms pins the composition of the roster
// regime with top-k error feedback: fl.Fold keeps one residual row per
// cohort position, so every algorithm accepts the spec (except on the
// float32 storage tier, which refuses compression of any kind).
func TestPopulationTopKRunsAllAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{AlgHierMinimax, AlgHierFAvg, AlgFedAvg, AlgAFL, AlgDRFA} {
		spec := popSpec(alg)
		spec.TopK = 4
		_, err := Run(spec)
		if tensor.StorageF32() {
			if err == nil || !strings.Contains(err.Error(), "compression is not supported") {
				t.Fatalf("%s: top-k on the float32 storage tier: got error %v, want a refusal", alg, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: population x top-k refused: %v", alg, err)
		}
	}
}

func TestPopulationSimnetMatchesInProcess(t *testing.T) {
	spec := popSpec(AlgHierMinimax)
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
	if b.MessagesSent == 0 {
		t.Fatal("simnet population run sent no fabric messages")
	}
}

func TestPopulationSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"sample-without-population", func(s *Spec) { s.Population = 0 }, "must be set together"},
		{"population-without-sample", func(s *Spec) { s.SamplePerRound = 0 }, "must be set together"},
		{"multilayer", func(s *Spec) { s.Branching = []int{2, 2}; s.Taus = []int{2, 2} }, "multi-layer"},
		{"oversample", func(s *Spec) { s.SamplePerRound = s.Population + 1 }, "SamplePerRound"},
	}
	for _, c := range cases {
		spec := popSpec(AlgHierMinimax)
		c.mut(&spec)
		_, err := Run(spec)
		if err == nil {
			t.Fatalf("%s: invalid spec accepted", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestPopulationRejectsDistributedRoles(t *testing.T) {
	spec := popSpec(AlgHierMinimax)
	if _, err := RunCloud(spec, DistConfig{Listen: "127.0.0.1:0"}); err == nil {
		t.Fatal("distributed cloud role accepted a population spec")
	}
}
