package hierfair

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/fl"
	"repro/internal/simnet"
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
// cohort position, so HierMinimax runs the spec on every kernel class,
// and every baseline refuses it by name, since none compresses its
// uplinks.
func TestPopulationTopKRunsAllAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{AlgHierMinimax, AlgHierFAvg, AlgFedAvg, AlgAFL, AlgDRFA} {
		spec := popSpec(alg)
		spec.TopK = 4
		_, err := Run(spec)
		if alg != AlgHierMinimax {
			if err == nil || !strings.Contains(err.Error(), "does not implement uplink compression") {
				t.Fatalf("%s: population x top-k: got error %v, want a refusal", alg, err)
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

// TestPopulationRunsOnDistributedRoles: the roles run a sparse
// population as the simnet engine does — each edge runtime trains its
// roster cohorts, the client hosts idle — so the roles planned from a
// population Spec, run over loopback TCP, report the simnet run's model,
// weights, traffic and fault counters.
func TestPopulationRunsOnDistributedRoles(t *testing.T) {
	spec := popSpec(AlgHierMinimax)
	spec.Rounds, spec.EvalEvery = 12, 6
	spec.Chaos = Chaos{CrashProb: 0.2}
	spec.Engine = EngineSimNet
	want, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	roles := spec
	prob, cfg, opts, err := roles.plan(true)
	if err != nil {
		t.Fatal(err)
	}
	// Every runtime plans the same Spec, which just planned without error.
	newProblem := func() *fl.Problem {
		s := spec
		p, _, _, _ := s.plan(true)
		return p
	}
	res, stats, err := simnet.RunWireLoopback(newProblem, cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	got := newReport(prob, res, stats)
	if !slices.Equal(want.Parameters(), got.Parameters()) || !slices.Equal(want.EdgeWeights, got.EdgeWeights) {
		t.Fatal("the distributed roles diverge from the simnet engine on a sparse population")
	}
	if want.TotalBytes != got.TotalBytes || want.MessagesSent != got.MessagesSent || want.Crashes != got.Crashes || want.Crashes == 0 {
		t.Fatalf("reports differ: simnet %d bytes, %d messages, %d crashes; roles %d, %d, %d",
			want.TotalBytes, want.MessagesSent, want.Crashes, got.TotalBytes, got.MessagesSent, got.Crashes)
	}
}
