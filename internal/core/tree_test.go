package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/fl"
	"repro/internal/fl/fltest"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/topology"
)

// An explicit [N0, N_E] / [tau1, tau2] tree is HierMinimax: same weights,
// edge weights, averaged iterates and ledger in every regime the
// three-layer network composes with.
func TestThreeLayerTreeMatchesHierMinimax(t *testing.T) {
	legs := []struct {
		name string
		mut  func(*fl.Config)
	}{
		{"plain", func(*fl.Config) {}},
		{"checkpoint-off", func(c *fl.Config) { c.CheckpointOff = true }},
		{"dropout", func(c *fl.Config) { c.DropoutProb = 0.3 }},
		{"quant8", func(c *fl.Config) { c.Compression = quant.Config{Bits: 8} }},
		{"topk-ef", func(c *fl.Config) { c.Compression = quant.Config{TopK: 8, ErrorFeedback: true} }},
		{"track-averages", func(c *fl.Config) { c.TrackAverages = true }},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			cfg := fltest.ToyConfig()
			cfg.Rounds = 50
			leg.mut(&cfg)
			if cfg.Compression.Enabled() && tensor.StorageF32() {
				t.Skip("the float32 storage tier refuses compression")
			}
			ref, err := HierMinimax(fltest.ToyProblem(1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			tree := Tree{Branching: []int{2, 4}, Taus: []int{cfg.Tau1, cfg.Tau2}}
			gen, err := HierMinimaxTree(fltest.ToyProblem(1), cfg, tree)
			if err != nil {
				t.Fatal(err)
			}
			if gen.Algorithm != "HierMinimax/3-layer" {
				t.Fatalf("algorithm name %q", gen.Algorithm)
			}
			for _, v := range []struct {
				name      string
				ref, tree []float64
			}{{"w", ref.W, gen.W}, {"p", ref.PWeights, gen.PWeights}, {"wHat", ref.WHat, gen.WHat}, {"pHat", ref.PHat, gen.PHat}} {
				if !slices.Equal(v.ref, v.tree) {
					t.Fatalf("%s diverges:\ncore: %v\ntree: %v", v.name, v.ref, v.tree)
				}
			}
			if ref.Ledger != gen.Ledger {
				t.Fatalf("ledgers differ:\ncore: %+v\ntree: %+v", ref.Ledger, gen.Ledger)
			}
		})
	}
}

func TestFourLayerLearns(t *testing.T) {
	// 4 areas x (2 mid-tier nodes x 2 clients) = 4 clients per area.
	prob := fltest.ToyProblemClients(1, 4)
	res, err := HierMinimaxTree(prob, fltest.ToyConfig(), Tree{Branching: []int{2, 2, 4}, Taus: []int{2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "HierMinimax/4-layer" {
		t.Fatalf("algorithm name %q", res.Algorithm)
	}
	if final := res.History.Final().Fair; final.Average < 0.75 {
		t.Fatalf("4-layer run reached only %v", final.Average)
	}
	if !fltest.AllFinite(res.W) {
		t.Fatal("non-finite parameters")
	}
	// The mid-tier boundary must carry traffic; client-edge and
	// edge-cloud too.
	if res.Ledger.Rounds[topology.MidTier] == 0 {
		t.Fatal("4-layer run recorded no mid-tier rounds")
	}
	if res.Ledger.Rounds[topology.ClientEdge] == 0 || res.Ledger.Rounds[topology.EdgeCloud] == 0 {
		t.Fatal("missing boundary traffic")
	}
}

func TestFiveLayerLearns(t *testing.T) {
	// 4 areas x (2 x 2 x 2) = 8 clients per area, 5 layers.
	prob := fltest.ToyProblemClients(1, 8)
	cfg := fltest.ToyConfig()
	cfg.Rounds = 60 // 8 slots per round: same total slots as the toy config
	res, err := HierMinimaxTree(prob, cfg, Tree{Branching: []int{2, 2, 2, 4}, Taus: []int{1, 2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if final := res.History.Final().Fair; final.Average < 0.7 {
		t.Fatalf("5-layer run reached only %v", final.Average)
	}
}

func TestDeeperTreeSavesRootCommunication(t *testing.T) {
	// Same total SGD slots: the 4-layer tree with one more aggregation
	// level does fewer rounds, so the root (edge-cloud) link carries
	// fewer synchronization passes — the Theorem-1 trade-off extended
	// by depth.
	cfg := fltest.ToyConfig()
	cfg.Rounds = 64 // 3-layer: 64 rounds x 4 slots = 256 slots
	three, err := HierMinimaxTree(fltest.ToyProblemClients(1, 4), cfg, Tree{Branching: []int{4, 4}, Taus: []int{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Rounds = 32 // 4-layer: 32 rounds x 8 slots = 256 slots
	four, err := HierMinimaxTree(fltest.ToyProblemClients(1, 4), cfg, Tree{Branching: []int{2, 2, 4}, Taus: []int{2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if four.Ledger.Rounds[topology.EdgeCloud] >= three.Ledger.Rounds[topology.EdgeCloud] {
		t.Fatalf("deeper tree did not save root rounds: %d vs %d",
			four.Ledger.Rounds[topology.EdgeCloud], three.Ledger.Rounds[topology.EdgeCloud])
	}
	// Both runs still learn.
	if three.History.Final().Fair.Average < 0.7 || four.History.Final().Fair.Average < 0.7 {
		t.Fatal("a run failed to learn")
	}
}

func TestTreeHelpers(t *testing.T) {
	tr := Tree{Branching: []int{2, 3, 5}, Taus: []int{2, 3, 4}}
	if tr.Layers() != 4 {
		t.Fatalf("Layers = %d", tr.Layers())
	}
	if prod(tr.Taus) != 24 || prod(tr.Branching[:2]) != 6 || prod(nil) != 1 {
		t.Fatal("prod wrong")
	}
}

func TestTreeValidation(t *testing.T) {
	prob := fltest.ToyProblem(1)
	cfg := fltest.ToyConfig()
	bad := []Tree{
		{Taus: []int{2, 2}},                               // no branching
		{Branching: []int{2, 4}, Taus: []int{2}},          // len mismatch
		{Branching: []int{0, 4}, Taus: []int{2, 2}},       // zero branch
		{Branching: []int{2, 4}, Taus: []int{2, 0}},       // zero tau
		{Branching: []int{2, 5}, Taus: []int{2, 2}},       // wrong areas
		{Branching: []int{3, 4}, Taus: []int{2, 2}},       // wrong leaves
		{Branching: []int{1, 2, 4}, Taus: []int{2, 2, 0}}, // zero tau, deeper
	}
	for i, tr := range bad {
		if _, err := HierMinimaxTree(prob, cfg, tr); err == nil {
			t.Fatalf("case %d: invalid tree accepted", i)
		}
	}

	// Refusals, asserted by their text: a deeper tree has no priced form
	// for compressed or iterate-sum mid-tier uplinks, and no explicit tree
	// takes a roster cohort.
	four := Tree{Branching: []int{1, 2, 4}, Taus: []int{2, 2, 2}}
	refusals := []struct {
		name string
		mut  func(*fl.Config)
		tree Tree
		want string
	}{
		{"quant8", func(c *fl.Config) { c.Compression = quant.Config{Bits: 8} }, four, "uplink compression needs a three-layer tree"},
		{"topk", func(c *fl.Config) { c.Compression = quant.Config{TopK: 4} }, four, "uplink compression needs a three-layer tree"},
		{"averages", func(c *fl.Config) { c.TrackAverages = true }, four, "TrackAverages needs a three-layer tree"},
		{"population", func(c *fl.Config) { c.Population, c.SamplePerRound = 400, 6 },
			Tree{Branching: []int{2, 4}, Taus: []int{2, 2}}, "Population does not compose with an explicit multi-layer tree"},
	}
	for _, r := range refusals {
		c := cfg
		r.mut(&c)
		if _, err := HierMinimaxTree(prob, c, r.tree); err == nil || !strings.Contains(err.Error(), r.want) {
			t.Errorf("%s: got error %v, want %q", r.name, err, r.want)
		}
	}
}
