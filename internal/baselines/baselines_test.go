package baselines

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/fl/fltest"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/topology"
)

// twoLayerConfig adapts the toy config to a two-layer method.
func twoLayerConfig(tau1 int) fl.Config {
	cfg := fltest.ToyConfig()
	cfg.Tau1 = tau1
	cfg.Tau2 = 1
	cfg.Rounds = 240 // keep total slots comparable with the toy config
	return cfg
}

func TestFedAvgLearns(t *testing.T) {
	res, err := FedAvg(fltest.ToyProblem(1), twoLayerConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if final := res.History.Final().Fair; final.Average < 0.75 {
		t.Fatalf("FedAvg reached only %v", final.Average)
	}
	// FedAvg never updates p.
	for _, v := range res.PWeights {
		if v != 0.25 {
			t.Fatalf("FedAvg moved p: %v", res.PWeights)
		}
	}
	// Two-layer: only client-cloud traffic.
	if res.Ledger.Rounds[topology.EdgeCloud] != 0 || res.Ledger.Rounds[topology.ClientEdge] != 0 {
		t.Fatal("FedAvg used three-layer links")
	}
	if res.Ledger.Rounds[topology.ClientCloud] != int64(2*240) {
		t.Fatalf("FedAvg client-cloud rounds = %d", res.Ledger.Rounds[topology.ClientCloud])
	}
}

func TestFedAvgRejectsTau2(t *testing.T) {
	cfg := twoLayerConfig(2)
	cfg.Tau2 = 2
	if _, err := FedAvg(fltest.ToyProblem(1), cfg); err == nil {
		t.Fatal("FedAvg accepted Tau2 > 1")
	}
}

func TestStochasticAFLLearnsAndMovesP(t *testing.T) {
	res, err := StochasticAFL(fltest.ToyProblem(1), twoLayerConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if final := res.History.Final().Fair; final.Average < 0.7 {
		t.Fatalf("AFL reached only %v", final.Average)
	}
	moved := false
	for _, v := range res.PWeights {
		if math.Abs(v-0.25) > 1e-6 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("AFL never moved p")
	}
	if math.Abs(tensor.Sum(res.PWeights)-1) > 1e-9 {
		t.Fatalf("p not a distribution: %v", res.PWeights)
	}
}

func TestStochasticAFLRejectsMultiStep(t *testing.T) {
	if _, err := StochasticAFL(fltest.ToyProblem(1), twoLayerConfig(2)); err == nil {
		t.Fatal("AFL accepted Tau1 > 1")
	}
	cfg := twoLayerConfig(1)
	cfg.Tau2 = 3
	if _, err := StochasticAFL(fltest.ToyProblem(1), cfg); err == nil {
		t.Fatal("AFL accepted Tau2 > 1")
	}
}

func TestDRFALearnsAndMovesP(t *testing.T) {
	res, err := DRFA(fltest.ToyProblem(1), twoLayerConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if final := res.History.Final().Fair; final.Average < 0.7 {
		t.Fatalf("DRFA reached only %v", final.Average)
	}
	if res.PWeights[3] <= 0.25 {
		t.Fatalf("DRFA did not overweight the hard area: %v", res.PWeights)
	}
}

func TestHierFAvgLearnsKeepsPUniform(t *testing.T) {
	res, err := HierFAvg(fltest.ToyProblem(1), fltest.ToyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if final := res.History.Final().Fair; final.Average < 0.75 {
		t.Fatalf("HierFAvg reached only %v", final.Average)
	}
	for _, v := range res.PWeights {
		if v != 0.25 {
			t.Fatalf("HierFAvg moved p: %v", res.PWeights)
		}
	}
	// Three-layer: edge-cloud and client-edge traffic, no client-cloud.
	if res.Ledger.Rounds[topology.ClientCloud] != 0 {
		t.Fatal("HierFAvg used the client-cloud link")
	}
	if res.Ledger.Rounds[topology.EdgeCloud] != int64(2*fltest.ToyConfig().Rounds) {
		t.Fatalf("HierFAvg edge-cloud rounds = %d", res.Ledger.Rounds[topology.EdgeCloud])
	}
}

func TestMinimaxBeatsMinimizationOnWorstArea(t *testing.T) {
	// The central §6 claim, in miniature: at equal training rounds, the
	// minimax methods achieve higher worst-area accuracy than their
	// minimization counterparts, and HierMinimax beats HierFAvg on
	// variance as well.
	cfg := fltest.ToyConfig()
	cfg.Rounds = 300
	hfa, err := HierFAvg(fltest.ToyProblem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	hmm, err := core.HierMinimax(fltest.ToyProblem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fFair := hfa.History.Final().Fair
	mFair := hmm.History.Final().Fair
	if mFair.Worst <= fFair.Worst {
		t.Fatalf("HierMinimax worst %v not above HierFAvg worst %v", mFair.Worst, fFair.Worst)
	}
	if mFair.Variance >= fFair.Variance {
		t.Fatalf("HierMinimax variance %v not below HierFAvg %v", mFair.Variance, fFair.Variance)
	}
}

func TestBaselinesDeterministic(t *testing.T) {
	type runner func(*fl.Problem, fl.Config) (*fl.Result, error)
	cases := []struct {
		name string
		run  runner
		cfg  fl.Config
	}{
		{"FedAvg", FedAvg, shortened(twoLayerConfig(2))},
		{"AFL", StochasticAFL, shortened(twoLayerConfig(1))},
		{"DRFA", DRFA, shortened(twoLayerConfig(2))},
		{"HierFAvg", HierFAvg, shortened(fltest.ToyConfig())},
	}
	for _, c := range cases {
		a, err := c.run(fltest.ToyProblem(1), c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b, err := c.run(fltest.ToyProblem(1), c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := range a.W {
			if a.W[i] != b.W[i] {
				t.Fatalf("%s: nondeterministic", c.name)
			}
		}
		// One processor must match the parallel fan-out.
		var s *fl.Result
		fltest.WithProcs(1, func() { s, err = c.run(fltest.ToyProblem(1), c.cfg) })
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := range a.W {
			if a.W[i] != s.W[i] {
				t.Fatalf("%s: parallel != sequential", c.name)
			}
		}
	}
}

func shortened(cfg fl.Config) fl.Config {
	cfg.Rounds = 25
	return cfg
}

func TestUniformLossEstimatesUnbiased(t *testing.T) {
	// E[v_e] must equal f_e(w): average the estimator over many draws
	// with full batches so only sampling randomness remains.
	prob := fltest.ToyProblem(1)
	cfg := fltest.ToyConfig()
	cfg.LossBatch = 40 // full shard: loss estimate is exact per client
	cfg.SampledEdges = 2
	cfg = cfg.WithDefaults()
	pool := fl.NewModelPool(prob.Model)
	st := &fl.State{
		Prob: prob, Cfg: cfg,
		Ledger: topology.NewLedger(),
		W:      make([]float64, prob.Model.Dim()),
		P:      []float64{0.25, 0.25, 0.25, 0.25},
	}
	rng.New(3).Fill(st.W, 0.1)

	exact := make([]float64, 4)
	m := prob.Model.Clone()
	for e, area := range prob.Fed.Areas {
		exact[e] = m.Loss(st.W, area.Train.Xs, area.Train.Ys)
	}

	const trials = 3000
	mean := make([]float64, 4)
	root := rng.New(99)
	for trial := 0; trial < trials; trial++ {
		v := uniformLossEstimates(trial, st, pool, st.W, root.Child(uint64(trial)))
		tensor.Axpy(1.0/trials, v, mean)
	}
	for e := range mean {
		// LossBatch sampling with replacement from the 40-example shard
		// adds a little noise; 2% tolerance is ample for 3000 trials.
		if math.Abs(mean[e]-exact[e]) > 0.02*(1+exact[e]) {
			t.Fatalf("estimator biased at area %d: mean %v, exact %v", e, mean[e], exact[e])
		}
	}
}

func TestSampleEdgeSlotsByPFavorsHeavy(t *testing.T) {
	// The minimax baselines draw their Phase-1 slots straight from
	// rng.SampleWeighted (the bespoke wrapper was deleted); this pins
	// the distributional property at the call they actually make.
	r := rng.New(1)
	p := []float64{0.7, 0.1, 0.1, 0.1}
	counts := make([]int, 4)
	for trial := 0; trial < 2000; trial++ {
		for _, e := range r.SampleWeighted(2, p) {
			counts[e]++
		}
	}
	if counts[0] < counts[1] {
		t.Fatalf("heavy edge sampled less: %v", counts)
	}
	frac := float64(counts[0]) / 4000
	if math.Abs(frac-0.7) > 0.05 {
		t.Fatalf("heavy edge frequency %v, want ~0.7", frac)
	}
}

var _ = model.NewLinear // documentation anchor

// TestBaselinesPriceIterateSums pins each baseline's uplinks to
// fl.Config.UplinkBytes, the rule core prices with: under TrackAverages
// every member also uploads its iterate sum, so one round must add
// members × (UplinkBytes with tracking − without) to each uplink link —
// the clients' uplinks (with the checkpoint for AFL and DRFA) and, for
// HierFAvg, the edges' uplinks to the cloud.
func TestBaselinesPriceIterateSums(t *testing.T) {
	type uplink struct {
		link    topology.Link
		members int
		chk     bool
	}
	toy := fltest.ToyConfig()
	top := fltest.ToyProblem(1).Topology()
	clients := toy.SampledEdges * top.ClientsPerEdge
	cases := []struct {
		name    string
		run     func(*fl.Problem, fl.Config) (*fl.Result, error)
		cfg     fl.Config
		uplinks []uplink
	}{
		{"FedAvg", FedAvg, twoLayerConfig(2), []uplink{{topology.ClientCloud, clients, false}}},
		{"AFL", StochasticAFL, twoLayerConfig(1), []uplink{{topology.ClientCloud, clients, true}}},
		{"DRFA", DRFA, twoLayerConfig(2), []uplink{{topology.ClientCloud, clients, true}}},
		{"HierFAvg", HierFAvg, toy, []uplink{
			{topology.ClientEdge, toy.Tau2 * clients, false},
			{topology.EdgeCloud, toy.SampledEdges, false},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Rounds = 1
			var bytes [2]topology.LedgerSnapshot
			for i, track := range []bool{false, true} {
				cfg := c.cfg
				cfg.TrackAverages = track
				res, err := c.run(fltest.ToyProblem(1), cfg)
				if err != nil {
					t.Fatal(err)
				}
				bytes[i] = res.Ledger
			}
			d := fltest.ToyProblem(1).Model.Dim()
			off, on := c.cfg, c.cfg
			on.TrackAverages = true
			for _, u := range c.uplinks {
				want := int64(u.members) * (on.UplinkBytes(d, u.chk) - off.UplinkBytes(d, u.chk))
				if got := bytes[1].Bytes[u.link] - bytes[0].Bytes[u.link]; got != want {
					t.Errorf("%v: tracking averages added %d bytes, want %d members × %d", u.link, got, u.members,
						on.UplinkBytes(d, u.chk)-off.UplinkBytes(d, u.chk))
				}
			}
		})
	}
}
