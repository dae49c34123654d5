package experiments

import (
	"strings"
	"testing"
)

// The smoke-scale assertions check the qualitative shapes of §6 that are
// robust at small scale; exact margins are checked manually at the
// recorded Small scale (see EXPERIMENTS.md).

func TestFig3Shape(t *testing.T) {
	res, err := Fig3(nil, Smoke, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 5 {
		t.Fatalf("expected 5 curves, got %d", len(res.Series))
	}
	hmm := res.Final[HierMinimax]
	hfa := res.Final[HierFAvg]
	fed := res.Final[FedAvg]
	// Minimax fairness: HierMinimax beats its minimization twin on the
	// worst area and on variance (Fig. 3's core message).
	if hmm.Worst <= hfa.Worst {
		t.Fatalf("HierMinimax worst %v not above HierFAvg %v", hmm.Worst, hfa.Worst)
	}
	if hmm.Variance >= hfa.Variance {
		t.Fatalf("HierMinimax variance %v not below HierFAvg %v", hmm.Variance, hfa.Variance)
	}
	if hmm.Variance >= fed.Variance {
		t.Fatalf("HierMinimax variance %v not below FedAvg %v", hmm.Variance, fed.Variance)
	}
	// The price of fairness is small: average within a few points.
	if hfa.Average-hmm.Average > 0.08 {
		t.Fatalf("average accuracy cost too large: %v vs %v", hmm.Average, hfa.Average)
	}
	// Every method must have learned something real.
	for algo, f := range res.Final {
		if f.Average < 0.7 {
			t.Fatalf("%s average %v", algo, f.Average)
		}
	}
	// HierMinimax reaches the worst-accuracy target; its minimization
	// twin does not (at this scale the uniform plateau sits below it).
	if res.ToTarget[HierMinimax] == 0 {
		t.Fatalf("HierMinimax never reached the %v target", res.TargetWorst)
	}
	if txt := res.Render(); !strings.Contains(txt, "HierMinimax") || !strings.Contains(txt, "Rounds to reach") {
		t.Fatal("Render incomplete")
	}
}

func TestFig3CurvesAligned(t *testing.T) {
	res, err := Fig3(nil, Smoke, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		if len(s.Rounds) != len(s.Average) || len(s.Rounds) != len(s.Worst) || len(s.Rounds) != len(s.CloudRounds) {
			t.Fatalf("%s: ragged series", s.Algorithm)
		}
		for i := 1; i < len(s.Rounds); i++ {
			if s.Rounds[i] <= s.Rounds[i-1] || s.CloudRounds[i] < s.CloudRounds[i-1] {
				t.Fatalf("%s: non-monotone axes", s.Algorithm)
			}
		}
	}
}

func TestFig4Shape(t *testing.T) {
	res, err := Fig4(nil, Smoke, 42)
	if err != nil {
		t.Fatal(err)
	}
	hmm := res.Final[HierMinimax]
	hfa := res.Final[HierFAvg]
	if hmm.Worst <= hfa.Worst {
		t.Fatalf("HierMinimax worst %v not above HierFAvg %v", hmm.Worst, hfa.Worst)
	}
	if hmm.Variance >= hfa.Variance {
		t.Fatalf("HierMinimax variance %v not below HierFAvg %v", hmm.Variance, hfa.Variance)
	}
	// Hierarchical methods do tau1*tau2 local slots per round vs tau1
	// (or 1) for the two-layer ones, so at equal rounds they lead on
	// average accuracy — the §6.2 communication-efficiency effect.
	if hmm.Average <= res.Final[StochasticAFL].Average {
		t.Fatalf("HierMinimax average %v not above AFL %v", hmm.Average, res.Final[StochasticAFL].Average)
	}
}

func TestTable2Shape(t *testing.T) {
	res, err := Table2(nil, Smoke, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("expected 10 rows, got %d", len(res.Rows))
	}
	// The headline datasets must show the fairness win.
	for _, ds := range []string{"emnist-digits-like", "fashion-mnist-like"} {
		hfa := res.Row(ds, HierFAvg)
		hmm := res.Row(ds, HierMinimax)
		if hfa == nil || hmm == nil {
			t.Fatalf("missing rows for %s", ds)
		}
		if hmm.Worst <= hfa.Worst {
			t.Fatalf("%s: HierMinimax worst %v not above HierFAvg %v", ds, hmm.Worst, hfa.Worst)
		}
		if hmm.Variance >= hfa.Variance {
			t.Fatalf("%s: variance not reduced", ds)
		}
	}
	// All rows carry sane numbers.
	for _, r := range res.Rows {
		if r.Average <= 0 || r.Average > 1 || r.Worst < 0 || r.Worst > 1 || r.Variance < 0 {
			t.Fatalf("row %+v out of range", r)
		}
	}
	if !strings.Contains(res.Render(), "synthetic") {
		t.Fatal("Render incomplete")
	}
}

func TestTradeoffShape(t *testing.T) {
	res, err := Tradeoff(nil, Smoke, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("expected 4 alphas, got %d", len(res.Points))
	}
	for i := 1; i < len(res.Points); i++ {
		prev, cur := res.Points[i-1], res.Points[i]
		// Larger alpha => strictly less cloud communication (Table 1's
		// Theta(T^{1-alpha}) column).
		if cur.CloudRounds >= prev.CloudRounds {
			t.Fatalf("cloud rounds not decreasing: %d -> %d", prev.CloudRounds, cur.CloudRounds)
		}
		if cur.Tau1*cur.Tau2 <= prev.Tau1*prev.Tau2 {
			t.Fatal("tau product not increasing in alpha")
		}
	}
	// The convergence side: the duality gap at alpha=0 must beat the gap
	// at the most communication-starved alpha=0.75.
	if res.Points[0].DualityGap >= res.Points[3].DualityGap {
		t.Fatalf("duality gap not degrading with alpha: %v vs %v",
			res.Points[0].DualityGap, res.Points[3].DualityGap)
	}
	for _, p := range res.Points {
		if p.DualityGap < -1e-6 {
			t.Fatalf("negative duality gap %v at alpha %v", p.DualityGap, p.Alpha)
		}
	}
	if !strings.Contains(res.Render(), "alpha") {
		t.Fatal("Render incomplete")
	}
}

func TestAblationsShape(t *testing.T) {
	res, err := Ablations(nil, Smoke, 42)
	if err != nil {
		t.Fatal(err)
	}
	byStudy := map[string][]AblationRow{}
	for _, r := range res.Rows {
		byStudy[r.Study] = append(byStudy[r.Study], r)
	}
	if len(byStudy["A1-checkpoint"]) != 2 {
		t.Fatal("A1 incomplete")
	}
	// A2: more participation must not reduce cloud rounds (same count)
	// but the rows must exist for each m_E.
	if len(byStudy["A2-participation"]) != 4 {
		t.Fatalf("A2 rows: %d", len(byStudy["A2-participation"]))
	}
	// A3: quantized uplinks move fewer megabytes than exact.
	a3 := byStudy["A3-quantization"]
	if len(a3) != 3 {
		t.Fatalf("A3 rows: %d", len(a3))
	}
	if !(a3[0].UplinkMB > a3[1].UplinkMB && a3[1].UplinkMB > a3[2].UplinkMB) {
		t.Fatalf("uplink MB not decreasing with bits: %v %v %v", a3[0].UplinkMB, a3[1].UplinkMB, a3[2].UplinkMB)
	}
	// Quantization must not destroy learning.
	for _, r := range a3 {
		if r.Average < 0.7 {
			t.Fatalf("A3 %s average %v", r.Variant, r.Average)
		}
	}
	// A4: every capped run respects learning sanity.
	if len(byStudy["A4-constraint"]) != 3 {
		t.Fatal("A4 incomplete")
	}
	// A5: the 4-layer tree must spend fewer cloud rounds than the
	// 3-layer tree at the same slot budget, and still learn.
	a5 := byStudy["A5-depth"]
	if len(a5) != 2 {
		t.Fatalf("A5 rows: %d", len(a5))
	}
	if a5[1].CloudRounds >= a5[0].CloudRounds {
		t.Fatalf("4-layer cloud rounds %d not below 3-layer %d", a5[1].CloudRounds, a5[0].CloudRounds)
	}
	for _, r := range a5 {
		if r.Average < 0.7 {
			t.Fatalf("A5 %s average %v", r.Variant, r.Average)
		}
	}
	if !strings.Contains(res.Render(), "A3-quantization") {
		t.Fatal("Render incomplete")
	}
}

func TestChaosSweepShape(t *testing.T) {
	res, err := ChaosSweep(nil, Smoke, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("expected 5 crash rates, got %d", len(res.Rows))
	}
	base := res.Rows[0]
	if base.CrashProb != 0 || base.Crashes != 0 || base.Timeouts != 0 || base.MessagesLost != 0 {
		t.Fatalf("fault-free row reports fault activity: %+v", base)
	}
	for i := 1; i < len(res.Rows); i++ {
		prev, cur := res.Rows[i-1], res.Rows[i]
		if cur.Crashes == 0 {
			t.Fatalf("crash rate %v produced no crashes", cur.CrashProb)
		}
		// One shared fault seed makes the crash sets nested in the rate.
		if cur.Crashes < prev.Crashes {
			t.Fatalf("crashes not monotone in rate: %d at %v, %d at %v",
				prev.Crashes, prev.CrashProb, cur.Crashes, cur.CrashProb)
		}
		if cur.SimulatedMs <= base.SimulatedMs {
			t.Fatalf("timeout charges did not stretch simulated time at rate %v", cur.CrashProb)
		}
	}
	// Graceful degradation: training still works at a 30% crash rate.
	worstCase := res.Rows[len(res.Rows)-1]
	if worstCase.Average < base.Average-0.15 {
		t.Fatalf("average collapsed under faults: %v vs fault-free %v", worstCase.Average, base.Average)
	}
	if worstCase.Worst < 0.3 {
		t.Fatalf("worst-group accuracy collapsed under faults: %v", worstCase.Worst)
	}
	if txt := res.Render(); !strings.Contains(txt, "crash") || !strings.Contains(txt, "timeouts") {
		t.Fatal("Render incomplete")
	}
}

func TestCompressionSweepShape(t *testing.T) {
	res, err := CompressionSweep(nil, Smoke, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != compressionRegimes*2 {
		t.Fatalf("expected %d rows, got %d", compressionRegimes*2, len(res.Rows))
	}
	for leg := 0; leg < 2; leg++ {
		rows := res.Rows[leg*compressionRegimes : (leg+1)*compressionRegimes]
		dense := rows[0]
		if dense.Regime != "none" || dense.BytesRatio != 1 {
			t.Fatalf("leg %d: dense reference row is %+v", leg, dense)
		}
		faulted := leg == 1
		for _, r := range rows {
			if r.Faulted != faulted {
				t.Fatalf("row %+v on wrong leg", r)
			}
			if faulted && (r.Crashes == 0 || r.MessagesLost == 0) {
				t.Fatalf("chaos leg %s saw no faults: %+v", r.Regime, r)
			}
			if !faulted && (r.Crashes != 0 || r.MessagesLost != 0) {
				t.Fatalf("clean leg %s reports fault activity: %+v", r.Regime, r)
			}
			// Compression is a usable operating point, not just a
			// consistent one: every regime still learns.
			if r.Average < 0.6 {
				t.Fatalf("%s (faulted=%v) average %v", r.Regime, faulted, r.Average)
			}
		}
		// Every compressed regime moves strictly fewer bytes than dense,
		// and the uniform widths order as 16 > 8 > 4 bits.
		for _, r := range rows[1:] {
			if r.WireBytes >= dense.WireBytes || r.BytesRatio >= 1 {
				t.Fatalf("%s (faulted=%v) not cheaper than dense: %d vs %d", r.Regime, faulted, r.WireBytes, dense.WireBytes)
			}
		}
		if !(rows[1].WireBytes > rows[2].WireBytes && rows[2].WireBytes > rows[3].WireBytes) {
			t.Fatalf("uniform widths not ordered: %d, %d, %d bytes",
				rows[1].WireBytes, rows[2].WireBytes, rows[3].WireBytes)
		}
	}
	txt := res.Render()
	if !strings.Contains(txt, "uniform-8bit") || !strings.Contains(txt, "topk-") || !strings.Contains(txt, "chaos") {
		t.Fatal("Render incomplete")
	}
}

func TestCompressionExport(t *testing.T) {
	dir := t.TempDir()
	res := &CompressionResult{Rows: []CompressionRow{{
		Regime: "uniform-8bit", Faulted: true,
		Summary:   Summary{Average: 0.9, Worst: 0.8, Variance: 1.5},
		WireBytes: 123456, BytesRatio: 0.5, Crashes: 2, MessagesLost: 3,
	}}}
	if err := res.WriteFiles(dir, "compression"); err != nil {
		t.Fatal(err)
	}
}

func TestChaosExport(t *testing.T) {
	dir := t.TempDir()
	res := &ChaosResult{Rows: []ChaosRow{{
		CrashProb: 0.1, Summary: Summary{Average: 0.9, Worst: 0.8, Variance: 1.5},
		Crashes: 4, Timeouts: 2, Retries: 1, MessagesLost: 3, SimulatedMs: 1000,
	}}}
	if err := res.WriteFiles(dir, "chaos"); err != nil {
		t.Fatal(err)
	}
}

func TestScaleAndAlgoHelpers(t *testing.T) {
	if Smoke.String() != "smoke" || Small.String() != "small" || Full.String() != "full" {
		t.Fatal("scale names")
	}
	if Scale(9).String() == "" {
		t.Fatal("unknown scale must print")
	}
}

func TestConvergenceRateShape(t *testing.T) {
	res, err := ConvergenceRate(nil, Smoke, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points: %d", len(res.Points))
	}
	// The gap must shrink with the horizon (Theorem 1's headline), and
	// the fitted slope must be clearly negative and in the ballpark of
	// the predicted T^{-1/2}.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].DualityGap >= res.Points[i-1].DualityGap {
			t.Fatalf("gap not decreasing: %v", res.Points)
		}
	}
	if res.FittedSlope > -0.2 {
		t.Fatalf("fitted slope %v too shallow for alpha=0", res.FittedSlope)
	}
	if res.PredictedSlope != -0.5 {
		t.Fatalf("predicted slope %v", res.PredictedSlope)
	}
	if !strings.Contains(res.Render(), "fitted log-log slope") {
		t.Fatal("render incomplete")
	}
}

func TestFitLogLogSlope(t *testing.T) {
	// Exact power law gap = T^{-0.5}.
	pts := []RatePoint{
		{T: 100, DualityGap: 0.1},
		{T: 10000, DualityGap: 0.01},
	}
	if got := fitLogLogSlope(pts); got < -0.5001 || got > -0.4999 {
		t.Fatalf("slope = %v", got)
	}
	if fitLogLogSlope(pts[:1]) != 0 {
		t.Fatal("degenerate fit should be 0")
	}
}

func TestRateExport(t *testing.T) {
	dir := t.TempDir()
	res := &RateResult{Alpha: 0, PredictedSlope: -0.5, FittedSlope: -0.4,
		Points: []RatePoint{{T: 10, Rounds: 10, DualityGap: 0.5, CloudRounds: 40}}}
	if err := res.WriteFiles(dir, "rates"); err != nil {
		t.Fatal(err)
	}
}

func TestRunAlgorithmUnknown(t *testing.T) {
	if _, err := runAlgorithm("bogus", nil, configFor(convexSetup(Smoke, 1).Base, FedAvg)); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestSustainedCrossing(t *testing.T) {
	s := Series{
		Rounds: []int{0, 10, 20, 30, 40},
		Worst:  []float64{0, 0.8, 0.4, 0.8, 0.9},
	}
	// The spike at round 10 does not count; the sustained crossing is 30.
	if got := sustainedCrossing(s, 0.7); got != 30 {
		t.Fatalf("crossing = %d, want 30", got)
	}
	// Final-snapshot crossing counts.
	s2 := Series{Rounds: []int{0, 10}, Worst: []float64{0, 0.9}}
	if got := sustainedCrossing(s2, 0.7); got != 10 {
		t.Fatalf("crossing = %d, want 10", got)
	}
	// Never reached.
	if got := sustainedCrossing(s, 0.95); got != 0 {
		t.Fatalf("crossing = %d, want 0", got)
	}
}

func TestStationarityShape(t *testing.T) {
	res, err := Stationarity(nil, Smoke, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 3 {
		t.Fatalf("points: %d", len(res.Points))
	}
	// Theorem 2's headline: the stationarity measure decays along
	// training (allowing for stochastic wiggle, first vs last must drop
	// substantially).
	if res.Last >= res.First*0.8 {
		t.Fatalf("Moreau surrogate did not decay: %v -> %v", res.First, res.Last)
	}
	for _, p := range res.Points {
		if p.MoreauGradSq < 0 {
			t.Fatalf("negative squared norm at round %d", p.Round)
		}
	}
	if !strings.Contains(res.Render(), "Theorem 2") {
		t.Fatal("render incomplete")
	}
}

func TestStationarityExport(t *testing.T) {
	dir := t.TempDir()
	res := &StationarityResult{Points: []StationarityPoint{{Round: 10, MoreauGradSq: 0.5, Worst: 0.3}}}
	if err := res.WriteFiles(dir, "stat"); err != nil {
		t.Fatal(err)
	}
}
