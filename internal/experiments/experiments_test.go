package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The smoke-scale assertions check the qualitative shapes of §6 that are
// robust at small scale; exact margins are checked manually at the
// recorded Small scale (see EXPERIMENTS.md).

// runExp runs the named experiment at Smoke scale on the inline pool.
func runExp(t *testing.T, name string, seed uint64) []*Table {
	t.Helper()
	exps, err := Select(name, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := exps[0].Run(nil, Smoke, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

// col returns column name of every row of tab.
func col(tab *Table, name string) []float64 {
	i := slices.Index(tab.Cols, name)
	if i < 0 {
		panic("no column " + name)
	}
	out := make([]float64, len(tab.Rows))
	for r, row := range tab.Rows {
		out[r] = row.Vals[i]
	}
	return out
}

// byKey maps each row's key (without the seed) joined by "/" to its
// values keyed by column name.
func byKey(tab *Table) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, r := range tab.Rows {
		m := map[string]float64{}
		for i, c := range tab.Cols {
			m[c] = r.Vals[i]
		}
		out[strings.Join(r.Key[:len(r.Key)-1], "/")] = m
	}
	return out
}

func TestFig3Shape(t *testing.T) {
	tables := runExp(t, "fig3", 42)
	if len(tables) != 2 || tables[0].Name != "fig3" || tables[1].Name != "fig3-summary" {
		t.Fatalf("fig3 publishes %d tables", len(tables))
	}
	final := byKey(tables[1])
	if len(final) != 5 {
		t.Fatalf("expected 5 methods, got %d", len(final))
	}
	hmm, hfa, fed := final["HierMinimax"], final["HierFAvg"], final["FedAvg"]
	// Minimax fairness: HierMinimax beats its minimization twin on the
	// worst area and on variance (Fig. 3's core message).
	if hmm["worst"] <= hfa["worst"] {
		t.Fatalf("HierMinimax worst %v not above HierFAvg %v", hmm["worst"], hfa["worst"])
	}
	if hmm["variance"] >= hfa["variance"] {
		t.Fatalf("HierMinimax variance %v not below HierFAvg %v", hmm["variance"], hfa["variance"])
	}
	if hmm["variance"] >= fed["variance"] {
		t.Fatalf("HierMinimax variance %v not below FedAvg %v", hmm["variance"], fed["variance"])
	}
	// The price of fairness is small: average within a few points.
	if hfa["average"]-hmm["average"] > 0.08 {
		t.Fatalf("average accuracy cost too large: %v vs %v", hmm["average"], hfa["average"])
	}
	// Every method must have learned something real.
	for algo, f := range final {
		if f["average"] < 0.7 {
			t.Fatalf("%s average %v", algo, f["average"])
		}
	}
	// HierMinimax reaches the worst-accuracy target.
	if hmm["rounds_to_target"] == 0 {
		t.Fatalf("HierMinimax never reached the %v target", hmm["target_worst"])
	}
	// The summary's final values are the curves' last snapshot.
	curves := tables[0]
	last := curves.Rows[len(curves.Rows)-1]
	if last.Key[0] != "HierMinimax" || last.Vals[2] != hmm["average"] || last.Vals[3] != hmm["worst"] {
		t.Fatalf("last curve row %v does not match the summary %v", last, hmm)
	}
	if txt := tables[1].Render(); !strings.Contains(txt, "HierMinimax") || !strings.Contains(txt, "rounds_to_target") {
		t.Fatal("Render incomplete")
	}
}

func TestFig3CurvesAligned(t *testing.T) {
	curves := runExp(t, "fig3", 7)[0]
	round, cloud := col(curves, "round"), col(curves, "cloud_rounds")
	methods := 0
	for i, r := range curves.Rows {
		if i == 0 || r.Key[0] != curves.Rows[i-1].Key[0] {
			methods++
			continue
		}
		if round[i] <= round[i-1] || cloud[i] < cloud[i-1] {
			t.Fatalf("%s: non-monotone axes at row %d", r.Key[0], i)
		}
	}
	if methods != len(AllAlgorithms) || len(curves.Rows)%methods != 0 {
		t.Fatalf("%d rows over %d methods: ragged curves", len(curves.Rows), methods)
	}
}

func TestFig4Shape(t *testing.T) {
	final := byKey(runExp(t, "fig4", 42)[1])
	hmm, hfa := final["HierMinimax"], final["HierFAvg"]
	if hmm["worst"] <= hfa["worst"] {
		t.Fatalf("HierMinimax worst %v not above HierFAvg %v", hmm["worst"], hfa["worst"])
	}
	if hmm["variance"] >= hfa["variance"] {
		t.Fatalf("HierMinimax variance %v not below HierFAvg %v", hmm["variance"], hfa["variance"])
	}
	// Hierarchical methods do tau1*tau2 local slots per round vs tau1
	// (or 1) for the two-layer ones, so at equal rounds they lead on
	// average accuracy — the §6.2 communication-efficiency effect.
	if afl := final["Stochastic-AFL"]; hmm["average"] <= afl["average"] {
		t.Fatalf("HierMinimax average %v not above AFL %v", hmm["average"], afl["average"])
	}
}

func TestTable2Shape(t *testing.T) {
	tab := runExp(t, "table2", 42)[0]
	if len(tab.Rows) != 10 {
		t.Fatalf("expected 10 rows, got %d", len(tab.Rows))
	}
	rows := byKey(tab)
	// The headline datasets must show the fairness win.
	for _, ds := range []string{"emnist-digits-like", "fashion-mnist-like"} {
		hfa, hmm := rows[ds+"/HierFAvg"], rows[ds+"/HierMinimax"]
		if hfa == nil || hmm == nil {
			t.Fatalf("missing rows for %s", ds)
		}
		if hmm["worst"] <= hfa["worst"] {
			t.Fatalf("%s: HierMinimax worst %v not above HierFAvg %v", ds, hmm["worst"], hfa["worst"])
		}
		if hmm["variance"] >= hfa["variance"] {
			t.Fatalf("%s: variance not reduced", ds)
		}
	}
	// All rows carry sane numbers.
	for key, r := range rows {
		if r["average"] <= 0 || r["average"] > 1 || r["worst"] < 0 || r["worst"] > 1 || r["variance"] < 0 {
			t.Fatalf("row %s %v out of range", key, r)
		}
	}
	if !strings.Contains(tab.Render(), "synthetic") {
		t.Fatal("Render incomplete")
	}
}

func TestTradeoffShape(t *testing.T) {
	tab := runExp(t, "table1", 42)[0]
	if len(tab.Rows) != 4 {
		t.Fatalf("expected 4 alphas, got %d", len(tab.Rows))
	}
	alpha, cloud, gap := col(tab, "alpha"), col(tab, "cloud_rounds"), col(tab, "duality_gap")
	tau1, tau2 := col(tab, "tau1"), col(tab, "tau2")
	for i := 1; i < len(tab.Rows); i++ {
		// Larger alpha => strictly less cloud communication (Table 1's
		// Theta(T^{1-alpha}) column).
		if cloud[i] >= cloud[i-1] {
			t.Fatalf("cloud rounds not decreasing: %v -> %v", cloud[i-1], cloud[i])
		}
		if tau1[i]*tau2[i] <= tau1[i-1]*tau2[i-1] {
			t.Fatal("tau product not increasing in alpha")
		}
	}
	// The convergence side: the duality gap at alpha=0 must beat the gap
	// at the most communication-starved alpha=0.75.
	if gap[0] >= gap[3] {
		t.Fatalf("duality gap not degrading with alpha: %v vs %v", gap[0], gap[3])
	}
	for i, g := range gap {
		if g < -1e-6 {
			t.Fatalf("negative duality gap %v at alpha %v", g, alpha[i])
		}
	}
	if !strings.Contains(tab.Render(), "alpha") {
		t.Fatal("Render incomplete")
	}
}

func TestAblationsShape(t *testing.T) {
	tab := runExp(t, "ablations", 42)[0]
	byStudy := map[string][]map[string]float64{}
	rows := byKey(tab)
	for _, r := range tab.Rows {
		byStudy[r.Key[0]] = append(byStudy[r.Key[0]], rows[r.Key[0]+"/"+r.Key[1]])
	}
	if len(byStudy["A1-checkpoint"]) != 2 {
		t.Fatal("A1 incomplete")
	}
	// A2: a row for each m_E.
	if len(byStudy["A2-participation"]) != 4 {
		t.Fatalf("A2 rows: %d", len(byStudy["A2-participation"]))
	}
	// A3: quantized uplinks move fewer megabytes than exact.
	a3 := byStudy["A3-quantization"]
	if len(a3) != 3 {
		t.Fatalf("A3 rows: %d", len(a3))
	}
	if !(a3[0]["uplink_mb"] > a3[1]["uplink_mb"] && a3[1]["uplink_mb"] > a3[2]["uplink_mb"]) {
		t.Fatalf("uplink MB not decreasing with bits: %v %v %v", a3[0]["uplink_mb"], a3[1]["uplink_mb"], a3[2]["uplink_mb"])
	}
	// Quantization must not destroy learning.
	for i, r := range a3 {
		if r["average"] < 0.7 {
			t.Fatalf("A3 variant %d average %v", i, r["average"])
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
	if a5[1]["cloud_rounds"] >= a5[0]["cloud_rounds"] {
		t.Fatalf("4-layer cloud rounds %v not below 3-layer %v", a5[1]["cloud_rounds"], a5[0]["cloud_rounds"])
	}
	for i, r := range a5 {
		if r["average"] < 0.7 {
			t.Fatalf("A5 variant %d average %v", i, r["average"])
		}
	}
	if !strings.Contains(tab.Render(), "A3-quantization") {
		t.Fatal("Render incomplete")
	}
}

func TestChaosSweepShape(t *testing.T) {
	tab := runExp(t, "chaos", 42)[0]
	if len(tab.Rows) != 5 {
		t.Fatalf("expected 5 crash rates, got %d", len(tab.Rows))
	}
	rate, crashes, timeouts := col(tab, "crash_prob"), col(tab, "crashes"), col(tab, "timeouts")
	lost, simMs := col(tab, "messages_lost"), col(tab, "simulated_ms")
	avg, worst := col(tab, "average"), col(tab, "worst")
	if rate[0] != 0 || crashes[0] != 0 || timeouts[0] != 0 || lost[0] != 0 {
		t.Fatalf("fault-free row reports fault activity: %v", tab.Rows[0])
	}
	for i := 1; i < len(tab.Rows); i++ {
		if crashes[i] == 0 {
			t.Fatalf("crash rate %v produced no crashes", rate[i])
		}
		// One shared fault seed makes the crash sets nested in the rate.
		if crashes[i] < crashes[i-1] {
			t.Fatalf("crashes not monotone in rate: %v at %v, %v at %v", crashes[i-1], rate[i-1], crashes[i], rate[i])
		}
		if simMs[i] <= simMs[0] {
			t.Fatalf("timeout charges did not stretch simulated time at rate %v", rate[i])
		}
	}
	// Graceful degradation: training still works at a 30% crash rate.
	n := len(tab.Rows) - 1
	if avg[n] < avg[0]-0.15 {
		t.Fatalf("average collapsed under faults: %v vs fault-free %v", avg[n], avg[0])
	}
	if worst[n] < 0.3 {
		t.Fatalf("worst-group accuracy collapsed under faults: %v", worst[n])
	}
	if txt := tab.Render(); !strings.Contains(txt, "crash_prob") || !strings.Contains(txt, "timeouts") {
		t.Fatal("Render incomplete")
	}
}

func TestCompressionSweepShape(t *testing.T) {
	tab := runExp(t, "compression", 42)[0]
	regimes := len(compressionRegimes(1))
	if len(tab.Rows) != regimes*2 {
		t.Fatalf("expected %d rows, got %d", regimes*2, len(tab.Rows))
	}
	bytes, ratio := col(tab, "wire_bytes"), col(tab, "bytes_ratio")
	crashes, lost, avg := col(tab, "crashes"), col(tab, "messages_lost"), col(tab, "average")
	for leg := 0; leg < 2; leg++ {
		d := leg * regimes // the leg's dense reference row
		if tab.Rows[d].Key[0] != "none" || ratio[d] != 1 {
			t.Fatalf("leg %d: dense reference row is %v", leg, tab.Rows[d])
		}
		faulted := leg == 1
		for i := d; i < d+regimes; i++ {
			r := tab.Rows[i]
			if r.Key[1] != strconv.FormatBool(faulted) {
				t.Fatalf("row %v on wrong leg", r)
			}
			if faulted && (crashes[i] == 0 || lost[i] == 0) {
				t.Fatalf("chaos leg %s saw no faults: %v", r.Key[0], r)
			}
			if !faulted && (crashes[i] != 0 || lost[i] != 0) {
				t.Fatalf("clean leg %s reports fault activity: %v", r.Key[0], r)
			}
			// Compression is a usable operating point, not just a
			// consistent one: every regime still learns.
			if avg[i] < 0.6 {
				t.Fatalf("%s (faulted=%v) average %v", r.Key[0], faulted, avg[i])
			}
			// Every compressed regime moves strictly fewer bytes than dense.
			if i > d && (bytes[i] >= bytes[d] || ratio[i] >= 1) {
				t.Fatalf("%s (faulted=%v) not cheaper than dense: %v vs %v", r.Key[0], faulted, bytes[i], bytes[d])
			}
		}
		// The uniform widths order as 16 > 8 > 4 bits.
		if !(bytes[d+1] > bytes[d+2] && bytes[d+2] > bytes[d+3]) {
			t.Fatalf("uniform widths not ordered: %v, %v, %v bytes", bytes[d+1], bytes[d+2], bytes[d+3])
		}
	}
	txt := tab.Render()
	if !strings.Contains(txt, "uniform-8bit") || !strings.Contains(txt, "topk-") || !strings.Contains(txt, "true") {
		t.Fatal("Render incomplete")
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
	tab := runExp(t, "rates", 42)[0]
	horizons := len(gapScaleFor(Smoke).horizons)
	if len(tab.Rows) != horizons*len(rateAlphas) {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	// At alpha = 0 the gap must shrink with the horizon (Theorem 1's
	// headline), and the fitted slope must be clearly negative and in
	// the ballpark of the predicted T^{-1/2}.
	gap, fitted, predicted := col(tab, "duality_gap"), col(tab, "fitted_slope"), col(tab, "predicted_slope")
	for i := 1; i < horizons; i++ {
		if gap[i] >= gap[i-1] {
			t.Fatalf("gap not decreasing: %v", gap[:horizons])
		}
	}
	if fitted[0] > -0.2 {
		t.Fatalf("fitted slope %v too shallow for alpha=0", fitted[0])
	}
	if predicted[0] != -0.5 || predicted[horizons] != -0.25 {
		t.Fatalf("predicted slopes %v", predicted)
	}
	for i := range tab.Rows {
		a := i / horizons
		if fitted[i] != fitted[a*horizons] || predicted[i] != predicted[a*horizons] {
			t.Fatalf("alpha %v rows disagree on their slopes: %v %v", rateAlphas[a], fitted, predicted)
		}
	}
	if !strings.Contains(tab.Render(), "fitted_slope") {
		t.Fatal("render incomplete")
	}
}

func TestFitLogLogSlope(t *testing.T) {
	// Exact power law gap = T^{-0.5}.
	rows := []Row{
		{Vals: []float64{0, 100, 0, 0, 0.1}},
		{Vals: []float64{0, 10000, 0, 0, 0.01}},
	}
	if got := fitLogLogSlope(rows); got < -0.5001 || got > -0.4999 {
		t.Fatalf("slope = %v", got)
	}
	if fitLogLogSlope(rows[:1]) != 0 {
		t.Fatal("degenerate fit should be 0")
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
	tab := runExp(t, "stationarity", 42)[0]
	if len(tab.Rows) < 3 {
		t.Fatalf("points: %d", len(tab.Rows))
	}
	// Theorem 2's headline: the stationarity measure decays along
	// training (allowing for stochastic wiggle, first vs last must drop
	// substantially).
	grad := col(tab, "moreau_grad_sq")
	if first, last := grad[0], grad[len(grad)-1]; last >= first*0.8 {
		t.Fatalf("Moreau surrogate did not decay: %v -> %v", first, last)
	}
	for i, g := range grad {
		if g < 0 {
			t.Fatalf("negative squared norm at row %d", i)
		}
	}
	if !strings.Contains(tab.Render(), "Theorem 2") {
		t.Fatal("render incomplete")
	}
}

// TestSelect: -exp names resolve through the one experiment list, and a
// sparse population is refused by every experiment but the figures.
func TestSelect(t *testing.T) {
	all, err := Select("all", 0, 0)
	if err != nil || len(all) != len(Experiments) {
		t.Fatalf("all: %d experiments, %v", len(all), err)
	}
	if _, err := Select("fig5", 0, 0); err == nil || !strings.Contains(err.Error(), "fig3|fig4") {
		t.Fatalf("unknown experiment: %v", err)
	}
	if _, err := Select("fig3", 100, 0); err == nil {
		t.Fatal("population without a per-round sample accepted")
	}
	for _, name := range []string{"table2", "all"} {
		if _, err := Select(name, 100, 5); err == nil || !strings.Contains(err.Error(), "fig3 and fig4 only") {
			t.Fatalf("%s with a population: %v", name, err)
		}
	}
	figs, err := Select("fig4", 100, 5)
	if err != nil || figs[0].fig(Smoke, 1).Base.Population != 100 {
		t.Fatalf("fig4 with a population: %v", err)
	}
}
