package hierfair

// Benchmark harness: one bench per table/figure of the paper plus the
// DESIGN.md ablations, all at Smoke scale so `go test -bench=.` finishes
// in minutes. Custom metrics report what the paper's artifacts report:
// final average accuracy ("avg-acc"), worst-area accuracy ("worst-acc"),
// accuracy variance ("acc-var", Table-2 units), training rounds to the
// worst-accuracy target ("rounds-to-target"), and cloud communication
// ("cloud-rounds"). The recorded Small-scale reproductions live in
// EXPERIMENTS.md; regenerate them with cmd/experiments. Round, wire and
// sweep performance is measured by the repository benchmark instead
// (benchmark/, BENCHMARK.json).

import (
	"testing"

	"repro/internal/experiments"
)

// reportFig attaches figure metrics for one algorithm's series.
func reportFig(b *testing.B, res *experiments.FigResult, algo experiments.AlgorithmName) {
	f := res.Final[algo]
	b.ReportMetric(f.Average, "avg-acc")
	b.ReportMetric(f.Worst, "worst-acc")
	b.ReportMetric(f.Variance, "acc-var")
	b.ReportMetric(float64(res.ToTarget[algo]), "rounds-to-target")
}

// BenchmarkFig3 regenerates Figure 3 (convex loss, EMNIST substitute):
// average and worst test accuracy for all five methods, plus the
// rounds-to-target headline comparison of §6.1.
func BenchmarkFig3(b *testing.B) {
	for _, algo := range experiments.AllAlgorithms {
		algo := algo
		b.Run(string(algo), func(b *testing.B) {
			var last *experiments.FigResult
			for i := 0; i < b.N; i++ {
				setupSeed := uint64(42 + i)
				res, err := experiments.RunFigure(nil, func() experiments.FigSetup { return figSetup3(setupSeed) }, []experiments.AlgorithmName{algo})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			reportFig(b, last, algo)
		})
	}
}

// BenchmarkFig4 regenerates Figure 4 (non-convex loss, Fashion
// substitute, s=50% similarity) for all five methods.
func BenchmarkFig4(b *testing.B) {
	for _, algo := range experiments.AllAlgorithms {
		algo := algo
		b.Run(string(algo), func(b *testing.B) {
			var last *experiments.FigResult
			for i := 0; i < b.N; i++ {
				seed := uint64(42 + i)
				res, err := experiments.RunFigure(nil, func() experiments.FigSetup { return figSetup4(seed) }, []experiments.AlgorithmName{algo})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			reportFig(b, last, algo)
		})
	}
}

// BenchmarkTable2 regenerates Table 2: HierFAvg vs HierMinimax fairness
// (average / worst / variance) on the five datasets. Metrics report the
// EMNIST row; the full table prints via cmd/experiments.
func BenchmarkTable2(b *testing.B) {
	var last *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(nil, experiments.Smoke, uint64(42+i))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	hfa := last.Row("emnist-digits-like", experiments.HierFAvg)
	hmm := last.Row("emnist-digits-like", experiments.HierMinimax)
	b.ReportMetric(hfa.Worst, "hierfavg-worst")
	b.ReportMetric(hmm.Worst, "hierminimax-worst")
	b.ReportMetric(hfa.Variance, "hierfavg-var")
	b.ReportMetric(hmm.Variance, "hierminimax-var")
}

// BenchmarkTable1Tradeoff regenerates the empirical companion to
// Table 1: the alpha sweep trading edge-cloud communication against the
// realized duality gap (§5.1).
func BenchmarkTable1Tradeoff(b *testing.B) {
	var last *experiments.TradeoffResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Tradeoff(nil, experiments.Smoke, uint64(42+i))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, p := range last.Points {
		switch p.Alpha {
		case 0:
			b.ReportMetric(p.DualityGap, "gap-alpha0.00")
			b.ReportMetric(float64(p.CloudRounds), "cloud-alpha0.00")
		case 0.75:
			b.ReportMetric(p.DualityGap, "gap-alpha0.75")
			b.ReportMetric(float64(p.CloudRounds), "cloud-alpha0.75")
		}
	}
}

// BenchmarkAblationCheckpoint (A1) compares the random-checkpoint
// p-gradient of Algorithm 1 against the biased end-of-round variant.
func BenchmarkAblationCheckpoint(b *testing.B) {
	benchSpecVariant(b, map[string]func(*Spec){
		"random-checkpoint": func(s *Spec) {},
		"end-of-round":      func(s *Spec) { s.CheckpointOff = true },
	})
}

// BenchmarkAblationParticipation (A2) sweeps the sampled edge count m_E.
func BenchmarkAblationParticipation(b *testing.B) {
	benchSpecVariant(b, map[string]func(*Spec){
		"mE=1":  func(s *Spec) { s.SampledEdges = 1 },
		"mE=2":  func(s *Spec) { s.SampledEdges = 2 },
		"mE=5":  func(s *Spec) { s.SampledEdges = 5 },
		"mE=10": func(s *Spec) { s.SampledEdges = 10 },
	})
}

// BenchmarkAblationQuantization (A3) compares exact and quantized
// uplinks (the Hier-Local-QSGD-style extension).
func BenchmarkAblationQuantization(b *testing.B) {
	benchSpecVariant(b, map[string]func(*Spec){
		"exact": func(s *Spec) {},
		"8bit":  func(s *Spec) { s.QuantBits = 8 },
		"4bit":  func(s *Spec) { s.QuantBits = 4 },
	})
}

// BenchmarkAblationCappedSimplex (A4) sweeps the constraint set P.
func BenchmarkAblationCappedSimplex(b *testing.B) {
	benchSpecVariant(b, map[string]func(*Spec){
		"cap=1.0": func(s *Spec) { s.PCap = 1.0 },
		"cap=0.5": func(s *Spec) { s.PCap = 0.5 },
		"cap=0.2": func(s *Spec) { s.PCap = 0.2 },
	})
}

// --- helpers ---

func figSetup3(seed uint64) experiments.FigSetup {
	return experiments.SetupFig3(experiments.Smoke, seed)
}

func figSetup4(seed uint64) experiments.FigSetup {
	return experiments.SetupFig4(experiments.Smoke, seed)
}

// benchBaseSpec is the shared workload of the ablation benchmarks, at
// the paper's MNIST/FMNIST input dimension (784 = 28x28).
func benchBaseSpec() Spec {
	s := DefaultSpec(AlgHierMinimax)
	s.InputDim = 784
	s.TrainPerClass = 200
	s.TestPerClass = 50
	s.Rounds = 200
	s.EtaW = 0.01
	s.EtaP = 0.001
	s.EvalEvery = 0
	s.Seed = 8
	return s
}

func benchSpecVariant(b *testing.B, variants map[string]func(*Spec)) {
	for name, mutate := range variants {
		name, mutate := name, mutate
		b.Run(name, func(b *testing.B) {
			var worst, avg, variance float64
			for i := 0; i < b.N; i++ {
				spec := benchBaseSpec()
				spec.Rounds = 400
				spec.Seed = uint64(8 + i)
				mutate(&spec)
				rep, err := Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				worst, avg, variance = rep.FinalWorst, rep.FinalAverage, rep.FinalVariance
			}
			b.ReportMetric(avg, "avg-acc")
			b.ReportMetric(worst, "worst-acc")
			b.ReportMetric(variance, "acc-var")
		})
	}
}
