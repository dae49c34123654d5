package hierfair

// Benchmark harness for the DESIGN.md ablations A1-A4 through the
// facade, at a reduced MNIST-scale workload so `go test -bench=.`
// finishes in minutes. Custom metrics report what the paper's artifacts
// report: final average accuracy ("avg-acc"), worst-area accuracy
// ("worst-acc") and accuracy variance ("acc-var", Table-2 units). The
// paper's tables and figures are regenerated by cmd/experiments (see
// EXPERIMENTS.md); round, wire and sweep performance is measured by the
// repository benchmark (benchmark/, BENCHMARK.json).

import "testing"

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
