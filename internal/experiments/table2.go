package experiments

import (
	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sched"
)

// table2Workload is one dataset row's setup.
type table2Workload struct {
	name      string
	build     func() FigSetup
	worstFrac float64 // 1.0 = plain worst; 0.1 = worst-10% (Synthetic)
}

// table2Workloads returns one workload per Table 2 dataset, in row
// order. Each scheduler job invokes its own builder so jobs stay pure;
// the shared-dataset cache collapses the duplicate generation work
// (five datasets x two algorithms = ten jobs, five distinct corpora).
// Learning rates follow §6.1/§6.3 scaled to the run length.
func table2Workloads(scale Scale, seed uint64) []table2Workload {
	p := convexParamsFor(scale)
	base := p.base(seed)
	var out []table2Workload

	// Three image datasets, logistic regression, one class per area.
	for _, prof := range []data.ImageProfile{data.EMNISTDigitsLike(), data.FashionMNISTLike(), data.MNISTLike()} {
		profile := prof
		profile.Dim = p.dim
		out = append(out, table2Workload{profile.Name, func() FigSetup {
			train, test := profile.GenerateShared(p.perTrain, p.perTest, seed)
			return FigSetup{
				Name:  profile.Name,
				Fed:   data.OneClassPerArea(train, test, 3, seed+1),
				Model: model.NewLinear(p.dim, profile.Classes),
				Base:  base,
			}
		}, 1})
	}

	// Adult: 2 edge areas (Doctorate / non-Doctorate), eta_p one decade
	// below eta_w as in §6.3.
	adultCfg := base
	adultCfg.SampledEdges = 2
	adultCfg.EtaP = p.etaP / 2
	adult := data.DefaultAdult()
	if scale == Smoke {
		adult.TrainPerArea, adult.TestPerArea = 600, 200
	}
	out = append(out, table2Workload{"adult", func() FigSetup {
		return FigSetup{
			Name:  "adult",
			Fed:   data.GenerateAdultShared(adult, 3, seed+2),
			Model: model.NewLinear(adult.InputDim(), 2),
			Base:  adultCfg,
		}
	}, 1})

	// Synthetic (Li et al.): 100 edge areas, worst-10% accuracy.
	synth := data.DefaultLiSynthetic()
	if scale == Smoke {
		synth.NumDevices, synth.MeanSamples, synth.TestPer = 30, 40, 20
	}
	synthCfg := base
	synthCfg.SampledEdges = synth.NumDevices / 4
	synthCfg.EtaW = p.etaW / 2
	synthCfg.EtaP = p.etaP / 2
	out = append(out, table2Workload{"synthetic", func() FigSetup {
		return FigSetup{
			Name:  "synthetic",
			Fed:   data.GenerateLiSyntheticShared(synth, 2, seed+3),
			Model: model.NewLinear(synth.Dim, synth.Classes),
			Base:  synthCfg,
		}
	}, 0.1})
	return out
}

// table2 reproduces Table 2: HierFAvg vs HierMinimax on five datasets,
// reporting average / worst / variance of per-area accuracy (worst-10%
// for Synthetic, per §6.3). The ten (dataset, method) cells are
// independent scheduler jobs, dataset-major.
func table2(pool *sched.Pool, scale Scale, seed uint64) (*Table, error) {
	t := newTable("table2", "Table 2: HierFAvg vs HierMinimax", seed, []string{"dataset", "method"}, fairCols...)
	var jobs []job
	for _, w := range table2Workloads(scale, seed) {
		for _, algo := range []AlgorithmName{HierFAvg, HierMinimax} {
			jobs = append(jobs, job{[]string{w.name, string(algo)}, func() ([]float64, error) {
				out, err := train(w.build(), algo, nil)
				if err != nil {
					return nil, err
				}
				v := fair(out)
				if w.worstFrac < 1 {
					v[1] = metrics.WorstK(out.History.Final().Areas.Accuracy, w.worstFrac)
				}
				return v, nil
			}})
		}
	}
	if err := t.fill(pool, jobs); err != nil {
		return nil, err
	}
	return t, nil
}
