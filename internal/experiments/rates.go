package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/optim"
	"repro/internal/sched"
)

// gapScale sizes the theory checks: the corpus and model, the Table 1
// slot budget and the Theorem 1 horizons.
type gapScale struct {
	perTrain, perTest, dim, T int
	horizons                  []int
}

func gapScaleFor(scale Scale) gapScale {
	switch scale {
	case Smoke:
		return gapScale{40, 20, 32, 768, []int{256, 1024, 4096}}
	case Small:
		return gapScale{120, 60, 64, 8192, []int{1024, 4096, 16384}}
	}
	return gapScale{300, 100, 128, 65536, []int{4096, 16384, 65536}}
}

// gapRun is one convex HierMinimax run of T slots with tau1*tau2 ~
// T^alpha local work per round and the learning rates prescribed after
// Theorem 1, measured by the duality gap (Eq. 8) of its averaged
// iterates.
type gapRun struct {
	tau1, tau2, rounds int
	out                *fl.Result
	gap                float64
}

func runGap(g gapScale, seed uint64, T int, alpha float64) (gapRun, error) {
	profile := data.EMNISTDigitsLike()
	profile.Dim = g.dim
	train, test := profile.GenerateShared(g.perTrain, g.perTest, seed)
	fed := data.OneClassPerArea(train, test, 3, seed+1)
	tau1, tau2 := optim.TausForAlpha(T, alpha)
	rounds := max(T/(tau1*tau2), 1)
	lr := optim.ConvexSchedule(T, alpha, 3.0, 0.05)
	prob := fl.NewProblem(fed, model.NewLinear(g.dim, profile.Classes))
	out, err := core.HierMinimax(prob, fl.Config{
		Rounds: rounds, Tau1: tau1, Tau2: tau2,
		EtaW: lr.EtaW, EtaP: lr.EtaP,
		BatchSize: 4, LossBatch: 16,
		SampledEdges: 5, Seed: seed,
		TrackAverages: true,
	})
	if err != nil {
		return gapRun{}, fmt.Errorf("experiments: T=%d alpha=%g: %w", T, alpha, err)
	}
	gap := metrics.DualityGap(prob.Model, out.WHat, out.PHat, fed, prob.P, 200, lr.EtaW)
	return gapRun{tau1, tau2, rounds, out, gap}, nil
}

// tradeoff is the empirical companion to Table 1 and §5.1: at a fixed
// slot budget T it sweeps alpha, trading edge-cloud communication
// (Theta(T^{1-alpha}) rounds) against the duality-gap bound
// O(1/T^{(1-alpha)/2}). Each alpha is an independent scheduler job; all
// draw the same corpus from the shared-dataset cache.
func tradeoff(pool *sched.Pool, scale Scale, seed uint64) (*Table, error) {
	g := gapScaleFor(scale)
	t := newTable("table1", fmt.Sprintf("Table 1 companion: communication/convergence trade-off (T=%d slots)", g.T),
		seed, nil, "alpha", "T", "tau1", "tau2", "rounds", "cloud_rounds", "duality_gap", "average", "worst")
	var jobs []job
	for _, alpha := range []float64{0, 0.25, 0.5, 0.75} {
		jobs = append(jobs, job{nil, func() ([]float64, error) {
			r, err := runGap(g, seed, g.T, alpha)
			if err != nil {
				return nil, err
			}
			f := r.out.History.Final().Fair
			return []float64{alpha, float64(g.T), float64(r.tau1), float64(r.tau2), float64(r.rounds),
				float64(r.out.Ledger.CloudRounds()), r.gap, f.Average, f.Worst}, nil
		}})
	}
	if err := t.fill(pool, jobs); err != nil {
		return nil, err
	}
	return t, nil
}

// rateAlphas are the alphas of the Theorem 1 rate check.
var rateAlphas = []float64{0, 0.5}

// rates verifies Theorem 1's convergence scaling: at each alpha the
// duality gap should decay like T^{-(1-alpha)/2} over geometrically
// growing horizons, so each alpha's rows carry the fitted log-log slope
// beside that prediction.
func rates(pool *sched.Pool, scale Scale, seed uint64) (*Table, error) {
	g := gapScaleFor(scale)
	t := newTable("rates", "Theorem 1 rate check: duality gap against horizon T", seed, nil,
		"alpha", "T", "rounds", "cloud_rounds", "duality_gap", "fitted_slope", "predicted_slope")
	var jobs []job
	for _, alpha := range rateAlphas {
		for _, T := range g.horizons {
			jobs = append(jobs, job{nil, func() ([]float64, error) {
				r, err := runGap(g, seed, T, alpha)
				if err != nil {
					return nil, err
				}
				return []float64{alpha, float64(T), float64(r.rounds), float64(r.out.Ledger.CloudRounds()), r.gap}, nil
			}})
		}
	}
	if err := t.fill(pool, jobs); err != nil {
		return nil, err
	}
	for i := range rateAlphas {
		rows := t.Rows[i*len(g.horizons) : (i+1)*len(g.horizons)]
		slope, predicted := fitLogLogSlope(rows), -(1-rows[0].Vals[0])/2
		for j := range rows {
			rows[j].Vals = append(rows[j].Vals, slope, predicted)
		}
	}
	return t, nil
}

// fitLogLogSlope least-squares fits log(gap) against log(T) over rate
// rows (T in column 1, the gap in column 4).
func fitLogLogSlope(rows []Row) float64 {
	n := float64(len(rows))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, r := range rows {
		x := math.Log(r.Vals[1])
		y := math.Log(max(r.Vals[4], 1e-12)) // guard the fit against numerically zero gaps
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / denom
}
