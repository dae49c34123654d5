package experiments

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/optim"
	"repro/internal/sched"
)

// RatePoint is one horizon on the convergence curve.
type RatePoint struct {
	T           int // total slots
	Rounds      int
	DualityGap  float64
	CloudRounds int64
}

// RateResult verifies Theorem 1's convergence scaling empirically: at a
// fixed alpha, the duality gap of the averaged iterates should decay
// like T^{-(1-alpha)/2}; the fitted log-log slope is reported against
// that prediction.
type RateResult struct {
	Alpha          float64
	Points         []RatePoint
	FittedSlope    float64
	PredictedSlope float64
}

// ConvergenceRate runs HierMinimax at geometrically increasing horizons
// T with tau1*tau2 ~ T^alpha and the Theorem-1 learning-rate schedule,
// measures the realized duality gap at each horizon, and fits the
// log-log slope. Each horizon is an independent scheduler job sharing
// one cached corpus.
func ConvergenceRate(pool *sched.Pool, scale Scale, alpha float64, seed uint64) (*RateResult, error) {
	var horizons []int
	var perTrain, perTest, dim int
	switch scale {
	case Smoke:
		horizons = []int{256, 1024, 4096}
		perTrain, perTest, dim = 40, 20, 32
	case Small:
		horizons = []int{1024, 4096, 16384}
		perTrain, perTest, dim = 120, 60, 64
	default:
		horizons = []int{4096, 16384, 65536}
		perTrain, perTest, dim = 300, 100, 128
	}
	profile := data.EMNISTDigitsLike()
	profile.Dim = dim

	points, err := sched.Map(pool, "rates", len(horizons), func(i int) (RatePoint, error) {
		T := horizons[i]
		train, test := profile.GenerateShared(perTrain, perTest, seed)
		fed := data.OneClassPerArea(train, test, 3, seed+1)
		tau1, tau2 := optim.TausForAlpha(T, alpha)
		rounds := T / (tau1 * tau2)
		if rounds < 1 {
			rounds = 1
		}
		lr := optim.ConvexSchedule(T, alpha, 3.0, 0.05)
		prob := fl.NewProblem(fed, model.NewLinear(dim, profile.Classes))
		cfg := fl.Config{
			Rounds: rounds, Tau1: tau1, Tau2: tau2,
			EtaW: lr.EtaW, EtaP: lr.EtaP,
			BatchSize: 4, LossBatch: 16,
			SampledEdges: 5, Seed: seed,
			TrackAverages: true,
		}
		out, err := core.HierMinimax(prob, cfg)
		if err != nil {
			return RatePoint{}, fmt.Errorf("experiments: rate T=%d: %w", T, err)
		}
		gap := metrics.DualityGap(prob.Model, out.WHat, out.PHat, fed, prob.W, prob.P, 200, lr.EtaW)
		if gap < 1e-12 {
			gap = 1e-12 // guard the log fit against numerically zero gaps
		}
		return RatePoint{
			T: T, Rounds: rounds, DualityGap: gap,
			CloudRounds: out.Ledger.CloudRounds(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &RateResult{Alpha: alpha, PredictedSlope: -(1 - alpha) / 2, Points: points}
	res.FittedSlope = fitLogLogSlope(res.Points)
	return res, nil
}

// fitLogLogSlope least-squares fits log(gap) against log(T).
func fitLogLogSlope(pts []RatePoint) float64 {
	n := float64(len(pts))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		x := math.Log(float64(p.T))
		y := math.Log(p.DualityGap)
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

// Render prints the rate verification table.
func (r *RateResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Theorem 1 rate check (alpha=%.2f): gap ~ T^%.2f predicted ==\n", r.Alpha, r.PredictedSlope)
	fmt.Fprintf(&b, "%10s %8s %12s %12s\n", "T", "K", "cloudRounds", "dualityGap")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%10d %8d %12d %12.5f\n", p.T, p.Rounds, p.CloudRounds, p.DualityGap)
	}
	fmt.Fprintf(&b, "fitted log-log slope: %.3f (theory upper bound slope: %.3f)\n", r.FittedSlope, r.PredictedSlope)
	return b.String()
}

// WriteFiles exports the rate points.
func (r *RateResult) WriteFiles(dir, base string) error {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.T), fmt.Sprintf("%d", p.Rounds),
			fmt.Sprintf("%d", p.CloudRounds), ftoa(p.DualityGap),
		})
	}
	if err := writeCSV(filepath.Join(dir, base+".csv"),
		[]string{"T", "rounds", "cloud_rounds", "duality_gap"}, rows); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, base+".json"), r)
}
