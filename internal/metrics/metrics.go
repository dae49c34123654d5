// Package metrics computes the evaluation quantities reported in §6:
// per-edge-area test accuracy and loss, their average / worst /
// worst-k% / variance summaries (Figs. 3-4, Table 2), the duality gap of
// Eq. (8) for convex runs (Theorem 1's optimality measure), and a
// Moreau-envelope stationarity surrogate for non-convex runs (Theorem 2).
package metrics

import (
	"math"
	"sort"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/simplex"
	"repro/internal/tensor"
)

// AreaEval holds the per-edge-area evaluation of one model.
type AreaEval struct {
	// Accuracy[e] is the test accuracy of edge area e.
	Accuracy []float64
	// Loss[e] is the mean test cross-entropy of edge area e.
	Loss []float64
}

// EvaluateAreas computes test accuracy and loss of parameters w for every
// edge area of the federation. The model's scratch buffers are used, so
// callers must own m.
func EvaluateAreas(m model.Model, w []float64, fed *data.Federation) AreaEval {
	ev := AreaEval{
		Accuracy: make([]float64, fed.NumAreas()),
		Loss:     make([]float64, fed.NumAreas()),
	}
	for e, area := range fed.Areas {
		ev.Accuracy[e] = model.Accuracy(m, w, area.Test.Xs, area.Test.Ys)
		ev.Loss[e] = m.Loss(w, area.Test.Xs, area.Test.Ys)
	}
	return ev
}

// TrainLosses computes the exact training loss f_e(w) of every edge area
// (the gradient coordinates of F with respect to p).
func TrainLosses(m model.Model, w []float64, fed *data.Federation) []float64 {
	out := make([]float64, fed.NumAreas())
	for e, area := range fed.Areas {
		out[e] = m.Loss(w, area.Train.Xs, area.Train.Ys)
	}
	return out
}

// Average returns the mean of the per-area values.
func Average(vals []float64) float64 { return tensor.Mean(vals) }

// Worst returns the minimum per-area value (worst test accuracy in §6).
func Worst(vals []float64) float64 { return tensor.Min(vals) }

// WorstK returns the mean of the lowest ceil(frac*len) values — the
// "worst 10% accuracy" reported for the Synthetic dataset (§6.3,
// following Li et al. [19]). frac must be in (0, 1].
func WorstK(vals []float64, frac float64) float64 {
	if frac <= 0 || frac > 1 {
		panic("metrics: WorstK frac outside (0,1]")
	}
	if len(vals) == 0 {
		panic("metrics: WorstK of empty slice")
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	k := int(math.Ceil(frac * float64(len(sorted))))
	return tensor.Mean(sorted[:k])
}

// VarianceE4 returns the variance of per-area accuracies multiplied by
// 10^4, the scaling Table 2 uses (its accuracy variances are reported in
// units of (percentage points)^2, i.e. Var[100*acc]).
func VarianceE4(vals []float64) float64 {
	return tensor.Variance(vals) * 1e4
}

// Fairness bundles the §6 summary statistics of a per-area metric.
type Fairness struct {
	Average  float64
	Worst    float64
	Variance float64 // VarianceE4 units, as in Table 2
}

// Summarize computes the Fairness summary of per-area accuracies.
func Summarize(accuracies []float64) Fairness {
	return Fairness{
		Average:  Average(accuracies),
		Worst:    Worst(accuracies),
		Variance: VarianceE4(accuracies),
	}
}

// MaxOverP returns max_{p in P} sum_e p_e * losses_e and the maximizing
// p. For the plain simplex the maximum sits on the vertex of the largest
// loss; for a capped simplex it greedily fills the largest losses up to
// the cap; for other sets it runs projected gradient ascent (the
// objective is linear, so PGA converges geometrically on compact sets).
func MaxOverP(losses []float64, P simplex.Set) (float64, []float64) {
	n := len(losses)
	switch s := P.(type) {
	case simplex.Simplex:
		p := make([]float64, n)
		i := tensor.ArgMax(losses)
		p[i] = 1
		return losses[i], p
	case simplex.CappedSimplex:
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return losses[idx[a]] > losses[idx[b]] })
		p := make([]float64, n)
		remaining := 1.0
		for _, i := range idx {
			take := math.Min(s.Cap, remaining)
			p[i] = take
			remaining -= take
			if remaining <= 0 {
				break
			}
		}
		return tensor.Dot(p, losses), p
	default:
		p := make([]float64, n)
		tensor.Fill(p, 1/float64(n))
		P.Project(p)
		for iter := 0; iter < 500; iter++ {
			tensor.Axpy(0.1, losses, p)
			P.Project(p)
		}
		return tensor.Dot(p, losses), p
	}
}

// DualityGap estimates the Eq. (8) duality gap of (wHat, pHat) for a
// convex problem:
//
//	max_{p in P} F(wHat, p) - min_{w in R^d} F(w, pHat).
//
// The first term is exact (MaxOverP on the exact edge training losses).
// The inner minimum has no closed form, so it is approximated by
// innerSteps full-batch gradient descent steps on the
// pHat-weighted loss starting from wHat. The descent value stays above
// the true minimum, so the returned gap is a LOWER bound on the true
// duality gap (still non-negative, since descent starts at wHat) that
// tightens as innerSteps grows.
func DualityGap(m model.Model, wHat, pHat []float64, fed *data.Federation, P simplex.Set, innerSteps int, innerEta float64) float64 {
	losses := TrainLosses(m, wHat, fed)
	maxTerm, _ := MaxOverP(losses, P)
	w := append([]float64(nil), wHat...)
	grad := make([]float64, len(w))
	weighted := make([]float64, len(w))
	for s := 0; s < innerSteps; s++ {
		tensor.Zero(weighted)
		for e, area := range fed.Areas {
			if pHat[e] == 0 {
				continue
			}
			m.Grad(w, grad, area.Train.Xs, area.Train.Ys)
			tensor.Axpy(pHat[e], grad, weighted)
		}
		tensor.Axpy(-innerEta, weighted, w)
	}
	minTerm := 0.0
	finalLosses := TrainLosses(m, w, fed)
	for e := range fed.Areas {
		minTerm += pHat[e] * finalLosses[e]
	}
	return maxTerm - minTerm
}

// MoreauGradNormSq estimates ||∇Φ_{1/2L}(w)||² = 4L²·||w - x*||² where
// x* = argmin_x { Φ(x) + L·||x - w||² } and Φ(x) = max_{p in P} F(x, p)
// (§5.2). The inner minimization is approximated by innerSteps steps of
// subgradient descent on the proximal objective; a subgradient
// of Φ at x is the gradient of the pHat(x)-weighted loss at the
// maximizing pHat(x).
func MoreauGradNormSq(m model.Model, w []float64, fed *data.Federation, P simplex.Set, lSmooth float64, innerSteps int, innerEta float64) float64 {
	x := append([]float64(nil), w...)
	grad := make([]float64, len(w))
	sub := make([]float64, len(w))
	for s := 0; s < innerSteps; s++ {
		losses := TrainLosses(m, x, fed)
		_, pStar := MaxOverP(losses, P)
		tensor.Zero(sub)
		for e, area := range fed.Areas {
			if pStar[e] == 0 {
				continue
			}
			m.Grad(x, grad, area.Train.Xs, area.Train.Ys)
			tensor.Axpy(pStar[e], grad, sub)
		}
		// Proximal term gradient: 2L(x - w).
		for i := range sub {
			sub[i] += 2 * lSmooth * (x[i] - w[i])
		}
		tensor.Axpy(-innerEta, sub, x)
	}
	return 4 * lSmooth * lSmooth * tensor.SquaredDistance(w, x)
}
