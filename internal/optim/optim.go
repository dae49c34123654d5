// Package optim provides projected gradient ascent on the edge weights
// p (Eq. 7) and the theorem-driven learning-rate schedules that realize
// the communication/convergence trade-off of §5. The SGD step on the
// model w (Eq. 4, with W = R^d) is model.Model.Step, run by the client
// step of internal/fl.
package optim

import (
	"math"

	"repro/internal/simplex"
	"repro/internal/tensor"
)

// AscentStep performs one projected gradient ascent step in place:
// p <- Proj_P(p + eta * grad), as in Eq. (7); the caller supplies the
// effective step (eta_p * tau1 * tau2 for HierMinimax).
func AscentStep(p, grad []float64, eta float64, P simplex.Set) {
	tensor.Axpy(eta, grad, p)
	P.Project(p)
}

// Schedule maps the training horizon T to learning rates.
type Schedule struct {
	// EtaW and EtaP are the model and weight learning rates.
	EtaW, EtaP float64
}

// ConvexSchedule returns the rates prescribed after Theorem 1 for
// tau1*tau2 in Theta(T^alpha):
//
//	eta_p = Theta(1/T^{(1+alpha)/2});
//	eta_w = Theta(1/T^{1-2alpha}) for alpha in (0, 1/4),
//	        Theta(1/T^{1/2})     for alpha in [1/4, 1) (and alpha = 0).
//
// scaleW and scaleP set the Theta constants.
func ConvexSchedule(T int, alpha, scaleW, scaleP float64) Schedule {
	if T <= 0 {
		panic("optim: non-positive horizon")
	}
	if alpha < 0 || alpha >= 1 {
		panic("optim: alpha outside [0,1)")
	}
	tf := float64(T)
	var etaW float64
	if alpha > 0 && alpha < 0.25 {
		etaW = scaleW / math.Pow(tf, 1-2*alpha)
	} else {
		etaW = scaleW / math.Sqrt(tf)
	}
	etaP := scaleP / math.Pow(tf, (1+alpha)/2)
	return Schedule{EtaW: etaW, EtaP: etaP}
}

// TausForAlpha picks (tau1, tau2) with tau1*tau2 ~ T^alpha and the two
// factors as balanced as possible, realizing the communication complexity
// Theta(T^{1-alpha}) of §5 for a horizon of T slots. It returns at least
// (1, 1).
func TausForAlpha(T int, alpha float64) (tau1, tau2 int) {
	if T <= 0 {
		panic("optim: non-positive horizon")
	}
	if alpha < 0 || alpha >= 1 {
		panic("optim: alpha outside [0,1)")
	}
	target := int(math.Round(math.Pow(float64(T), alpha)))
	if target < 1 {
		target = 1
	}
	// Balanced factorization: tau1 = floor(sqrt(target)) rounded to the
	// nearest divisor-ish split; exactness of tau1*tau2 == target is not
	// required by the theory (only the Theta order), so round tau2.
	tau1 = int(math.Sqrt(float64(target)))
	if tau1 < 1 {
		tau1 = 1
	}
	tau2 = (target + tau1 - 1) / tau1
	if tau2 < 1 {
		tau2 = 1
	}
	return tau1, tau2
}
