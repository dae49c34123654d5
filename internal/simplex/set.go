// Package simplex implements the compact convex sets W and P of the
// HierMinimax formulation (Eq. 3) and Euclidean projections onto them.
//
// The paper allows W ⊆ R^d and P ⊆ Δ_{N_E-1} to be any compact convex
// sets (Assumption 1 bounds their diameters R_W and R_P). This package
// provides the sets used in the experiments — the full space (projection
// is the identity; used when W = R^d as in §6), Euclidean balls, the
// probability simplex, and the capped simplex {p ∈ Δ : p_i ≤ c} that
// realizes the paper's "more general P" footnote.
package simplex

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/tensor"
)

// Set is a compact (or trivially unbounded, for FullSpace) convex subset
// of R^d supporting Euclidean projection.
type Set interface {
	// Project overwrites x with the Euclidean projection of x onto the
	// set. It must be idempotent and a no-op for points already inside.
	Project(x []float64)
	// Contains reports whether x lies in the set up to tolerance tol.
	Contains(x []float64, tol float64) bool
}

// FullSpace is R^d: projection is the identity. The paper's experiments
// use W = R^d, relying on bounded gradients rather than a compact W.
type FullSpace struct{ Dim int }

// Project is the identity map.
func (FullSpace) Project([]float64) {}

// Contains always reports true.
func (FullSpace) Contains([]float64, float64) bool { return true }

func (f FullSpace) String() string { return fmt.Sprintf("R^%d", f.Dim) }

// Ball is the Euclidean ball of the given radius centered at the origin.
type Ball struct{ Radius float64 }

// Project scales x onto the ball if it lies outside.
func (b Ball) Project(x []float64) {
	n := tensor.Norm2(x)
	if n > b.Radius && n > 0 {
		tensor.Scale(b.Radius/n, x)
	}
}

// Contains reports ||x|| <= r + tol.
func (b Ball) Contains(x []float64, tol float64) bool {
	return tensor.Norm2(x) <= b.Radius+tol
}

func (b Ball) String() string { return fmt.Sprintf("Ball(r=%g)", b.Radius) }

// Simplex is the probability simplex Δ_{n-1} = {p >= 0 : sum p = 1}.
type Simplex struct{ Dim int }

// Project computes the Euclidean projection onto the simplex using the
// sort-and-threshold algorithm (Held, Wolfe, Crowder 1974; popularized by
// Duchi et al. 2008), O(n log n).
func (s Simplex) Project(x []float64) {
	projectSimplex(x, 1)
}

// Contains reports membership up to tol (componentwise non-negativity
// and unit sum).
func (s Simplex) Contains(x []float64, tol float64) bool {
	sum := 0.0
	for _, v := range x {
		if v < -tol {
			return false
		}
		sum += v
	}
	return math.Abs(sum-1) <= tol
}

func (s Simplex) String() string { return fmt.Sprintf("Delta_%d", s.Dim-1) }

// Uniform returns the barycenter [1/n, ..., 1/n].
func (s Simplex) Uniform() []float64 {
	p := make([]float64, s.Dim)
	tensor.Fill(p, 1/float64(s.Dim))
	return p
}

// projectSimplex projects x onto {p >= 0 : sum p = z} in place.
func projectSimplex(x []float64, z float64) {
	n := len(x)
	if n == 0 {
		return
	}
	if n == 1 {
		x[0] = z
		return
	}
	u := make([]float64, n)
	copy(u, x)
	sort.Sort(sort.Reverse(sort.Float64Slice(u)))
	css := 0.0
	rho := -1
	var theta float64
	for i := 0; i < n; i++ {
		css += u[i]
		t := (css - z) / float64(i+1)
		if u[i]-t > 0 {
			rho = i
			theta = t
		}
	}
	if rho < 0 {
		// Degenerate numeric input (e.g. all -Inf); fall back to uniform.
		tensor.Fill(x, z/float64(n))
		return
	}
	for i := range x {
		v := x[i] - theta
		if v < 0 {
			v = 0
		}
		x[i] = v
	}
}

// CappedSimplex is {p ∈ Δ_{n-1} : p_i <= Cap for all i}. With Cap >= 1 it
// reduces to the plain simplex; with Cap = 1/n it is the single point at
// the barycenter. It realizes the paper's general constraint set P used
// to encode prior knowledge or regularization (§3, footnote 1).
type CappedSimplex struct {
	Dim int
	Cap float64
}

// Feasible reports whether the set is non-empty (n*Cap >= 1).
func (c CappedSimplex) Feasible() bool {
	return float64(c.Dim)*c.Cap >= 1-1e-12
}

// Project computes the Euclidean projection onto the capped simplex by
// bisection on the dual variable: proj(x)_i = clip(x_i - tau, 0, Cap)
// where tau solves sum_i clip(x_i - tau, 0, Cap) = 1.
func (c CappedSimplex) Project(x []float64) {
	if !c.Feasible() {
		panic("simplex: infeasible capped simplex (Dim*Cap < 1)")
	}
	n := len(x)
	if n == 0 {
		return
	}
	sumClip := func(tau float64) float64 {
		s := 0.0
		for _, v := range x {
			w := v - tau
			if w < 0 {
				w = 0
			} else if w > c.Cap {
				w = c.Cap
			}
			s += w
		}
		return s
	}
	lo := tensor.Min(x) - c.Cap - 1 // sumClip(lo) >= min(n*Cap, large) >= 1
	hi := tensor.Max(x)             // sumClip(hi) = 0 <= 1
	// sumClip is non-increasing in tau; bisect to machine precision.
	for iter := 0; iter < 100; iter++ {
		mid := 0.5 * (lo + hi)
		if sumClip(mid) >= 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	tau := 0.5 * (lo + hi)
	total := 0.0
	for i, v := range x {
		w := v - tau
		if w < 0 {
			w = 0
		} else if w > c.Cap {
			w = c.Cap
		}
		x[i] = w
		total += w
	}
	// Renormalize the residual (O(1e-15)) onto unclamped coordinates to
	// return an exactly feasible point.
	if total > 0 && math.Abs(total-1) > 1e-15 {
		resid := 1 - total
		for i := range x {
			if x[i] > 0 && x[i] < c.Cap {
				x[i] += resid
				if x[i] < 0 {
					x[i] = 0
				} else if x[i] > c.Cap {
					x[i] = c.Cap
				}
				break
			}
		}
	}
}

// Contains reports membership up to tol.
func (c CappedSimplex) Contains(x []float64, tol float64) bool {
	sum := 0.0
	for _, v := range x {
		if v < -tol || v > c.Cap+tol {
			return false
		}
		sum += v
	}
	return math.Abs(sum-1) <= tol
}

func (c CappedSimplex) String() string {
	return fmt.Sprintf("CappedDelta_%d(cap=%g)", c.Dim-1, c.Cap)
}
