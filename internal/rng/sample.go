package rng

import "sort"

// Categorical draws one index from the distribution given by weights.
// Weights must be non-negative and sum to a positive value; they need not
// be normalized. It panics on an all-zero or negative weight vector.
func (s *Stream) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative categorical weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: categorical weights sum to zero")
	}
	u := s.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	// Floating-point slack: return the last strictly-positive weight.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return len(weights) - 1
}

// SampleWeighted draws m indices i.i.d. from the categorical distribution
// defined by weights (sampling WITH replacement). This matches the edge
// sampling in HierMinimax Phase 1, whose unbiasedness argument requires
// independent draws by p.
func (s *Stream) SampleWeighted(m int, weights []float64) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = s.Categorical(weights)
	}
	return out
}

// SampleUniform draws m distinct indices uniformly from [0, n) (sampling
// WITHOUT replacement), returned sorted. This matches the Phase-2 edge
// sampling in HierMinimax. It panics if m > n.
func (s *Stream) SampleUniform(m, n int) []int {
	if m > n {
		panic("rng: SampleUniform m > n")
	}
	// Floyd's algorithm: O(m) expected work, no O(n) allocation.
	seen := make(map[int]bool, m)
	out := make([]int, 0, m)
	for j := n - m; j < n; j++ {
		t := s.Intn(j + 1)
		if seen[t] {
			t = j
		}
		seen[t] = true
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}
