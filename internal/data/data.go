// Package data provides the synthetic dataset generators and the
// heterogeneous partitioners for the paper's experiments.
//
// The paper evaluates on EMNIST-Digits, MNIST, Fashion-MNIST, Adult and
// the Synthetic dataset of Li et al. [19]. This module is offline, so the
// image datasets are substituted by Gaussian class-prototype generators
// with the same dimensionality (28×28 = 784 features, 10 classes) and an
// explicit difficulty structure (confusable class pairs, per-class noise
// inflation) that reproduces the property the experiments depend on:
// classes differ in hardness, so a uniformly-weighted model leaves some
// edge areas far behind and a minimax-fair model can trade a little
// average accuracy for a large worst-case gain. Adult is substituted by a
// census-like two-group generator and Synthetic is re-implemented from
// its published specification. See DESIGN.md §1.
package data

import (
	"fmt"

	"repro/internal/rng"
)

// Subset is a labelled sample set. Xs[i] is the feature vector of example
// i and Ys[i] its class.
type Subset struct {
	Xs [][]float64
	Ys []int
}

// Len returns the number of examples.
func (s Subset) Len() int { return len(s.Xs) }

// Append adds one example.
func (s *Subset) Append(x []float64, y int) {
	s.Xs = append(s.Xs, x)
	s.Ys = append(s.Ys, y)
}

// Sample draws a mini-batch of the given size uniformly with replacement
// using stream r. It panics on an empty subset.
func (s Subset) Sample(r *rng.Stream, batch int) ([][]float64, []int) {
	xs := make([][]float64, batch)
	ys := make([]int, batch)
	s.SampleInto(r, xs, ys)
	return xs, ys
}

// SampleInto fills xs and ys (which must have equal length, the batch
// size) with a uniform with-replacement draw using stream r, consuming
// exactly the same stream values as Sample. The allocation-free variant
// for the training hot path: xs entries are aliases of the stored
// feature vectors, not copies. It panics on an empty subset or length
// mismatch.
func (s Subset) SampleInto(r *rng.Stream, xs [][]float64, ys []int) {
	if s.Len() == 0 {
		panic("data: Sample from empty subset")
	}
	if len(xs) != len(ys) {
		panic("data: SampleInto length mismatch")
	}
	for i := range xs {
		j := r.Intn(s.Len())
		xs[i] = s.Xs[j]
		ys[i] = s.Ys[j]
	}
}

// LabelHistogram returns the per-class counts for classes in [0, numClasses).
func (s Subset) LabelHistogram(numClasses int) []int {
	h := make([]int, numClasses)
	for _, y := range s.Ys {
		h[y]++
	}
	return h
}

// Dataset is a complete labelled corpus.
type Dataset struct {
	Name       string
	NumClasses int
	InputDim   int
	Subset
}

// AreaData holds all data owned by one edge area: the clients' training
// shards (the paper assumes clients within an area share a distribution,
// §3), the union of those shards (used for exact edge-loss evaluation in
// tests and metrics), and the area's test set drawn from the same
// distribution.
type AreaData struct {
	// Clients[i] is the training shard of the i-th client in the area.
	Clients []Subset
	// Train is the union of all client shards.
	Train Subset
	// Test is the held-out set following the area's distribution; the
	// worst-case metrics of §6 are computed per area on these.
	Test Subset
}

// Federation is the complete data layout of one experiment: one AreaData
// per edge area.
type Federation struct {
	Name       string
	NumClasses int
	InputDim   int
	Areas      []AreaData
}

// NumAreas returns the number of edge areas N_E.
func (f *Federation) NumAreas() int { return len(f.Areas) }

// ClientsPerArea returns N0, panicking if areas are uneven (the paper
// assumes |N_e| = N0 for all e; generators in this package guarantee it).
func (f *Federation) ClientsPerArea() int {
	if len(f.Areas) == 0 {
		panic("data: empty federation")
	}
	n0 := len(f.Areas[0].Clients)
	for _, a := range f.Areas {
		if len(a.Clients) != n0 {
			panic("data: uneven clients per area")
		}
	}
	return n0
}

// Validate checks structural invariants: labels in range, consistent
// feature dimension, non-empty client shards and test sets.
func (f *Federation) Validate() error {
	if len(f.Areas) == 0 {
		return fmt.Errorf("data: federation %q has no areas", f.Name)
	}
	check := func(s Subset, what string) error {
		for i, x := range s.Xs {
			if len(x) != f.InputDim {
				return fmt.Errorf("data: %s example %d has dim %d, want %d", what, i, len(x), f.InputDim)
			}
			if y := s.Ys[i]; y < 0 || y >= f.NumClasses {
				return fmt.Errorf("data: %s example %d has label %d outside [0,%d)", what, i, y, f.NumClasses)
			}
		}
		if len(s.Xs) != len(s.Ys) {
			return fmt.Errorf("data: %s has %d features but %d labels", what, len(s.Xs), len(s.Ys))
		}
		return nil
	}
	for e, a := range f.Areas {
		if len(a.Clients) == 0 {
			return fmt.Errorf("data: area %d has no clients", e)
		}
		for c, shard := range a.Clients {
			if shard.Len() == 0 {
				return fmt.Errorf("data: area %d client %d has no data", e, c)
			}
			if err := check(shard, fmt.Sprintf("area %d client %d", e, c)); err != nil {
				return err
			}
		}
		if a.Test.Len() == 0 {
			return fmt.Errorf("data: area %d has no test data", e)
		}
		if err := check(a.Train, fmt.Sprintf("area %d train", e)); err != nil {
			return err
		}
		if err := check(a.Test, fmt.Sprintf("area %d test", e)); err != nil {
			return err
		}
	}
	return nil
}

// splitAmongClients deals s round-robin into n shards, preserving order.
func splitAmongClients(s Subset, n int) []Subset {
	shards := make([]Subset, n)
	for i := range s.Xs {
		c := i % n
		shards[c].Append(s.Xs[i], s.Ys[i])
	}
	return shards
}
