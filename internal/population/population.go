// Package population implements the sparse million-client population
// layer: clients exist only as (seed, group, shard metadata) records
// until a round samples them, so registering a population costs O(1)
// memory and sampling a round costs O(sampled) — never O(population).
//
// Three deterministic functions define the layer; every engine derives
// them from the same inputs, so the core, simnet and baseline engines
// agree on who participates without any shared state:
//
//   - Group assignment. Client id belongs to edge id mod NumEdges. The
//     mapping is striped, so growing the population only appends new
//     clients to the ends of the per-edge rosters — existing clients
//     never move between edges (the stability property the Google SRE
//     deterministic-subsetting construction is built around).
//
//   - Round cohorts. Each (round, edge) pair selects Cohort clients
//     from the edge's subpopulation by consuming consecutive positions
//     of a per-edge lot stream: position q = round*Cohort + t lives in
//     lot q/S (S = subpopulation size) and maps through a seeded
//     Feistel permutation of [0,S) for that lot. Every lot is a full
//     permutation of the subpopulation, so each client is selected
//     exactly once per lot — participation frequency is exactly
//     uniform, with no global shuffle and O(1) work per selected
//     client (the SRE "lot" scheme with the shuffle replaced by an
//     index-computable cycle-walking permutation).
//
//   - Client data. A sampled client materializes its local dataset
//     lazily as ShardSize rows drawn (with replacement, from the
//     client's own seed) out of its edge's shared training corpus —
//     row aliases into the content-keyed dataset cache, never copies.
//
// All randomness mixes through the same SplitMix64 finalizer the rng
// package uses, keyed by constants distinct from the training stream
// tree, so population sampling never correlates with SGD noise.
package population

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/rng"
)

// DefaultShardSize is the number of corpus rows a sampled client
// materializes as its local dataset when the caller does not override
// ShardSize. Sized like the paper-scale dense shards (a few dozen rows
// per client) so population runs exercise the same SGD regime.
const DefaultShardSize = 64

// Roster is the sparse population: pure metadata, no per-client state.
// The zero value is not usable; construct with New (or fill every field)
// and treat it as an immutable value.
type Roster struct {
	// Seed roots every population-level draw (cohort permutations,
	// per-client shard seeds). Engines pass the run's config seed; the
	// internal mixing constants keep the derived streams disjoint from
	// the rng tree the training loop consumes.
	Seed uint64
	// Size is the number of registered clients.
	Size int
	// Edges is the number of edge areas; client id belongs to edge
	// id mod Edges.
	Edges int
	// Cohort is the number of clients each sampled edge slot trains per
	// round (clamped to the edge's subpopulation size).
	Cohort int
	// ShardSize is the number of rows in a sampled client's lazily
	// materialized local dataset.
	ShardSize int
}

// New builds a roster. Cohort is clamped by CohortSize per edge; shard
// size takes the default.
func New(seed uint64, size, edges, cohort int) Roster {
	return Roster{Seed: seed, Size: size, Edges: edges, Cohort: cohort, ShardSize: DefaultShardSize}
}

// Validate checks the roster invariants.
func (r Roster) Validate() error {
	if r.Size <= 0 {
		return fmt.Errorf("population: Size must be positive, got %d", r.Size)
	}
	if r.Edges <= 0 {
		return fmt.Errorf("population: Edges must be positive, got %d", r.Edges)
	}
	if r.Size < r.Edges {
		return fmt.Errorf("population: Size %d smaller than Edges %d (every edge needs at least one client)", r.Size, r.Edges)
	}
	if r.Cohort <= 0 {
		return fmt.Errorf("population: Cohort must be positive, got %d", r.Cohort)
	}
	if r.ShardSize <= 0 {
		return fmt.Errorf("population: ShardSize must be positive, got %d", r.ShardSize)
	}
	return nil
}

// EdgeOf returns the edge area client id belongs to. The striped
// assignment is stable under growth: appending clients never changes an
// existing client's edge.
func (r Roster) EdgeOf(id int) int { return id % r.Edges }

// EdgeSize returns the number of registered clients on edge e.
func (r Roster) EdgeSize(e int) int { return (r.Size - e + r.Edges - 1) / r.Edges }

// EdgeClient returns the global id of edge e's idx-th client.
func (r Roster) EdgeClient(e, idx int) int { return e + idx*r.Edges }

// CohortSize returns the per-slot cohort on edge e: Cohort clamped to
// the edge's subpopulation.
func (r Roster) CohortSize(e int) int {
	if s := r.EdgeSize(e); r.Cohort > s {
		return s
	}
	return r.Cohort
}

// CohortInto writes the global client ids of edge e's round-k cohort
// into dst (growing it if needed) and returns the cohort slice. The
// result is a pure function of (Seed, k, e): duplicate slots of the
// same edge in one round share a cohort (they diverge through their
// slot streams, exactly like dense duplicate slots sharing an area).
// Cost is O(CohortSize(e)) with zero allocations once dst has capacity.
func (r Roster) CohortInto(dst []int, k, e int) []int {
	m := r.CohortSize(e)
	s := r.EdgeSize(e)
	dst = dst[:0]
	edgeSeed := mix64(r.Seed ^ mix64(uint64(e)^edgeKey))
	base := uint64(k) * uint64(m)
	lot := base / uint64(s)
	lotSeed := mix64(edgeSeed ^ mix64(lot^lotKey))
	for t := 0; t < m; t++ {
		q := base + uint64(t)
		if l := q / uint64(s); l != lot {
			lot = l
			lotSeed = mix64(edgeSeed ^ mix64(lot^lotKey))
		}
		idx := permuteIndex(lotSeed, s, int(q%uint64(s)))
		dst = append(dst, r.EdgeClient(e, idx))
	}
	return dst
}

// ClientSeed returns client id's personal seed — the root of everything
// that is "this client's data" (its shard draws). Stable under
// population growth and independent of rounds.
func (r Roster) ClientSeed(id int) uint64 {
	return mix64(r.Seed ^ mix64(uint64(id)^clientKey))
}

// ShardScratch is caller-owned scratch for ShardInto: the row-alias
// tables reused across shard materializations. One ShardScratch serves
// one lane; the returned subsets alias it, so a shard is valid only
// until its scratch materializes the next client.
type ShardScratch struct {
	Xs [][]float64
	Ys []int
}

// ShardInto materializes client id's local dataset as row aliases into
// the edge corpus: ShardSize rows drawn with replacement from the
// client's seed. s is caller scratch (resized in place); the returned
// subset aliases corpus rows and the scratch backing arrays, so it is
// valid until the scratch is reused. Zero allocations once the scratch
// has capacity.
func (r Roster) ShardInto(id int, corpus data.Subset, s *ShardScratch) data.Subset {
	n := r.ShardSize
	if cap(s.Xs) < n {
		s.Xs = make([][]float64, n)
		s.Ys = make([]int, n)
	}
	bx, by := s.Xs[:n], s.Ys[:n]
	s.Xs, s.Ys = bx, by
	cr := rng.Root(r.ClientSeed(id))
	for i := 0; i < n; i++ {
		j := cr.Intn(corpus.Len())
		bx[i] = corpus.Xs[j]
		by[i] = corpus.Ys[j]
	}
	return data.Subset{Xs: bx, Ys: by}
}

// Mixing-key constants: arbitrary odd 64-bit values, distinct per
// derivation so edge, lot and client streams never collide.
const (
	edgeKey   = 0xa24baed4963ee407
	lotKey    = 0x9fb21c651e98df25
	clientKey = 0xd6e8feb86659fd93
)

// mix64 is the SplitMix64 finalizer (the same mixer internal/rng keys
// its child streams with): a full-avalanche bijection on uint64.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// permuteIndex maps position x through a seeded pseudorandom
// permutation of [0,n): four shear-transpose Feistel rounds over an
// a x b grid with a = floor(sqrt n) and b = ceil(n/a), cycle-walked
// back into [0,n). The grid overshoots n by less than a, so the
// expected walk is 1 + 1/sqrt(n) steps — per-sample cost is flat in n,
// where a binary-domain Feistel pays up to a 4x walk penalty that
// varies with where n falls between powers of two. Each round is a
// bijection of the grid (a shear of one axis composed with a
// transpose), so each lot visits every index exactly once.
func permuteIndex(seed uint64, n, x int) int {
	if n <= 1 {
		return 0
	}
	if n < 4 {
		// Grids this small degenerate (a = 1 shears nothing); a seeded
		// rotation is still a bijection with a randomized phase.
		return int((uint64(x) + mix64(seed)) % uint64(n))
	}
	a := uint64(math.Sqrt(float64(n)))
	for a*a > uint64(n) {
		a--
	}
	for (a+1)*(a+1) <= uint64(n) {
		a++
	}
	b := (uint64(n) + a - 1) / a
	y := uint64(x)
	for {
		ra, rb := a, b
		for rd := uint64(0); rd < 4; rd++ {
			u, v := y/ra, y%ra
			// v+mix may wrap mod 2^64; a contiguous run of ra integers
			// still hits every residue mod ra once, so the shear stays
			// a bijection of the v axis.
			v = (v + mix64(seed^mix64(rd^(u<<6)))) % ra
			y = v*rb + u
			ra, rb = rb, ra
		}
		if y < uint64(n) {
			return int(y)
		}
	}
}
