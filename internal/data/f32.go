package data

import "sync"

// Float32 feature-row mirrors for the avx2f32 storage tier. The
// training fast path samples float32 aliases of the stored float64
// feature vectors; the mirrors are converted once per distinct row and
// cached for the life of the process (feature vectors are immutable
// after generation), so steady-state sampling allocates nothing.

// rowF32Cache maps a float64 feature row (keyed by the address of its
// first element — rows are never reallocated) to its float32 mirror.
// A concurrent map because engine workers sample shards in parallel;
// two workers converting the same row race benignly (both compute the
// same mirror, one wins LoadOrStore).
var rowF32Cache sync.Map // *float64 -> []float32

// RowF32 returns the cached float32 mirror of the feature row x,
// converting (one rounding per element) and caching on first use.
// Empty rows return nil.
func RowF32(x []float64) []float32 {
	if len(x) == 0 {
		return nil
	}
	key := &x[0]
	if m, ok := rowF32Cache.Load(key); ok {
		return m.([]float32)
	}
	m := make([]float32, len(x))
	for i, v := range x {
		m[i] = float32(v)
	}
	actual, _ := rowF32Cache.LoadOrStore(key, m)
	return actual.([]float32)
}

// mirrorCache maps a subset's row table (keyed by the address of its
// first row header — Xs is never reallocated after federation build) to
// the table of float32 mirrors, so the sampling hot path pays one
// concurrent-map lookup per batch instead of one per drawn row. Rows
// are mirrored through RowF32, so subsets sharing feature vectors share
// the mirrors too.
var mirrorCache sync.Map // *[]float64 -> [][]float32

// mirror32 returns the subset's full float32 mirror table, building and
// caching it on first use (two workers racing on the same subset both
// build the same table; one wins LoadOrStore).
func (s Subset) mirror32() [][]float32 {
	key := &s.Xs[0]
	if m, ok := mirrorCache.Load(key); ok {
		if t := m.([][]float32); len(t) == len(s.Xs) {
			return t
		}
		// The subset grew in place since the mirror was built (Append
		// within the backing array's capacity): rebuild below.
	}
	m := make([][]float32, len(s.Xs))
	for i, x := range s.Xs {
		m[i] = RowF32(x)
	}
	mirrorCache.Store(key, m)
	return m
}

// RowsF32 returns cached float32 mirrors for every row of xs, reusing
// (and growing when needed) dst. The batch-eval sibling of RowF32.
func RowsF32(dst [][]float32, xs [][]float64) [][]float32 {
	if cap(dst) < len(xs) {
		dst = make([][]float32, len(xs))
	}
	dst = dst[:len(xs)]
	for i, x := range xs {
		dst[i] = RowF32(x)
	}
	return dst
}
