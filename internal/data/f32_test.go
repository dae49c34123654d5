package data

import (
	"testing"

	"repro/internal/rng"
)

func toySubset(n, dim int) Subset {
	var s Subset
	r := rng.New(31)
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		r.Fill(x, 1)
		s.Append(x, i%3)
	}
	return s
}

// TestSampleInto32MatchesSampleInto pins the stream contract of the
// float32 fast path: the same seed draws the same examples as the
// float64 sampler, and each float32 row is the rounded mirror of its
// float64 source.
func TestSampleInto32MatchesSampleInto(t *testing.T) {
	s := toySubset(11, 6)
	batch := 16
	xs := make([][]float64, batch)
	ys := make([]int, batch)
	s.SampleInto(rng.New(5), xs, ys)

	xs32 := make([][]float32, batch)
	ys32 := make([]int, batch)
	SampleRows(s, rng.New(5), xs32, ys32)

	for i := range ys {
		if ys[i] != ys32[i] {
			t.Fatalf("draw %d: label %d vs %d — streams diverged", i, ys[i], ys32[i])
		}
		for j := range xs[i] {
			if xs32[i][j] != float32(xs[i][j]) {
				t.Fatalf("draw %d elem %d: %v is not the float32 mirror of %v", i, j, xs32[i][j], xs[i][j])
			}
		}
	}
}

// TestRowF32Cached pins the allocation contract of the mirror cache:
// repeated lookups of the same row return the identical slice.
func TestRowF32Cached(t *testing.T) {
	x := []float64{1.5, 2.25, -0.75}
	a := RowF32(x)
	b := RowF32(x)
	if &a[0] != &b[0] {
		t.Fatal("RowF32 did not return the cached mirror")
	}
	if RowF32(nil) != nil {
		t.Fatal("RowF32(nil) must be nil")
	}
	rows := RowsF32(nil, [][]float64{x, x})
	if len(rows) != 2 || &rows[0][0] != &a[0] || &rows[1][0] != &a[0] {
		t.Fatal("RowsF32 must reuse cached mirrors")
	}
}

// TestSampleInto32ReusedRowTable pins the pre-resolved-mirror contract
// that the population regime's lazily materialized shards rely on: when
// a subset's Xs row table is reused scratch (same backing array, row
// headers rewritten per client), the address-keyed mirror cache serves
// whichever rows it saw first, so such subsets must carry Xs32 and
// SampleRows must honor it.
func TestSampleInto32ReusedRowTable(t *testing.T) {
	corpus := toySubset(10, 4)
	scratch := make([][]float64, 3)
	ys := []int{0, 0, 0}

	view := func(lo int) Subset {
		for i := range scratch {
			scratch[i] = corpus.Xs[lo+i]
			ys[i] = corpus.Ys[lo+i]
		}
		return Subset{Xs: scratch, Ys: ys, Xs32: RowsF32(nil, scratch)}
	}

	xs32 := make([][]float32, 8)
	bys := make([]int, 8)
	for _, lo := range []int{0, 3, 6} {
		s := view(lo)
		SampleRows(s, rng.New(7), xs32, bys)
		for i, row := range xs32 {
			src := corpus.Xs[lo+indexOf(t, corpus, lo, bys[i], row)]
			for j := range row {
				if row[j] != float32(src[j]) {
					t.Fatalf("view at %d: draw %d is a stale mirror", lo, i)
				}
			}
		}
	}
}

// indexOf locates the corpus row (relative to lo) whose mirror row
// should be: the drawn label plus the mirrored first element identify
// it among the 3-row window.
func indexOf(t *testing.T, corpus Subset, lo, y int, row []float32) int {
	t.Helper()
	for k := 0; k < 3; k++ {
		if corpus.Ys[lo+k] == y && float32(corpus.Xs[lo+k][0]) == row[0] {
			return k
		}
	}
	t.Fatalf("drawn row not found in window at %d", lo)
	return -1
}
