package fl

import (
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/simplex"
)

// TestLocalSGDScratchZeroAllocs pins the training hot path: once the
// scratch is warm, a full local-SGD block must not allocate at all.
func TestLocalSGDScratchZeroAllocs(t *testing.T) {
	m := model.NewLinear(4, 2)
	shard := toyShard(7, 40)
	W := simplex.FullSpace{Dim: m.Dim()}
	w := make([]float64, m.Dim())
	rng.New(1).Fill(w, 0.1)
	iterSum := make([]float64, m.Dim())
	wChk := make([]float64, m.Dim())
	r := rng.New(2)
	var s Scratch

	// Warm the scratch and the model's batched scratch.
	LocalSGDScratch(m, w, shard, 8, 4, 0.05, W, r, 3, iterSum, wChk, &s)

	allocs := testing.AllocsPerRun(100, func() {
		LocalSGDScratch(m, w, shard, 8, 4, 0.05, W, r, 3, iterSum, wChk, &s)
	})
	if allocs != 0 {
		t.Fatalf("LocalSGDScratch steady state allocates %.1f objects per run, want 0", allocs)
	}
}

// TestLocalSGDScratchMatchesLocalSGD checks the in-place entry point
// against the allocating wrapper: same stream draws, same trajectory,
// same checkpoint.
func TestLocalSGDScratchMatchesLocalSGD(t *testing.T) {
	m := model.NewLinear(4, 2)
	shard := toyShard(8, 30)
	W := simplex.FullSpace{Dim: m.Dim()}
	w0 := make([]float64, m.Dim())
	rng.New(3).Fill(w0, 0.2)

	wantFinal, wantChk := LocalSGD(m, w0, shard, 6, 3, 0.1, W, rng.New(4), 4, nil)

	w := append([]float64(nil), w0...)
	chk := make([]float64, m.Dim())
	if !LocalSGDScratch(m, w, shard, 6, 3, 0.1, W, rng.New(4), 4, nil, chk, new(Scratch)) {
		t.Fatal("LocalSGDScratch did not report a checkpoint at chkAt=4")
	}
	for i := range w {
		if w[i] != wantFinal[i] || chk[i] != wantChk[i] {
			t.Fatal("LocalSGDScratch diverged from LocalSGD")
		}
	}
}

// TestForEachWorkerPool checks the bounded pool: every index runs exactly
// once and observed concurrency never exceeds Workers.
func TestForEachWorkerPool(t *testing.T) {
	const n = 64
	for _, workers := range []int{0, 1, 2, 3, n + 10} {
		cfg := Config{Workers: workers}
		var hits [n]atomic.Int32
		var cur, peak atomic.Int32
		cfg.ForEach(n, func(i int) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			hits[i].Add(1)
			cur.Add(-1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
		if workers > 0 && int(peak.Load()) > workers {
			t.Fatalf("workers=%d: observed concurrency %d", workers, peak.Load())
		}
	}
}
