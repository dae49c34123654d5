package tensor

import (
	"sync/atomic"
	"testing"
)

func TestParallelForCoversAllIndices(t *testing.T) {
	const n = 10007
	var hits [n]int32
	ParallelFor(n, 16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestParallelForEmpty(t *testing.T) {
	called := false
	ParallelFor(0, 1, func(lo, hi int) { called = true })
	if called {
		t.Fatal("ParallelFor called fn for n=0")
	}
	ParallelFor(-3, 1, func(lo, hi int) { called = true })
	if called {
		t.Fatal("ParallelFor called fn for n<0")
	}
}

func TestParallelForSmallN(t *testing.T) {
	var count int32
	ParallelFor(1, 100, func(lo, hi int) {
		atomic.AddInt32(&count, int32(hi-lo))
	})
	if count != 1 {
		t.Fatalf("n=1 visited %d indices", count)
	}
}

func TestAverageInto(t *testing.T) {
	dst := make([]float64, 2)
	AverageInto(dst, []float64{1, 2}, []float64{3, 4}, []float64{5, 6})
	if dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("AverageInto = %v", dst)
	}
}
