package fltest

import (
	"math"
	"testing"
)

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, 2, 3}) {
		t.Fatal("finite slice reported non-finite")
	}
	if AllFinite([]float64{1, math.NaN()}) || AllFinite([]float64{math.Inf(1)}) {
		t.Fatal("non-finite slice reported finite")
	}
}
