package tensor

import "testing"

func TestAverageInto(t *testing.T) {
	dst := make([]float64, 2)
	AverageInto(dst, []float64{1, 2}, []float64{3, 4}, []float64{5, 6})
	if dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("AverageInto = %v", dst)
	}
}
