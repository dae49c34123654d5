package tensor

import "testing"

func TestGemmBetaPaths(t *testing.T) {
	a := MatrixFrom([]float64{1, 0, 0, 1}, 2, 2)
	b := MatrixFrom([]float64{1, 2, 3, 4}, 2, 2)
	c := MatrixFrom([]float64{10, 10, 10, 10}, 2, 2)
	Gemm(1, a, b, 1, c) // beta = 1: accumulate
	want := []float64{11, 12, 13, 14}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("beta=1 Gemm = %v", c.Data)
		}
	}
	Gemm(1, a, b, 0.5, c) // beta = 0.5: scale then accumulate
	want = []float64{6.5, 8, 9.5, 11}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("beta=0.5 Gemm = %v", c.Data)
		}
	}
}

func TestGemmSparseRows(t *testing.T) {
	// A sparse A row must contribute exact zeros (Gemm deliberately does
	// NOT skip zero coefficients — its contract is GemvT's k-ascending
	// accumulation, which always adds).
	a := MatrixFrom([]float64{0, 2, 0, 0}, 2, 2)
	b := MatrixFrom([]float64{1, 1, 1, 1}, 2, 2)
	c := NewMatrix(2, 2)
	Gemm(1, a, b, 0, c)
	want := []float64{2, 2, 0, 0}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("sparse Gemm = %v", c.Data)
		}
	}
}

func TestOuterAccumSkipsZeros(t *testing.T) {
	a := NewMatrix(2, 2)
	OuterAccum(1, []float64{0, 3}, []float64{1, 2}, a)
	want := []float64{0, 0, 3, 6}
	for i := range want {
		if a.Data[i] != want[i] {
			t.Fatalf("OuterAccum = %v", a.Data)
		}
	}
}

func TestCopyAndFill(t *testing.T) {
	dst := make([]float64, 3)
	Fill(dst, 7)
	for _, v := range dst {
		if v != 7 {
			t.Fatal("Fill failed")
		}
	}
}

func TestMinMaxPanicsOnEmpty(t *testing.T) {
	for _, fn := range []func(){
		func() { Min(nil) },
		func() { Max(nil) },
		func() { ArgMax(nil) },
		func() { LogSumExp(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on empty input")
				}
			}()
			fn()
		}()
	}
}

func TestAverageIntoPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AverageInto(make([]float64, 2))
}

func TestNewMatrixPanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(-1, 3)
}
