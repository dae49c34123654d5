package tensor

import (
	"reflect"
	"testing"
	"testing/quick"
)

// Element access, copies and GemvT exist for the tests: the kernels
// and models index Data directly.

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	return m.Data[i*m.Cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.Data[i*m.Cols+j] = v
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: append([]float64(nil), m.Data...)}
}

// GemvT computes y = alpha*A^T*x + beta*y for a row-major A, by
// k-ascending Axpy over the rows: the accumulation order Gemm is pinned
// to (TestGemmBitwiseMatchesGemvT).
func GemvT(alpha float64, a *Matrix, x []float64, beta float64, y []float64) {
	checkLen(len(x), a.Rows)
	checkLen(len(y), a.Cols)
	if beta == 0 {
		Zero(y)
	} else if beta != 1 {
		Scale(beta, y)
	}
	for i := 0; i < a.Rows; i++ {
		Axpy(alpha*x[i], a.Row(i), y)
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 1, 5)
	m.Set(1, 2, 7)
	if m.At(0, 1) != 5 || m.At(1, 2) != 7 || m.At(0, 0) != 0 {
		t.Fatal("At/Set broken")
	}
	r := m.Row(1)
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row must be a view")
	}
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) == 42 {
		t.Fatal("Clone must deep copy")
	}
}

func TestMatrixFrom(t *testing.T) {
	buf := []float64{1, 2, 3, 4, 5, 6}
	m := MatrixFrom(buf, 2, 3)
	if m.At(1, 0) != 4 {
		t.Fatalf("row-major layout broken: %v", m.At(1, 0))
	}
	m.Set(0, 0, 99)
	if buf[0] != 99 {
		t.Fatal("MatrixFrom must not copy")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad buffer length")
		}
	}()
	MatrixFrom(buf, 3, 3)
}

func TestGemv(t *testing.T) {
	a := MatrixFrom([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	x := []float64{1, 1, 1}
	y := []float64{10, 20}
	Gemv(1, a, x, 0, y)
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("Gemv = %v", y)
	}
	Gemv(2, a, x, 1, y) // y = 2*A*x + y
	if y[0] != 18 || y[1] != 45 {
		t.Fatalf("Gemv with beta = %v", y)
	}
}

func TestGemvT(t *testing.T) {
	a := MatrixFrom([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	x := []float64{1, 2}
	y := make([]float64, 3)
	GemvT(1, a, x, 0, y)
	// A^T x = [1+8, 2+10, 3+12]
	if y[0] != 9 || y[1] != 12 || y[2] != 15 {
		t.Fatalf("GemvT = %v", y)
	}
	GemvT(1, a, x, 2, y)
	if y[0] != 27 || y[1] != 36 || y[2] != 45 {
		t.Fatalf("GemvT with beta = %v", y)
	}
}

func TestGemm(t *testing.T) {
	a := MatrixFrom([]float64{1, 2, 3, 4}, 2, 2)
	b := MatrixFrom([]float64{5, 6, 7, 8}, 2, 2)
	c := NewMatrix(2, 2)
	Gemm(1, a, b, 0, c)
	want := []float64{19, 22, 43, 50}
	for i, v := range c.Data {
		if v != want[i] {
			t.Fatalf("Gemm = %v, want %v", c.Data, want)
		}
	}
}

// TestGemmShapePanics checks that all five GEMM kernels panic on a shape
// mismatch, and the row-slice forms on a ragged row — even one whose
// coefficients are all zero — before they write C. beta = 0 and a
// nonzero C make any early write visible.
func TestGemmShapePanics(t *testing.T) {
	mat := func(rows, cols int) *Matrix {
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = float64(i + 1)
		}
		return m
	}
	rows := func(lens ...int) [][]float64 {
		rs := make([][]float64, len(lens))
		for i, n := range lens {
			rs[i] = mat(1, n).Data
		}
		return rs
	}
	// zeroRow1 is a 2×3 coefficient matrix whose second example is all
	// zeros, so the TN kernels have no term to apply from it.
	zeroRow1 := mat(2, 3)
	Zero(zeroRow1.Row(1))

	// Outputs, fresh per case: c for the Gemm/GemmT/GemmTR forms, g for
	// the GemmTN/GemmTNR forms.
	var c, g *Matrix
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Gemm", func() { Gemm(1, mat(2, 4), mat(5, 3), 0, c) }},
		{"GemmT", func() { GemmT(1, mat(2, 4), mat(3, 5), 0, c) }},
		{"GemmTR/shape", func() { GemmTR(1, rows(4, 4, 4), mat(3, 4), 0, c) }},
		{"GemmTR/ragged", func() { GemmTR(1, rows(4, 3), mat(3, 4), 0, c) }},
		{"GemmTN", func() { GemmTN(1, mat(2, 3), mat(3, 4), g) }},
		{"GemmTNR/shape", func() { GemmTNR(1, mat(2, 3), rows(4, 4, 4), g) }},
		{"GemmTNR/ragged", func() { GemmTNR(1, mat(2, 3), rows(4, 5), g) }},
		{"GemmTNR/ragged-zero", func() { GemmTNR(1, zeroRow1, rows(4, 5), g) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, g = mat(2, 3), mat(3, 4)
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
				if !reflect.DeepEqual(c, mat(2, 3)) || !reflect.DeepEqual(g, mat(3, 4)) {
					t.Fatal("C written before the panic")
				}
			}()
			tc.call()
		})
	}
}

// OuterAccum computes A += alpha * x * y^T where A is len(x) x len(y).
func OuterAccum(alpha float64, x, y []float64, a *Matrix) {
	checkLen(len(x), a.Rows)
	checkLen(len(y), a.Cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		Axpy(alpha*xi, y, a.Row(i))
	}
}

func TestOuterAccum(t *testing.T) {
	a := NewMatrix(2, 3)
	OuterAccum(2, []float64{1, 2}, []float64{3, 4, 5}, a)
	want := []float64{6, 8, 10, 12, 16, 20}
	for i, v := range a.Data {
		if v != want[i] {
			t.Fatalf("OuterAccum = %v, want %v", a.Data, want)
		}
	}
}

// Property: Gemv agrees with the naive triple loop.
func TestGemvAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rows := int(seed%5)&3 + 1
		cols := int(seed/7%5)&3 + 2
		a := NewMatrix(rows, cols)
		x := make([]float64, cols)
		for i := range a.Data {
			a.Data[i] = float64((int(seed)+i*37)%11) - 5
		}
		for i := range x {
			x[i] = float64((int(seed)+i*13)%7) - 3
		}
		y := make([]float64, rows)
		Gemv(1, a, x, 0, y)
		for i := 0; i < rows; i++ {
			s := 0.0
			for j := 0; j < cols; j++ {
				s += a.At(i, j) * x[j]
			}
			if !approx(y[i], s, 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A^T)^T x == A x via GemvT twice vs Gemv.
func TestGemmAssociatesWithGemv(t *testing.T) {
	// (A*B)*x == A*(B*x)
	f := func(seed int64) bool {
		n := 3
		a := NewMatrix(n, n)
		b := NewMatrix(n, n)
		x := make([]float64, n)
		for i := range a.Data {
			a.Data[i] = float64((int(seed)+i*31)%9) - 4
			b.Data[i] = float64((int(seed)+i*17)%9) - 4
		}
		for i := range x {
			x[i] = float64((int(seed)+i*5)%5) - 2
		}
		ab := NewMatrix(n, n)
		Gemm(1, a, b, 0, ab)
		lhs := make([]float64, n)
		Gemv(1, ab, x, 0, lhs)
		bx := make([]float64, n)
		Gemv(1, b, x, 0, bx)
		rhs := make([]float64, n)
		Gemv(1, a, bx, 0, rhs)
		for i := range lhs {
			if !approx(lhs[i], rhs[i], 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGemv(b *testing.B) {
	a := NewMatrix(128, 784)
	x := make([]float64, 784)
	y := make([]float64, 128)
	for i := range a.Data {
		a.Data[i] = float64(i % 13)
	}
	for i := range x {
		x[i] = float64(i % 7)
	}
	b.SetBytes(int64(8 * len(a.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemv(1, a, x, 0, y)
	}
}
