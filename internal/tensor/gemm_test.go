package tensor

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func randMatrix(r *rng.Stream, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if r.Intn(11) == 0 {
			m.Data[i] = 0 // exercise the zero-skip paths
		} else {
			m.Data[i] = r.NormFloat64()
		}
	}
	return m
}

func matricesClose(t *testing.T, name string, got, want *Matrix, tol float64) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape (%d,%d) != (%d,%d)", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		w := want.Data[i]
		// Relative tolerance: the naive loop and the unrolled kernels sum
		// in different orders, so low bits differ at large k.
		if math.Abs(v-w) > tol*(1+math.Abs(w)) {
			t.Fatalf("%s: element %d = %g, want %g", name, i, v, w)
		}
	}
}

func matricesEqualBits(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	for i, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %x, want %x (not bitwise equal)", name,
				i, math.Float64bits(v), math.Float64bits(want.Data[i]))
		}
	}
}

// naiveGemm is the textbook triple loop: C = alpha*A*B + beta*C.
func naiveGemm(alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.Data[i*a.Cols+k] * b.Data[k*b.Cols+j]
			}
			c.Data[i*c.Cols+j] = alpha*s + beta*c.Data[i*c.Cols+j]
		}
	}
}

// TestGemmAgainstNaive checks the blocked kernels against the textbook
// triple loop at shapes that span the blocking boundary (k both below
// and above one cache panel) with alpha/beta variations.
func TestGemmAgainstNaive(t *testing.T) {
	r := rng.New(7)
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 4}, {4, 48, 10}, {17, 33, 9},
		{2, gemmPanel + 13, 3}, // k larger than one panel
		{65, 7, 65},            // m and n larger than one panel at small k... panelDim(7)=585, keep blocked anyway
	}
	for _, s := range shapes {
		a := randMatrix(r, s.m, s.k)
		b := randMatrix(r, s.k, s.n)
		bt := NewMatrix(s.n, s.k) // b transposed, for GemmT
		for i := 0; i < s.k; i++ {
			for j := 0; j < s.n; j++ {
				bt.Data[j*s.k+i] = b.Data[i*s.n+j]
			}
		}
		for _, ab := range []struct{ alpha, beta float64 }{{1, 0}, {1, 1}, {-0.5, 2}, {2, 0.25}} {
			c0 := randMatrix(r, s.m, s.n)
			want := c0.Clone()
			naiveGemm(ab.alpha, a, b, ab.beta, want)

			got := c0.Clone()
			Gemm(ab.alpha, a, b, ab.beta, got)
			matricesClose(t, "Gemm", got, want, 1e-12)

			got = c0.Clone()
			GemmT(ab.alpha, a, bt, ab.beta, got)
			matricesClose(t, "GemmT", got, want, 1e-12)

			got = c0.Clone()
			rows := make([][]float64, s.m)
			for i := range rows {
				rows[i] = a.Row(i)
			}
			GemmTR(ab.alpha, rows, bt, ab.beta, got)
			matricesClose(t, "GemmTR", got, want, 1e-12)
		}

		// GemmTN: C += alpha*A^T*B with A (k×m) — compare against the
		// naive product of the explicit transpose.
		at := NewMatrix(s.k, s.m)
		for i := 0; i < s.m; i++ {
			for j := 0; j < s.k; j++ {
				at.Data[j*s.m+i] = a.Data[i*s.k+j]
			}
		}
		c0 := randMatrix(r, s.m, s.n)
		want := c0.Clone()
		naiveGemm(0.7, a, b, 1, want)
		got := c0.Clone()
		GemmTN(0.7, at, b, got)
		matricesClose(t, "GemmTN", got, want, 1e-12)

		got = c0.Clone()
		brows := make([][]float64, s.k)
		for i := range brows {
			brows[i] = b.Row(i)
		}
		GemmTNR(0.7, at, brows, got)
		matricesClose(t, "GemmTNR", got, want, 1e-12)
	}
}

// The bitwise tests below include the three layers of the paper's
// 784-300-100-10 MLP at the workload batch (16) and an odd tail (13):
// the shapes where panels and example blocks split for real.

// TestGemmTBitwiseMatchesDot pins the determinism contract: every GemmT
// output element is exactly alpha*Dot(row, row) + beta*c, bit for bit,
// regardless of blocking.
func TestGemmTBitwiseMatchesDot(t *testing.T) {
	r := rng.New(11)
	for _, s := range []struct{ m, k, n int }{
		{4, 48, 10}, {3, gemmPanel + 5, 7}, {1, 3, 13},
		{16, 784, 300}, {13, 784, 300}, {16, 300, 100}, {16, 100, 10},
	} {
		a := randMatrix(r, s.m, s.k)
		b := randMatrix(r, s.n, s.k)
		c0 := randMatrix(r, s.m, s.n)

		want := c0.Clone()
		for i := 0; i < s.m; i++ {
			for j := 0; j < s.n; j++ {
				want.Data[i*s.n+j] = 1.5*Dot(a.Row(i), b.Row(j)) + 0.5*want.Data[i*s.n+j]
			}
		}
		got := c0.Clone()
		GemmT(1.5, a, b, 0.5, got)
		matricesEqualBits(t, "GemmT vs Dot", got, want)
	}
}

// TestGemmBitwiseMatchesGemvT pins Gemm's accumulation to the
// k-ascending Axpy order of GemvT, column by column.
func TestGemmBitwiseMatchesGemvT(t *testing.T) {
	r := rng.New(13)
	for _, s := range []struct{ m, k, n int }{
		{5, 9, 12}, {2, gemmPanel + 3, 4},
		{16, 100, 300}, {13, 100, 300}, {16, 10, 100},
	} {
		a := randMatrix(r, s.m, s.k)
		b := randMatrix(r, s.k, s.n)

		want := NewMatrix(s.m, s.n)
		row := make([]float64, s.n)
		for i := 0; i < s.m; i++ {
			arow := a.Row(i)
			Zero(row)
			for k, aik := range arow {
				Axpy(2.5*aik, b.Row(k), row)
			}
			copy(want.Row(i), row)
		}
		got := randMatrix(r, s.m, s.n) // beta=0 must overwrite
		Gemm(2.5, a, b, 0, got)
		matricesEqualBits(t, "Gemm vs Axpy sequence", got, want)
	}
}

// TestGemmTNBitwiseMatchesOuterAccum pins GemmTN/GemmTNR to the
// example-ascending OuterAccum sequence of the per-example gradient
// path, including the zero-coefficient skip. A masked case zeroes the
// negative coefficients, as ReLUGrad does to the backpropagated rows.
func TestGemmTNBitwiseMatchesOuterAccum(t *testing.T) {
	r := rng.New(17)
	for _, s := range []struct {
		k, m, n int
		masked  bool
	}{
		{6, 10, 48, false}, {300, 10, 48, false},
		{16, 300, 784, false}, {16, 300, 784, true}, {13, 300, 784, true},
		{16, 100, 300, true}, {16, 10, 100, false},
	} {
		a := randMatrix(r, s.k, s.m)
		if s.masked {
			ReLU(a.Data, a.Data)
		}
		b := randMatrix(r, s.k, s.n)

		want := randMatrix(r, s.m, s.n)
		got := want.Clone()
		gotR := want.Clone()
		for i := 0; i < s.k; i++ {
			OuterAccum(0.3, a.Row(i), b.Row(i), want)
		}
		GemmTN(0.3, a, b, got)
		matricesEqualBits(t, "GemmTN vs OuterAccum", got, want)

		brows := make([][]float64, s.k)
		for i := range brows {
			brows[i] = b.Row(i)
		}
		GemmTNR(0.3, a, brows, gotR)
		matricesEqualBits(t, "GemmTNR vs OuterAccum", gotR, want)
	}
}

// TestCrossEntropyRowsBitwise checks the batched softmax/cross-entropy
// against the per-example scalar path, including running-total chaining
// across chunks.
func TestCrossEntropyRowsBitwise(t *testing.T) {
	r := rng.New(19)
	const n, c = 37, 10
	z := randMatrix(r, n, c)
	ys := make([]int, n)
	for i := range ys {
		ys[i] = r.Intn(c)
	}

	// Per-example reference in the active class's arithmetic: the loss
	// is LogSumExp either way (the fused path's max+log(sum) performs
	// the identical operation sequence), and the gradient row is
	// Softmax−onehot on the fused rungs versus the historical
	// exp(z−lse) two-pass form on the non-FMA rungs.
	wantTotal := 0.0
	wantDz := NewMatrix(n, c)
	for i := 0; i < n; i++ {
		zi := z.Row(i)
		lse := LogSumExp(zi)
		wantTotal += lse - zi[ys[i]]
		di := wantDz.Row(i)
		if kernels.fusedCE {
			Softmax(di, zi)
		} else {
			for j, v := range zi {
				di[j] = math.Exp(v - lse)
			}
		}
		di[ys[i]] -= 1
	}

	dz := NewMatrix(n, c)
	total := CrossEntropyRows(dz, z, ys, 0)
	if math.Float64bits(total) != math.Float64bits(wantTotal) {
		t.Fatalf("CrossEntropyRows total = %x, want %x", math.Float64bits(total), math.Float64bits(wantTotal))
	}
	matricesEqualBits(t, "CrossEntropyRows dz", dz, wantDz)

	if lt := CrossEntropyLossRows(z, ys, 0); math.Float64bits(lt) != math.Float64bits(wantTotal) {
		t.Fatalf("CrossEntropyLossRows = %x, want %x", math.Float64bits(lt), math.Float64bits(wantTotal))
	}

	// Chunked chaining: two chunks must reproduce the one-shot total.
	za := MatrixFrom(z.Data[:20*c], 20, c)
	zb := MatrixFrom(z.Data[20*c:], n-20, c)
	chained := CrossEntropyLossRows(zb, ys[20:], CrossEntropyLossRows(za, ys[:20], 0))
	if math.Float64bits(chained) != math.Float64bits(wantTotal) {
		t.Fatalf("chunked total = %x, want %x", math.Float64bits(chained), math.Float64bits(wantTotal))
	}

	// SoftmaxRows matches per-row Softmax.
	sm := NewMatrix(n, c)
	SoftmaxRows(sm, z)
	wantSm := NewMatrix(n, c)
	for i := 0; i < n; i++ {
		Softmax(wantSm.Row(i), z.Row(i))
	}
	matricesEqualBits(t, "SoftmaxRows", sm, wantSm)
}

// TestReshapeGrowOnly checks Reshape reuses capacity and grows when
// needed.
func TestReshapeGrowOnly(t *testing.T) {
	m := NewMatrix(4, 6)
	base := &m.Data[0]
	m.Reshape(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("shrink reshape got (%d,%d) len %d", m.Rows, m.Cols, len(m.Data))
	}
	if &m.Data[0] != base {
		t.Fatal("shrink reshape reallocated")
	}
	m.Reshape(8, 8)
	if m.Rows != 8 || m.Cols != 8 || len(m.Data) != 64 {
		t.Fatalf("grow reshape got (%d,%d) len %d", m.Rows, m.Cols, len(m.Data))
	}
}
