package tensor

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// forEachClass runs fn once under every kernel class, restoring the
// active class afterwards.
func forEachClass(t *testing.T, fn func(t *testing.T)) {
	for _, c := range Classes() {
		t.Run(c.String(), func(t *testing.T) {
			defer SetKernel(c)()
			fn(t)
		})
	}
}

func equalBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestKernelSetsComplete checks that every dispatch table binds every
// kernel it can be asked for: a nil func field would only surface as a
// nil call on the architecture whose table missed it (the non-amd64
// table is built in CI but never run there).
func TestKernelSetsComplete(t *testing.T) {
	sets := map[string]any{
		"genericKernels": genericKernels(), "fmaRefKernels[float64]": fmaRefKernels[float64](),
		"fmaRefKernels[float32]": fmaRefKernels[float32](), "fmaKernels32": fmaKernels32(),
	}
	for _, c := range Classes() {
		sets["kernelsFor("+c.String()+")"] = kernelsFor(c)
	}
	for _, rg := range testRungs(t) {
		sets["rung "+rg.name] = rg.impl
	}
	for setName, ks := range sets {
		v := reflect.ValueOf(ks)
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if f := v.Field(i); f.Kind() == reflect.Func && f.IsNil() {
				t.Errorf("%s: kernel %s is nil", setName, name)
			}
		}
	}
}

// firstDiff returns the first index at which a and b differ in their
// bits, or -1.
func firstDiff[T Float](a, b []T) int {
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return i
		}
	}
	return -1
}

// TestAxpyToMatchesCopyAxpy pins AxpyTo to copy(dst, y) + Axpy(a, x,
// dst) bit for bit in every class and on float32 operands, at lengths
// that are not multiples of the 16-wide unroll, with a separate
// destination and with dst == y and dst == x.
func TestAxpyToMatchesCopyAxpy(t *testing.T) {
	forEachClass(t, func(t *testing.T) { checkAxpyTo(t, fillSpecial) })
	t.Run("float32", func(t *testing.T) { checkAxpyTo(t, fillSpecial32) })
}

func checkAxpyTo[T Float](t *testing.T, fill func(*rng.Stream, []T)) {
	r := rng.New(41)
	for _, n := range []int{1, 3, 15, 17, 33, 100, 1001} {
		x, y := make([]T, n), make([]T, n)
		fill(r, x)
		fill(r, y)
		a := T((r.Float64() - 0.5) * 3)

		want := append([]T(nil), y...)
		Axpy(a, x, want)

		dst := make([]T, n)
		AxpyTo(dst, a, x, y)
		if i := firstDiff(dst, want); i >= 0 {
			t.Fatalf("n=%d: AxpyTo[%d] = %v, copy+Axpy %v", n, i, dst[i], want[i])
		}
		yy := append([]T(nil), y...)
		AxpyTo(yy, a, x, yy)
		if i := firstDiff(yy, want); i >= 0 {
			t.Fatalf("n=%d: AxpyTo(dst == y)[%d] differs", n, i)
		}
		xx := append([]T(nil), x...)
		AxpyTo(xx, a, xx, y)
		if i := firstDiff(xx, want); i >= 0 {
			t.Fatalf("n=%d: AxpyTo(dst == x)[%d] differs", n, i)
		}
	}
}

// TestGemmTNRStepMatchesGemmTNR pins the fused first-layer SGD step to
// Zero + GemmTNR + AxpyTo bit for bit in every class and on float32
// operands: on ReLU-masked coefficients, on batches that span several
// example blocks, with dst aliasing w, and with an Inf example row whose
// coefficient is zero — the skip must stay a skip, or fma(0, Inf, y)
// would write NaN.
func TestGemmTNRStepMatchesGemmTNR(t *testing.T) {
	forEachClass(t, func(t *testing.T) { checkGemmTNRStep(t, fillSpecial) })
	t.Run("float32", func(t *testing.T) { checkGemmTNRStep(t, fillSpecial32) })
}

func checkGemmTNRStep[T Float](t *testing.T, fill func(*rng.Stream, []T)) {
	r := rng.New(43)
	const m, cols, eta = 7, 784, 0.05
	newMat := func(rows, cols int) *Mat[T] { return &Mat[T]{Rows: rows, Cols: cols, Data: make([]T, rows*cols)} }
	randMat := func(rows, cols int) *Mat[T] {
		c := newMat(rows, cols)
		for i := range c.Data {
			c.Data[i] = T(r.Float64()*2 - 1)
		}
		return c
	}
	for _, n := range []int{13, 16, 37} {
		a := randMat(n, m)
		for i := range a.Data {
			if r.Intn(3) == 0 {
				a.Data[i] = 0 // ReLU mask
			}
		}
		yrows := make([][]T, n)
		for k := range yrows {
			yrows[k] = make([]T, cols)
			fill(r, yrows[k])
			for j, v := range yrows[k] {
				if math.IsInf(float64(v), 0) {
					yrows[k][j] = 1 // finite rows but for the one below
				}
			}
		}
		// Example 5 is an Inf row that only zero coefficients touch.
		for j := range yrows[5] {
			yrows[5][j] = T(math.Inf(1))
		}
		for i := 0; i < m; i++ {
			a.Data[5*m+i] = 0
		}
		w := randMat(m, cols)
		inv := 1 / T(n)

		g := newMat(m, cols)
		GemmTNR(inv, a, yrows, g)
		want := newMat(m, cols)
		AxpyTo(want.Data, -eta, g.Data, w.Data)

		dst := newMat(m, cols)
		GemmTNRStep(inv, a, yrows, eta, w, dst)
		if i := firstDiff(dst.Data, want.Data); i >= 0 {
			t.Fatalf("n=%d: GemmTNRStep[%d] = %v, GemmTNR+AxpyTo %v", n, i, dst.Data[i], want.Data[i])
		}
		for _, v := range dst.Data {
			if math.IsInf(float64(v), 0) || math.IsNaN(float64(v)) {
				t.Fatalf("n=%d: a zero coefficient let the Inf row in", n)
			}
		}
		GemmTNRStep(inv, a, yrows, eta, w, w)
		if i := firstDiff(w.Data, want.Data); i >= 0 {
			t.Fatalf("n=%d: GemmTNRStep(dst == w)[%d] differs", n, i)
		}
	}
}

// TestGemmTNRStepRaggedRowPanics: a ragged example row panics before
// any row of dst is written.
func TestGemmTNRStepRaggedRowPanics(t *testing.T) {
	r := rng.New(47)
	a := randMatrix(r, 3, 2)
	yrows := [][]float64{make([]float64, 5), make([]float64, 5), make([]float64, 4)}
	w := randMatrix(r, 2, 5)
	dst := NewMatrix(2, 5)
	Fill(dst.Data, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("GemmTNRStep accepted a ragged row")
		}
		for _, v := range dst.Data {
			if v != 7 {
				t.Fatal("GemmTNRStep wrote dst before panicking on a ragged row")
			}
		}
	}()
	GemmTNRStep(1, a, yrows, 0.1, w, dst)
}

// TestAverageIntoBlockedMatchesPasses pins AverageInto's mean kernel
// to its definition in every class: three whole-vector passes (Zero,
// one Axpy per input in list order, Scale) on the float64 classes, the
// same passes in float32 arithmetic on the storage tier — at lengths
// around the storage tier's column block.
func TestAverageIntoBlockedMatchesPasses(t *testing.T) {
	forEachClass(t, func(t *testing.T) {
		r := rng.New(59)
		for _, d := range []int{1, avgBlock - 1, avgBlock, 2*avgBlock + 5} {
			vecs := make([][]float64, 5)
			for i := range vecs {
				vecs[i] = make([]float64, d)
				r.Fill(vecs[i], 1)
				Round32(vecs[i])
			}
			want := make([]float64, d)
			if StorageF32() {
				w32 := make([]float32, d)
				for j := range w32 {
					for _, v := range vecs {
						w32[j] += float32(v[j])
					}
					want[j] = float64(w32[j] * (1 / float32(len(vecs))))
				}
			} else {
				for _, v := range vecs {
					Axpy(1, v, want)
				}
				Scale(1/float64(len(vecs)), want)
			}
			got := make([]float64, d)
			AverageInto(got, vecs...)
			if i := equalBits(got, want); i >= 0 {
				t.Fatalf("d=%d: AverageInto[%d] = %x, reference %x", d, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}
