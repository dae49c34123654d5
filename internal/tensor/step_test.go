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
// kernel: a nil func field would only surface as a nil call on the
// architecture whose table missed it (the non-amd64 table is built in
// CI but never run there).
func TestKernelSetsComplete(t *testing.T) {
	sets := map[string]any{"genericKernels": genericKernels(), "fmaRefKernels": fmaRefKernels(), "kernels32": kernels32}
	for _, c := range Classes() {
		sets["kernelsFor("+c.String()+")"] = kernelsFor(c)
	}
	for name, ks := range sets {
		v := reflect.ValueOf(ks)
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Func && f.IsNil() {
				t.Errorf("%s: kernel %s is nil", name, v.Type().Field(i).Name)
			}
		}
	}
}

// TestAxpyToMatchesCopyAxpy pins AxpyTo to copy(dst, y) + Axpy(a, x,
// dst) bit for bit in every class, at lengths that are not multiples of
// the 16-wide unroll, with a separate destination and with dst == y and
// dst == x.
func TestAxpyToMatchesCopyAxpy(t *testing.T) {
	forEachClass(t, func(t *testing.T) {
		r := rng.New(41)
		for _, n := range []int{1, 3, 15, 17, 33, 100, 1001} {
			x, y := make([]float64, n), make([]float64, n)
			fillSpecial(r, x)
			fillSpecial(r, y)
			a := (r.Float64() - 0.5) * 3

			want := append([]float64(nil), y...)
			Axpy(a, x, want)

			dst := make([]float64, n)
			AxpyTo(dst, a, x, y)
			if i := equalBits(dst, want); i >= 0 {
				t.Fatalf("n=%d: AxpyTo[%d] = %x, copy+Axpy %x", n, i, math.Float64bits(dst[i]), math.Float64bits(want[i]))
			}
			yy := append([]float64(nil), y...)
			AxpyTo(yy, a, x, yy)
			if i := equalBits(yy, want); i >= 0 {
				t.Fatalf("n=%d: AxpyTo(dst == y)[%d] differs", n, i)
			}
			xx := append([]float64(nil), x...)
			AxpyTo(xx, a, xx, y)
			if i := equalBits(xx, want); i >= 0 {
				t.Fatalf("n=%d: AxpyTo(dst == x)[%d] differs", n, i)
			}
		}
	})
}

// TestGemmTNRStepMatchesGemmTNR pins the fused first-layer SGD step to
// Zero + GemmTNR + AxpyTo bit for bit in every class: on ReLU-masked
// coefficients, on batches that span several example blocks, with dst
// aliasing w, and with an Inf example row whose coefficient is zero —
// the skip must stay a skip, or fma(0, Inf, y) would write NaN.
func TestGemmTNRStepMatchesGemmTNR(t *testing.T) {
	forEachClass(t, func(t *testing.T) {
		r := rng.New(43)
		const m, cols, eta = 7, 784, 0.05
		for _, n := range []int{13, 16, 37} {
			a := randMatrix(r, n, m)
			for i := range a.Data {
				if r.Intn(3) == 0 {
					a.Data[i] = 0 // ReLU mask
				}
			}
			yrows := make([][]float64, n)
			for k := range yrows {
				yrows[k] = make([]float64, cols)
				fillSpecial(r, yrows[k])
				for j := range yrows[k] {
					if math.IsInf(yrows[k][j], 0) {
						yrows[k][j] = 1 // finite rows but for the one below
					}
				}
			}
			// Example 5 is an Inf row that only zero coefficients touch.
			for j := range yrows[5] {
				yrows[5][j] = math.Inf(1)
			}
			for i := 0; i < m; i++ {
				a.Data[5*m+i] = 0
			}
			w := randMatrix(r, m, cols)
			inv := 1 / float64(n)

			g := NewMatrix(m, cols)
			GemmTNR(inv, a, yrows, g)
			want := NewMatrix(m, cols)
			AxpyTo(want.Data, -eta, g.Data, w.Data)

			buf := make([]float64, cols)
			dst := NewMatrix(m, cols)
			GemmTNRStep(inv, a, yrows, eta, w, dst, buf)
			if i := equalBits(dst.Data, want.Data); i >= 0 {
				t.Fatalf("n=%d: GemmTNRStep[%d] = %x, GemmTNR+AxpyTo %x", n, i, math.Float64bits(dst.Data[i]), math.Float64bits(want.Data[i]))
			}
			if !AllFinite(dst.Data) {
				t.Fatalf("n=%d: a zero coefficient let the Inf row in", n)
			}
			GemmTNRStep(inv, a, yrows, eta, w, w, buf)
			if i := equalBits(w.Data, want.Data); i >= 0 {
				t.Fatalf("n=%d: GemmTNRStep(dst == w)[%d] differs", n, i)
			}
		}
	})
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
	GemmTNRStep(1, a, yrows, 0.1, w, dst, make([]float64, 5))
}

// TestAverageIntoBlockedMatchesPasses pins the column-blocked
// AverageInto to its definition in every class: three whole-vector
// passes (Zero, one Axpy per input in list order, Scale) on the float64
// classes, the same passes in float32 arithmetic on the storage tier —
// at lengths around the block size.
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
