package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-12

func approx(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDot(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{5, 4, 3, 2, 1}
	if got := Dot(x, y); got != 35 {
		t.Fatalf("Dot = %v, want 35", got)
	}
}

func TestDotUnrolledTail(t *testing.T) {
	// Exercise both the unrolled body and the scalar tail.
	for n := 0; n < 17; n++ {
		x := make([]float64, n)
		y := make([]float64, n)
		want := 0.0
		for i := range x {
			x[i] = float64(i + 1)
			y[i] = float64(2 * i)
			want += x[i] * y[i]
		}
		if got := Dot(x, y); got != want {
			t.Fatalf("n=%d Dot=%v want %v", n, got, want)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpyScale(t *testing.T) {
	y := []float64{1, 1, 1}
	Axpy(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy = %v, want %v", y, want)
		}
	}
	Scale(0.5, y)
	want = []float64{1.5, 2.5, 3.5}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Scale = %v, want %v", y, want)
		}
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); !approx(got, 5, eps) {
		t.Fatalf("Norm2 = %v", got)
	}
	if Norm2(nil) != 0 {
		t.Fatal("Norm2(nil) != 0")
	}
	// Overflow guard: naive sum of squares would overflow.
	big := []float64{1e200, 1e200}
	if got := Norm2(big); math.IsInf(got, 0) || !approx(got, 1e200*math.Sqrt2, 1e-10) {
		t.Fatalf("Norm2 overflow guard failed: %v", got)
	}
	// Underflow guard.
	small := []float64{3e-200, 4e-200}
	if got := Norm2(small); !approx(got, 5e-200, 1e-10) {
		t.Fatalf("Norm2 underflow guard failed: %v", got)
	}
}

func TestSquaredDistance(t *testing.T) {
	if got := SquaredDistance([]float64{1, 2}, []float64{4, 6}); got != 25 {
		t.Fatalf("SquaredDistance = %v", got)
	}
}

func TestSumKahan(t *testing.T) {
	// 1 + 1e-16 added 1e6 times loses the small terms under naive
	// accumulation; Kahan keeps them.
	n := 1 << 20
	x := make([]float64, n+1)
	x[0] = 1
	for i := 1; i <= n; i++ {
		x[i] = 1e-16
	}
	got := Sum(x)
	want := 1 + float64(n)*1e-16
	if math.Abs(got-want) > 1e-18*float64(n) {
		t.Fatalf("Kahan Sum = %.20v, want %.20v", got, want)
	}
}

func TestMeanVariance(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(x); got != 5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Variance(x); got != 4 {
		t.Fatalf("Variance = %v", got)
	}
	if Variance([]float64{1}) != 0 || Mean(nil) != 0 {
		t.Fatal("degenerate Variance/Mean")
	}
}

func TestMinMaxArgMax(t *testing.T) {
	x := []float64{3, -1, 7, 7, 2}
	if Min(x) != -1 || Max(x) != 7 {
		t.Fatal("Min/Max wrong")
	}
	if ArgMax(x) != 2 {
		t.Fatalf("ArgMax = %d, want first max index 2", ArgMax(x))
	}
}

func TestLogSumExpStability(t *testing.T) {
	x := []float64{1000, 1000}
	got := LogSumExp(x)
	want := 1000 + math.Log(2)
	if !approx(got, want, 1e-12) {
		t.Fatalf("LogSumExp = %v, want %v", got, want)
	}
	y := []float64{-1e9, 0}
	if got := LogSumExp(y); !approx(got, 0, 1e-12) {
		t.Fatalf("LogSumExp = %v, want ~0", got)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw [6]float64) bool {
		x := raw[:]
		for i := range x {
			// Keep inputs finite and bounded.
			x[i] = math.Mod(x[i], 50)
			if math.IsNaN(x[i]) {
				x[i] = 0
			}
		}
		dst := make([]float64, len(x))
		Softmax(dst, x)
		s := 0.0
		for _, v := range dst {
			if v < 0 || v > 1 {
				return false
			}
			s += v
		}
		return approx(s, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{101, 102, 103}
	a := make([]float64, 3)
	b := make([]float64, 3)
	Softmax(a, x)
	Softmax(b, y)
	for i := range a {
		if !approx(a[i], b[i], 1e-12) {
			t.Fatalf("softmax not shift invariant: %v vs %v", a, b)
		}
	}
}

func TestReLUAndGrad(t *testing.T) {
	z := []float64{-1, 0, 2}
	out := make([]float64, 3)
	ReLU(out, z)
	if out[0] != 0 || out[1] != 0 || out[2] != 2 {
		t.Fatalf("ReLU = %v", out)
	}
	g := []float64{5, 5, 5}
	ReLUGrad(g, g, z)
	if g[0] != 0 || g[1] != 0 || g[2] != 5 {
		t.Fatalf("ReLUGrad = %v", g)
	}
}
