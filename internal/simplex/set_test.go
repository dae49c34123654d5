package simplex

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func sanitize(raw []float64, bound float64) []float64 {
	out := make([]float64, len(raw))
	for i, v := range raw {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[i] = math.Mod(v, bound)
	}
	return out
}

func TestSimplexProjectMembership(t *testing.T) {
	s := Simplex{Dim: 6}
	f := func(raw [6]float64) bool {
		x := sanitize(raw[:], 100)
		s.Project(x)
		return s.Contains(x, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSimplexProjectIdempotent(t *testing.T) {
	s := Simplex{Dim: 5}
	f := func(raw [5]float64) bool {
		x := sanitize(raw[:], 10)
		s.Project(x)
		y := append([]float64(nil), x...)
		s.Project(y)
		for i := range x {
			if math.Abs(x[i]-y[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSimplexProjectNoOpInside(t *testing.T) {
	s := Simplex{Dim: 4}
	x := []float64{0.1, 0.2, 0.3, 0.4}
	y := append([]float64(nil), x...)
	s.Project(y)
	for i := range x {
		if math.Abs(x[i]-y[i]) > 1e-12 {
			t.Fatalf("projection moved an interior point: %v -> %v", x, y)
		}
	}
}

func TestSimplexProjectKnownCases(t *testing.T) {
	s := Simplex{Dim: 3}
	cases := []struct{ in, want []float64 }{
		{[]float64{1, 0, 0}, []float64{1, 0, 0}},
		{[]float64{2, 0, 0}, []float64{1, 0, 0}},
		{[]float64{0.5, 0.5, 0.5}, []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}},
		{[]float64{-1, -1, -1}, []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}},
		{[]float64{1, 1, 0}, []float64{0.5, 0.5, 0}},
	}
	for _, c := range cases {
		x := append([]float64(nil), c.in...)
		s.Project(x)
		for i := range x {
			if math.Abs(x[i]-c.want[i]) > 1e-9 {
				t.Fatalf("Project(%v) = %v, want %v", c.in, x, c.want)
			}
		}
	}
}

// The projection must be the nearest feasible point. Compare against a
// fine brute-force search over the 2-simplex.
func TestSimplexProjectOptimality(t *testing.T) {
	s := Simplex{Dim: 3}
	st := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		x := make([]float64, 3)
		st.Fill(x, 2)
		proj := append([]float64(nil), x...)
		s.Project(proj)
		got := tensor.SquaredDistance(x, proj)
		// Brute force over a grid on the simplex.
		best := math.Inf(1)
		const grid = 200
		for i := 0; i <= grid; i++ {
			for j := 0; j <= grid-i; j++ {
				p := []float64{float64(i) / grid, float64(j) / grid, float64(grid-i-j) / grid}
				if d := tensor.SquaredDistance(x, p); d < best {
					best = d
				}
			}
		}
		if got > best+1e-3 {
			t.Fatalf("projection distance %v exceeds brute force %v for x=%v", got, best, x)
		}
	}
}

// Projection onto the simplex preserves coordinate order.
func TestSimplexProjectOrderPreserving(t *testing.T) {
	s := Simplex{Dim: 6}
	f := func(raw [6]float64) bool {
		x := sanitize(raw[:], 50)
		y := append([]float64(nil), x...)
		s.Project(y)
		for i := 0; i < len(x); i++ {
			for j := 0; j < len(x); j++ {
				if x[i] > x[j] && y[i] < y[j]-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSimplexUniform(t *testing.T) {
	s := Simplex{Dim: 8}
	u := s.Uniform()
	if !s.Contains(u, 1e-12) {
		t.Fatal("Uniform not in simplex")
	}
	for _, v := range u {
		if v != 0.125 {
			t.Fatalf("Uniform = %v", u)
		}
	}
}

func TestSimplexDegenerate(t *testing.T) {
	s := Simplex{Dim: 1}
	x := []float64{-7}
	s.Project(x)
	if x[0] != 1 {
		t.Fatalf("1-dim simplex projection = %v", x)
	}
	s0 := Simplex{Dim: 0}
	s0.Project(nil) // must not panic
}

func TestBall(t *testing.T) {
	b := Ball{Radius: 2}
	x := []float64{3, 4}
	b.Project(x)
	if !approxSlice(x, []float64{1.2, 1.6}, 1e-12) {
		t.Fatalf("Ball.Project = %v", x)
	}
	if !b.Contains(x, 1e-9) {
		t.Fatal("projected point not contained")
	}
	inside := []float64{0.1, 0.1}
	cp := append([]float64(nil), inside...)
	b.Project(cp)
	if !approxSlice(cp, inside, 0) {
		t.Fatal("Ball.Project moved interior point")
	}
}

func TestFullSpace(t *testing.T) {
	fs := FullSpace{Dim: 3}
	x := []float64{1e30, -5, 0}
	y := append([]float64(nil), x...)
	fs.Project(y)
	if !approxSlice(x, y, 0) {
		t.Fatal("FullSpace.Project must be identity")
	}
	if !fs.Contains(x, 0) {
		t.Fatal("FullSpace.Contains")
	}
}

func TestCappedSimplexMembership(t *testing.T) {
	c := CappedSimplex{Dim: 5, Cap: 0.4}
	f := func(raw [5]float64) bool {
		x := sanitize(raw[:], 20)
		c.Project(x)
		return c.Contains(x, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCappedSimplexReducesToSimplex(t *testing.T) {
	// With Cap >= 1 the capped simplex equals the simplex; projections
	// must agree.
	c := CappedSimplex{Dim: 4, Cap: 1}
	s := Simplex{Dim: 4}
	st := rng.New(9)
	for trial := 0; trial < 100; trial++ {
		x := make([]float64, 4)
		st.Fill(x, 3)
		a := append([]float64(nil), x...)
		b := append([]float64(nil), x...)
		c.Project(a)
		s.Project(b)
		if !approxSlice(a, b, 1e-7) {
			t.Fatalf("cap=1 projection %v disagrees with simplex %v", a, b)
		}
	}
}

func TestCappedSimplexTightCap(t *testing.T) {
	// Cap = 1/n forces the barycenter.
	c := CappedSimplex{Dim: 4, Cap: 0.25}
	x := []float64{10, 0, 0, -10}
	c.Project(x)
	for _, v := range x {
		if math.Abs(v-0.25) > 1e-6 {
			t.Fatalf("tight-cap projection = %v, want uniform", x)
		}
	}
}

func TestCappedSimplexOptimality(t *testing.T) {
	c := CappedSimplex{Dim: 3, Cap: 0.5}
	st := rng.New(11)
	for trial := 0; trial < 30; trial++ {
		x := make([]float64, 3)
		st.Fill(x, 2)
		proj := append([]float64(nil), x...)
		c.Project(proj)
		got := tensor.SquaredDistance(x, proj)
		best := math.Inf(1)
		const grid = 200
		for i := 0; i <= grid; i++ {
			for j := 0; j <= grid-i; j++ {
				p := []float64{float64(i) / grid, float64(j) / grid, float64(grid-i-j) / grid}
				if p[0] > 0.5 || p[1] > 0.5 || p[2] > 0.5 {
					continue
				}
				if d := tensor.SquaredDistance(x, p); d < best {
					best = d
				}
			}
		}
		if got > best+1e-3 {
			t.Fatalf("capped projection distance %v exceeds brute force %v for x=%v", got, best, x)
		}
	}
}

func TestCappedSimplexInfeasiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for infeasible capped simplex")
		}
	}()
	CappedSimplex{Dim: 3, Cap: 0.1}.Project([]float64{1, 2, 3})
}

func TestSetStrings(t *testing.T) {
	for _, s := range []fmt.Stringer{FullSpace{3}, Ball{2}, Simplex{5}, CappedSimplex{5, 0.3}} {
		if s.String() == "" {
			t.Fatalf("%T has empty String()", s)
		}
	}
}

func approxSlice(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func BenchmarkSimplexProject(b *testing.B) {
	s := Simplex{Dim: 100}
	st := rng.New(1)
	x := make([]float64, 100)
	st.Fill(x, 1)
	buf := make([]float64, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		s.Project(buf)
	}
}

func BenchmarkCappedSimplexProject(b *testing.B) {
	c := CappedSimplex{Dim: 100, Cap: 0.05}
	st := rng.New(1)
	x := make([]float64, 100)
	st.Fill(x, 1)
	buf := make([]float64, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		c.Project(buf)
	}
}
