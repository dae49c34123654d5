package optim

import (
	"math"
	"testing"

	"repro/internal/simplex"
)

func TestAscentStepStaysInSimplex(t *testing.T) {
	p := []float64{0.5, 0.5}
	AscentStep(p, []float64{100, 0}, 1, simplex.Simplex{Dim: 2})
	if math.Abs(p[0]+p[1]-1) > 1e-9 || p[0] < p[1] {
		t.Fatalf("ascent step wrong: %v", p)
	}
	if p[0] != 1 {
		t.Fatalf("large gradient should saturate: %v", p)
	}
}

func TestConvexScheduleMonotonicInT(t *testing.T) {
	s1 := ConvexSchedule(100, 0, 1, 1)
	s2 := ConvexSchedule(10000, 0, 1, 1)
	if s2.EtaW >= s1.EtaW || s2.EtaP >= s1.EtaP {
		t.Fatal("rates must shrink with T")
	}
	if math.Abs(s1.EtaW-0.1) > 1e-12 {
		t.Fatalf("alpha=0 etaW = %v, want T^{-1/2}", s1.EtaW)
	}
	if math.Abs(s1.EtaP-0.1) > 1e-12 {
		t.Fatalf("alpha=0 etaP = %v, want T^{-1/2}", s1.EtaP)
	}
}

func TestConvexScheduleAlphaRegimes(t *testing.T) {
	T := 10000
	// alpha in (0, 1/4): etaW = T^{-(1-2a)}.
	s := ConvexSchedule(T, 0.1, 1, 1)
	want := math.Pow(float64(T), -0.8)
	if math.Abs(s.EtaW-want) > 1e-15 {
		t.Fatalf("etaW = %v, want %v", s.EtaW, want)
	}
	// alpha >= 1/4: etaW = T^{-1/2}.
	s = ConvexSchedule(T, 0.5, 1, 1)
	if math.Abs(s.EtaW-0.01) > 1e-15 {
		t.Fatalf("etaW = %v, want 0.01", s.EtaW)
	}
	// etaP = T^{-(1+a)/2}.
	if math.Abs(s.EtaP-math.Pow(float64(T), -0.75)) > 1e-15 {
		t.Fatalf("etaP = %v", s.EtaP)
	}
}

func TestSchedulePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { ConvexSchedule(0, 0, 1, 1) },
		func() { ConvexSchedule(10, -0.1, 1, 1) },
		func() { ConvexSchedule(10, 1, 1, 1) },
		func() { TausForAlpha(0, 0) },
		func() { TausForAlpha(10, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestTausForAlpha(t *testing.T) {
	t1, t2 := TausForAlpha(10000, 0)
	if t1 != 1 || t2 != 1 {
		t.Fatalf("alpha=0 gave (%d,%d)", t1, t2)
	}
	t1, t2 = TausForAlpha(10000, 0.5)
	// target = 100; balanced split = (10, 10).
	if t1*t2 < 90 || t1*t2 > 110 {
		t.Fatalf("alpha=0.5 gave tau1*tau2 = %d, want ~100", t1*t2)
	}
	if t1 < 1 || t2 < 1 {
		t.Fatal("non-positive taus")
	}
	// Larger alpha means more local work per cloud round.
	a1, a2 := TausForAlpha(4096, 0.25)
	b1, b2 := TausForAlpha(4096, 0.75)
	if a1*a2 >= b1*b2 {
		t.Fatalf("tau product not increasing in alpha: %d vs %d", a1*a2, b1*b2)
	}
}
