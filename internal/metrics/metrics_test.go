package metrics

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/simplex"
	"repro/internal/tensor"
)

// tinyFederation builds a 3-area, linearly-separable federation.
func tinyFederation() (*data.Federation, model.Model) {
	f := &data.Federation{Name: "tiny", NumClasses: 3, InputDim: 3, Areas: make([]data.AreaData, 3)}
	r := rng.New(42)
	for e := 0; e < 3; e++ {
		var train, test data.Subset
		for i := 0; i < 30; i++ {
			x := make([]float64, 3)
			r.Fill(x, 0.2)
			x[e] += 2 // class-aligned coordinate
			train.Append(x, e)
			x2 := make([]float64, 3)
			r.Fill(x2, 0.2)
			x2[e] += 2
			test.Append(x2, e)
		}
		f.Areas[e] = data.AreaData{
			Clients: []data.Subset{train},
			Train:   train,
			Test:    test,
		}
	}
	return f, model.NewLinear(3, 3)
}

func TestEvaluateAreas(t *testing.T) {
	f, m := tinyFederation()
	w := make([]float64, m.Dim())
	ev := EvaluateAreas(m, w, f)
	if len(ev.Accuracy) != 3 || len(ev.Loss) != 3 {
		t.Fatal("wrong shapes")
	}
	// Zero weights: loss must be exactly ln(3) everywhere.
	for e, l := range ev.Loss {
		if math.Abs(l-math.Log(3)) > 1e-12 {
			t.Fatalf("area %d zero-model loss %v", e, l)
		}
	}
}

func TestTrainedModelEvaluates(t *testing.T) {
	f, m := tinyFederation()
	w := make([]float64, m.Dim())
	grad := make([]float64, m.Dim())
	for it := 0; it < 500; it++ {
		for _, area := range f.Areas {
			m.Grad(w, grad, area.Train.Xs, area.Train.Ys)
			tensor.Axpy(-0.3/3, grad, w)
		}
	}
	ev := EvaluateAreas(m, w, f)
	for e, a := range ev.Accuracy {
		if a < 0.9 {
			t.Fatalf("area %d accuracy %v after training", e, a)
		}
	}
	losses := TrainLosses(m, w, f)
	for e, l := range losses {
		if l > 0.5 {
			t.Fatalf("area %d train loss %v after training", e, l)
		}
	}
}

func TestSummaries(t *testing.T) {
	vals := []float64{0.9, 0.8, 0.7, 0.6}
	if Average(vals) != 0.75 {
		t.Fatal("Average")
	}
	if Worst(vals) != 0.6 {
		t.Fatal("Worst")
	}
	if got := WorstK(vals, 0.5); math.Abs(got-0.65) > 1e-12 {
		t.Fatalf("WorstK(0.5) = %v", got)
	}
	if got := WorstK(vals, 0.25); got != 0.6 {
		t.Fatalf("WorstK(0.25) = %v", got)
	}
	if got := WorstK(vals, 1); got != 0.75 {
		t.Fatalf("WorstK(1) = %v", got)
	}
	wantVar := tensor.Variance(vals) * 1e4
	if VarianceE4(vals) != wantVar {
		t.Fatal("VarianceE4")
	}
	s := Summarize(vals)
	if s.Average != 0.75 || s.Worst != 0.6 || s.Variance != wantVar {
		t.Fatalf("Summarize = %+v", s)
	}
}

func TestWorstKPanics(t *testing.T) {
	for _, f := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			WorstK([]float64{1}, f)
		}()
	}
}

func TestMaxOverPSimplex(t *testing.T) {
	losses := []float64{1, 5, 3}
	v, p := MaxOverP(losses, simplex.Simplex{Dim: 3})
	if v != 5 {
		t.Fatalf("max = %v", v)
	}
	if p[1] != 1 || p[0] != 0 || p[2] != 0 {
		t.Fatalf("argmax p = %v", p)
	}
}

func TestMaxOverPCapped(t *testing.T) {
	losses := []float64{1, 5, 3}
	v, p := MaxOverP(losses, simplex.CappedSimplex{Dim: 3, Cap: 0.5})
	// Greedy: 0.5 on loss 5, 0.5 on loss 3 => 2.5 + 1.5 = 4.
	if math.Abs(v-4) > 1e-12 {
		t.Fatalf("capped max = %v, want 4", v)
	}
	if math.Abs(p[1]-0.5) > 1e-12 || math.Abs(p[2]-0.5) > 1e-12 {
		t.Fatalf("capped argmax = %v", p)
	}
}

func TestMaxOverPGeneralSetMatchesGreedy(t *testing.T) {
	// The PGA fallback must agree with the closed form on a capped
	// simplex disguised as a generic Set.
	losses := []float64{2, 7, 4, 1}
	cs := simplex.CappedSimplex{Dim: 4, Cap: 0.4}
	want, _ := MaxOverP(losses, cs)
	got, p := MaxOverP(losses, wrapSet{cs})
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("PGA max %v, greedy %v", got, want)
	}
	if tensor.Min(p) < -1e-6 || tensor.Max(p) > cs.Cap+1e-6 || math.Abs(tensor.Sum(p)-1) > 1e-6 {
		t.Fatalf("PGA argmax infeasible: %v", p)
	}
}

// wrapSet hides the concrete type so MaxOverP takes the generic path.
type wrapSet struct{ simplex.Set }

func TestDualityGapNonNegativeAndShrinks(t *testing.T) {
	f, m := tinyFederation()
	P := simplex.Simplex{Dim: 3}
	pHat := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}

	w0 := make([]float64, m.Dim())
	gap0 := DualityGap(m, w0, pHat, f, P, 100, 0.2)
	if gap0 < 0 {
		t.Fatalf("duality gap negative at init: %v", gap0)
	}

	// Train to near optimum; the gap must shrink a lot.
	w := make([]float64, m.Dim())
	grad := make([]float64, m.Dim())
	for it := 0; it < 800; it++ {
		for _, area := range f.Areas {
			m.Grad(w, grad, area.Train.Xs, area.Train.Ys)
			tensor.Axpy(-0.3/3, grad, w)
		}
	}
	gap1 := DualityGap(m, w, pHat, f, P, 100, 0.2)
	if gap1 >= gap0/2 {
		t.Fatalf("duality gap did not shrink: %v -> %v", gap0, gap1)
	}
}

func TestMoreauGradNormShrinksWithTraining(t *testing.T) {
	f, _ := tinyFederation()
	m := model.NewMLP(3, 6, 4, 3)
	P := simplex.Simplex{Dim: 3}
	r := rng.New(5)
	w := make([]float64, m.Dim())
	m.Init(w, r)
	before := MoreauGradNormSq(m, w, f, P, 1.0, 30, 0.05)
	grad := make([]float64, m.Dim())
	for it := 0; it < 600; it++ {
		for _, area := range f.Areas {
			m.Grad(w, grad, area.Train.Xs, area.Train.Ys)
			tensor.Axpy(-0.1/3, grad, w)
		}
	}
	after := MoreauGradNormSq(m, w, f, P, 1.0, 30, 0.05)
	if after >= before {
		t.Fatalf("Moreau surrogate did not shrink: %v -> %v", before, after)
	}
}
