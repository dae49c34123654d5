package quant

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestUniformStaysInRange(t *testing.T) {
	r := rng.New(2)
	x := make([]float64, 1000)
	r.Fill(x, 3)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range x {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	Uniform{Bits: 4}.Quantize(x, r)
	for _, v := range x {
		if v < lo-1e-12 || v > hi+1e-12 {
			t.Fatalf("quantized value %v outside original range [%v,%v]", v, lo, hi)
		}
	}
}

func TestUniformUnbiased(t *testing.T) {
	// E[Q(x)] = x: quantize the same vector many times and average.
	r := rng.New(3)
	orig := []float64{0.1, 0.37, -0.9, 0.5, 0.0}
	const trials = 20000
	sums := make([]float64, len(orig))
	for trial := 0; trial < trials; trial++ {
		x := append([]float64(nil), orig...)
		Uniform{Bits: 2}.Quantize(x, r)
		for i, v := range x {
			sums[i] += v
		}
	}
	for i := range sums {
		mean := sums[i] / trials
		if math.Abs(mean-orig[i]) > 0.01 {
			t.Fatalf("coordinate %d mean %v, want %v (biased quantizer)", i, mean, orig[i])
		}
	}
}

func TestUniformErrorShrinksWithBits(t *testing.T) {
	r := rng.New(4)
	orig := make([]float64, 500)
	r.Fill(orig, 1)
	mse := func(bits uint) float64 {
		x := append([]float64(nil), orig...)
		Uniform{Bits: bits}.Quantize(x, rng.New(99))
		s := 0.0
		for i := range x {
			d := x[i] - orig[i]
			s += d * d
		}
		return s / float64(len(x))
	}
	if !(mse(8) < mse(4) && mse(4) < mse(1)) {
		t.Fatalf("MSE not decreasing in bits: 1b=%v 4b=%v 8b=%v", mse(1), mse(4), mse(8))
	}
}

func TestUniformConstantVector(t *testing.T) {
	x := []float64{2, 2, 2}
	Uniform{Bits: 1}.Quantize(x, rng.New(5))
	for _, v := range x {
		if v != 2 {
			t.Fatalf("constant vector distorted: %v", x)
		}
	}
}

func TestUniformWireSize(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = float64(i)
	}
	bits := Uniform{Bits: 8}.Quantize(x, rng.New(6))
	if bits != 100*8+128 {
		t.Fatalf("wire bits = %d", bits)
	}
}

func TestUniformPanicsOnBadBits(t *testing.T) {
	for _, b := range []uint{0, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			Uniform{Bits: b}.Quantize([]float64{1, 2}, rng.New(1))
		}()
	}
}

func TestItoa(t *testing.T) {
	if itoa(0) != "0" || itoa(123) != "123" {
		t.Fatal("itoa")
	}
}
