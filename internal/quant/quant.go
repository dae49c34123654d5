// Package quant implements uplink compression of model vectors:
// unbiased stochastic uniform quantization — the extension of
// Hier-Local-QSGD (Liu et al., IEEE TWC 2023 [22]) that the paper cites
// as the quantized hierarchical counterpart of its setting — and top-k
// sparsification with error feedback. Engines and the A3 ablation
// select a regime with Config and ship vectors as Packed (compress.go);
// Uniform in this file is the scalar reference the packed kernels are
// tested against.
package quant

import (
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Uniform is stochastic uniform quantization with 2^Bits levels over the
// vector's [min, max] range. Rounding is randomized so the quantizer is
// unbiased: E[Q(x)] = x. Wire size is Bits per element plus two float64
// scalars (range). No engine calls it: it is the element-by-element
// definition of the regime, kept as the oracle that Config{Bits}.Pack
// followed by UnpackInto must reproduce bit for bit, stream draws
// included (TestUniformPackBitCompat, TestUniformKernelsMatchReference).
type Uniform struct {
	Bits uint // levels = 2^Bits; must be in [1, 32]
}

// Quantize replaces x with its dequantized compression — unbiased
// stochastic rounding onto the uniform grid, one stream draw per element
// unless the vector is constant — and returns the wire size in bits.
func (q Uniform) Quantize(x []float64, r *rng.Stream) int64 {
	if q.Bits < 1 || q.Bits > 32 {
		panic("quant: Bits outside [1,32]")
	}
	if len(x) == 0 {
		return 0
	}
	lo, hi := tensor.Min(x), tensor.Max(x)
	levels := float64(uint64(1)<<q.Bits - 1)
	if hi == lo {
		// Constant vector: exact at any bit width.
		return int64(len(x))*int64(q.Bits) + 128
	}
	scale := (hi - lo) / levels
	for i, v := range x {
		t := (v - lo) / scale
		base := math.Floor(t)
		frac := t - base
		if r.Float64() < frac {
			base++
		}
		if base > levels {
			base = levels
		}
		x[i] = lo + base*scale
	}
	return int64(len(x))*int64(q.Bits) + 128
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
