package quant

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Uniform is stochastic uniform quantization with 2^Bits levels over the
// vector's [min, max] range. Rounding is randomized so the quantizer is
// unbiased: E[Q(x)] = x. Wire size is Bits per element plus two float64
// scalars (range). It is the element-by-element definition of the
// regime, kept as the oracle that Config{Bits}.Pack
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

// The scalar reference the word-at-a-time kernels are held to: the
// element-by-element uniform pack and unpack with a branching
// stochastic round and a bit-at-a-time bitstream. Test oracle only.

// putCode writes the low `bits` bits of v at bit offset pos, LSB-first.
// The buffer must be pre-zeroed at the target bits.
func putCode(buf []byte, pos int, bits uint, v uint64) {
	for bits > 0 {
		off := uint(pos & 7)
		n := 8 - off
		if n > bits {
			n = bits
		}
		mask := byte(uint16(1)<<n - 1)
		buf[pos>>3] |= (byte(v) & mask) << off
		v >>= n
		pos += int(n)
		bits -= n
	}
}

// getCode reads `bits` bits at bit offset pos, LSB-first.
func getCode(buf []byte, pos int, bits uint) uint64 {
	var v uint64
	var got uint
	for got < bits {
		off := uint(pos & 7)
		n := 8 - off
		if n > bits-got {
			n = bits - got
		}
		mask := byte(uint16(1)<<n - 1)
		v |= uint64((buf[pos>>3]>>off)&mask) << got
		pos += int(n)
		got += n
	}
	return v
}

// refPackUniform is the reference pack: separate min and max passes, a
// branch on r.Float64() < frac, one putCode per element.
func refPackUniform(bits uint, x []float64, r *rng.Stream) (code []byte, lo, hi float64) {
	code = make([]byte, (len(x)*int(bits)+7)/8)
	if len(x) == 0 {
		return code, 0, 0
	}
	lo, hi = tensor.Min(x), tensor.Max(x)
	if hi == lo {
		return code, lo, hi
	}
	levels := float64(uint64(1)<<bits - 1)
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
		putCode(code, i*int(bits), bits, uint64(base))
	}
	return code, lo, hi
}

// refUnpackUniform is the reference unpack: one getCode per element.
func refUnpackUniform(bits uint, code []byte, lo, hi float64, x []float64) {
	if hi == lo {
		for i := range x {
			x[i] = lo
		}
		return
	}
	scale := (hi - lo) / float64(uint64(1)<<bits-1)
	for i := range x {
		x[i] = lo + float64(getCode(code, i*int(bits), bits))*scale
	}
}

// checkUniformAgainstReference packs and unpacks x at the given width
// with the kernels and with the reference from the same stream state
// and requires bit-identical codes, range, stream state and
// dequantized values, plus the canonical form the wire codec demands
// (trailing bits zero). The Packed starts with a dirty oversized code
// buffer: the kernel must not rely on pre-zeroed memory. It checks the
// scalar loops and, where the CPU has AVX2, the lane kernels.
func checkUniformAgainstReference(t *testing.T, input string, bits uint, seed uint64, x []float64) {
	t.Helper()
	forEachPath(func(lanes bool) {
		checkUniformPath(t, fmt.Sprintf("%s bits=%d d=%d lanes=%t", input, bits, len(x), lanes), bits, seed, x)
	})
}

// forEachPath runs f on the scalar loops and, where the CPU has AVX2, on
// the lane kernels, and restores the dispatch afterwards.
func forEachPath(f func(lanes bool)) {
	defer func(on bool) { useLanes = on }(useLanes)
	paths := []bool{false}
	if useLanes {
		paths = append(paths, true)
	}
	for _, lanes := range paths {
		useLanes = lanes
		f(lanes)
	}
}

func checkUniformPath(t *testing.T, where string, bits uint, seed uint64, x []float64) {
	t.Helper()
	d := len(x)
	refStream, stream := rng.New(seed), rng.New(seed)
	refCode, refLo, refHi := refPackUniform(bits, x, refStream)
	want := make([]float64, d)
	refUnpackUniform(bits, refCode, refLo, refHi, want)

	p := &Packed{Code: bytes.Repeat([]byte{0xFF}, len(refCode)+9)}
	if n := (Config{Bits: bits}).Pack(p, x, nil, stream); n != int64(len(refCode))+16 {
		t.Fatalf("%s: Pack priced %d bytes, want %d", where, n, len(refCode)+16)
	}
	if !bytes.Equal(p.Code, refCode) {
		t.Fatalf("%s: code bytes differ from the reference\n got %x\nwant %x", where, p.Code, refCode)
	}
	if math.Float64bits(p.Lo) != math.Float64bits(refLo) || math.Float64bits(p.Hi) != math.Float64bits(refHi) {
		t.Fatalf("%s: range [%v,%v], reference [%v,%v]", where, p.Lo, p.Hi, refLo, refHi)
	}
	if *stream != *refStream {
		t.Fatalf("%s: stream state differs from the reference after Pack", where)
	}
	if rem := uint(d) * bits % 8; rem != 0 && p.Code[len(p.Code)-1]>>rem != 0 {
		t.Fatalf("%s: trailing bits of the code stream are not zero", where)
	}
	got := make([]float64, d)
	for i := range got {
		got[i] = math.NaN() // every element must be written
	}
	p.UnpackInto(got)
	// Uniform.Quantize never forms codes, so it agrees wherever no NaN
	// arises: finite input on a grid whose step is a positive number.
	finite := d > 0
	for _, v := range x {
		finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if step := (refHi - refLo) / float64(uint64(1)<<bits-1); finite && (refHi == refLo || step > 0 && !math.IsInf(step, 0)) {
		inPlace := append([]float64(nil), x...)
		inPlaceStream := rng.New(seed)
		Uniform{Bits: bits}.Quantize(inPlace, inPlaceStream)
		if *inPlaceStream != *refStream {
			t.Fatalf("%s: Uniform.Quantize left the stream in a different state", where)
		}
		// Quantize leaves a constant vector as it is, so where +0 and -0
		// make it constant only the reference unpack says Lo everywhere.
		if refHi != refLo {
			want = inPlace
		}
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d unpacked to %v (%#x), reference %v (%#x)",
				where, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestUniformKernelsMatchReference sweeps every width over dimensions
// that straddle byte and word boundaries and over inputs that reach
// every arithmetic corner: an ordinary vector, a constant, one outlier
// that overflows the range to +Inf, ranges so small that scale is
// denormal or underflows to zero, and vectors holding ±Inf and NaN
// (leading and interior). Some inputs aim at the four-lane kernels:
// -0 and +0 in different lanes of the first quad as the minimum or the
// maximum (the first zero in element order decides the sign), a NaN as
// the first element of lane 1, 2 or 3, a NaN later in the lanes that
// hold the bounds (it must not displace them), and ±Inf in the elements
// past the last full quad.
func TestUniformKernelsMatchReference(t *testing.T) {
	// at clamps a lane index into a short vector.
	at := func(x []float64, i int) *float64 { return &x[min(i, len(x)-1)] }
	inputs := []struct {
		name string
		fill func(x []float64, r *rng.Stream)
	}{
		{"gaussian", func(x []float64, r *rng.Stream) { r.Fill(x, 2.5) }},
		{"constant", func(x []float64, r *rng.Stream) {
			for i := range x {
				x[i] = -1.25
			}
		}},
		{"outlier", func(x []float64, r *rng.Stream) {
			r.Fill(x, 1)
			x[len(x)/2] = 1e300
		}},
		{"overflow", func(x []float64, r *rng.Stream) {
			r.Fill(x, 1e307)
			x[0], x[len(x)-1] = -math.MaxFloat64, math.MaxFloat64
		}},
		{"denormal", func(x []float64, r *rng.Stream) { fillUniform(r, x, 0, 1e-310) }},
		{"underflow", func(x []float64, r *rng.Stream) {
			for i := range x {
				x[i] = float64(r.Intn(2)) * math.SmallestNonzeroFloat64
			}
		}},
		{"signed-zero", func(x []float64, r *rng.Stream) {
			fillUniform(r, x, 0, 1)
			x[0] = 0
			x[len(x)-1] = math.Copysign(0, -1)
		}},
		{"inf", func(x []float64, r *rng.Stream) {
			r.Fill(x, 1)
			x[len(x)/3] = math.Inf(1)
			x[len(x)/2] = math.Inf(-1)
		}},
		{"nan-interior", func(x []float64, r *rng.Stream) {
			r.Fill(x, 1)
			x[len(x)/2] = math.NaN()
			x[len(x)-1] = -math.NaN()
		}},
		{"nan-after-bounds", func(x []float64, r *rng.Stream) {
			r.Fill(x, 1)
			*at(x, 4), *at(x, 5) = -10, 10
			*at(x, 20), *at(x, 21) = math.NaN(), math.NaN()
		}},
		{"nan-leading", func(x []float64, r *rng.Stream) {
			r.Fill(x, 1)
			x[0] = math.NaN()
		}},
		{"zero-min-lanes", func(x []float64, r *rng.Stream) {
			fillUniform(r, x, 0.5, 1)
			*at(x, 2) = 0
			*at(x, 1) = math.Copysign(0, -1)
		}},
		{"zero-max-lanes", func(x []float64, r *rng.Stream) {
			fillUniform(r, x, -1, -0.5)
			*at(x, 3) = math.Copysign(0, -1)
			*at(x, 1) = 0
		}},
		{"nan-lane1", func(x []float64, r *rng.Stream) {
			r.Fill(x, 1)
			*at(x, 1) = math.NaN()
		}},
		{"nan-lane2", func(x []float64, r *rng.Stream) {
			r.Fill(x, 1)
			*at(x, 2) = math.NaN()
		}},
		{"nan-lane3", func(x []float64, r *rng.Stream) {
			r.Fill(x, 1)
			*at(x, 3) = -math.NaN()
		}},
		{"inf-tail", func(x []float64, r *rng.Stream) {
			r.Fill(x, 1)
			x[max(len(x)-2, 0)] = math.Inf(-1)
			x[len(x)-1] = math.Inf(1)
		}},
	}
	for bits := uint(1); bits <= 32; bits++ {
		for _, d := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 63, 64, 65, 7850} {
			for k, in := range inputs {
				x := make([]float64, d)
				if d > 0 {
					in.fill(x, rng.New(uint64(1000*d+k)))
				}
				checkUniformAgainstReference(t, in.name, bits, uint64(bits)<<20+uint64(d), x)
			}
		}
	}
}

// FuzzPackUniform drives the same equivalence from raw bytes: one byte
// of width, eight of stream seed, the rest reinterpreted as float64 bit
// patterns — NaN payloads, infinities and denormals included.
func FuzzPackUniform(f *testing.F) {
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0xF0, 0x3F, 0, 0, 0, 0, 0, 0, 0, 0x40})
	f.Add([]byte{12, 9, 9, 9, 9, 9, 9, 9, 9, 1, 0, 0, 0, 0, 0, 0xF8, 0x7F, 0, 0, 0, 0, 0, 0, 0xF0, 0xFF, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		bits := uint(data[0])%32 + 1
		seed := binary.LittleEndian.Uint64(data[1:])
		data = data[9:]
		x := make([]float64, len(data)/8)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkUniformAgainstReference(t, "fuzz", bits, seed, x)
	})
}

// benchUniform times one 8-bit op on the scalar loops and, where the
// CPU has AVX2, on the lane kernels, at d = 7850 (the logistic-regression
// model the wire-q8 workload ships); ns/op divided by 7850 is ns/element.
func benchUniform(b *testing.B, op func(p *Packed, x []float64, r *rng.Stream)) {
	r := rng.New(1)
	x := make([]float64, 7850)
	r.Fill(x, 1)
	p := GetPacked()
	defer PutPacked(p)
	(Config{Bits: 8}).Pack(p, x, nil, r)
	forEachPath(func(lanes bool) {
		name := "scalar"
		if lanes {
			name = "lanes"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op(p, x, r)
			}
		})
	})
}

func BenchmarkPackUniform8(b *testing.B) {
	benchUniform(b, func(p *Packed, x []float64, r *rng.Stream) { (Config{Bits: 8}).Pack(p, x, nil, r) })
}

func BenchmarkUnpackUniform8(b *testing.B) {
	back := make([]float64, 7850)
	benchUniform(b, func(p *Packed, _ []float64, _ *rng.Stream) { p.UnpackInto(back) })
}

// fillUniform overwrites dst with i.i.d. Uniform[lo, hi) samples of r.
func fillUniform(r *rng.Stream, dst []float64, lo, hi float64) {
	w := hi - lo
	for i := range dst {
		dst[i] = lo + w*r.Float64()
	}
}

func TestFillUniformRange(t *testing.T) {
	s := rng.New(24)
	buf := make([]float64, 10000)
	fillUniform(s, buf, -0.5, 0.5)
	for _, x := range buf {
		if x < -0.5 || x >= 0.5 {
			t.Fatalf("fillUniform out of range: %v", x)
		}
	}
}
