package tensor

import (
	"math"
	"math/big"
	"strings"
	"testing"

	"repro/internal/rng"
)

// The property suite for the float32 storage tier (KernelAVX2F32):
// fma32 against an exact big.Float oracle, the bound kernels32 set
// against the pure-Go fma32 twins bit for bit, the exp32 branch
// boundaries, the regime-boundary conversions, and the float32 GEMM /
// cross-entropy family against naive references.

// fillSpecial32 populates x with ordinary magnitudes, zeros,
// infinities, float32 subnormals and huge values.
func fillSpecial32(r *rng.Stream, x []float32) {
	for i := range x {
		switch r.Intn(12) {
		case 0:
			x[i] = 0
		case 1:
			x[i] = float32(math.Inf(1))
		case 2:
			x[i] = math.Float32frombits(1) // smallest subnormal
		case 3:
			x[i] = -3e38
		default:
			x[i] = float32((r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(9)-4)))
		}
	}
}

// fma32Oracle computes the correctly-rounded float32 a*b+c by exact
// big.Float arithmetic (inputs must be finite).
func fma32Oracle(a, b, c float32) float32 {
	ba := new(big.Float).SetPrec(200).SetFloat64(float64(a))
	bb := new(big.Float).SetPrec(200).SetFloat64(float64(b))
	bc := new(big.Float).SetPrec(200).SetFloat64(float64(c))
	ba.Mul(ba, bb) // exact: 48 significand bits
	ba.Add(ba, bc) // exact at prec 200 for float32-ranged inputs
	f, _ := ba.Float32()
	return f
}

// TestFMA32Oracle pins fma32 — the scalar twin of one VFMADD231PS lane
// and the foundation of the whole avx2f32 regime — to the exact
// big.Float rounding, across random significands, magnitude spreads
// that force cancellation and double-rounding midpoints, subnormals,
// and the non-finite propagation cases.
func TestFMA32Oracle(t *testing.T) {
	r := rng.New(41)
	randF32 := func() float32 {
		// Random sign/exponent/significand with exponents biased toward
		// the midpoint-rich middle range, plus occasional subnormals.
		bits := uint32(r.Uint64())
		exp := uint32(64 + r.Intn(128))
		if r.Intn(16) == 0 {
			exp = 0 // subnormal
		}
		bits = bits&0x807FFFFF | exp<<23
		return math.Float32frombits(bits)
	}
	for i := 0; i < 200000; i++ {
		a, b, c := randF32(), randF32(), randF32()
		got := fma32(a, b, c)
		want := fma32Oracle(a, b, c)
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("fma32(%x, %x, %x) = %x, oracle %x",
				math.Float32bits(a), math.Float32bits(b), math.Float32bits(c),
				math.Float32bits(got), math.Float32bits(want))
		}
	}
	// Non-finite propagation: NaN in, NaN out; Inf arithmetic per IEEE.
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	if v := fma32(nan, 1, 1); v == v {
		t.Fatalf("fma32(NaN,1,1) = %v, want NaN", v)
	}
	if v := fma32(inf, 2, 1); v != inf {
		t.Fatalf("fma32(+Inf,2,1) = %v, want +Inf", v)
	}
	if v := fma32(inf, 0, 1); v == v {
		t.Fatalf("fma32(+Inf,0,1) = %v, want NaN", v)
	}
	if v := fma32(3e38, 3e38, 0); v != inf {
		t.Fatalf("fma32(3e38,3e38,0) = %v, want +Inf (overflow)", v)
	}
}

// TestKernels32MatchReference pins the bound float32 kernel set (the
// assembly on AVX2+FMA hardware) to the fma32 pure-Go twins bit for
// bit, across every unroll/tail combination, unaligned base offsets
// and special values.
func TestKernels32MatchReference(t *testing.T) {
	r := rng.New(43)
	for _, n := range tailLengths {
		for _, off := range []int{0, 1, 3} {
			for rep := 0; rep < 3; rep++ {
				buf := func() []float32 {
					b := make([]float32, off+n)
					fillSpecial32(r, b)
					return b[off : off+n]
				}
				x, y0, y1, y2, y3 := buf(), buf(), buf(), buf(), buf()
				a := float32((r.Float64() - 0.5) * 3)

				if got, want := kernels32.dot(x, y0), dot32Ref(x, y0); math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("dot32(n=%d,off=%d) = %x, twin %x", n, off, math.Float32bits(got), math.Float32bits(want))
				}

				var q, p [4]float32
				q[0], q[1], q[2], q[3] = kernels32.dot4(x, y0, y1, y2, y3)
				p[0], p[1], p[2], p[3] = dot432Ref(x, y0, y1, y2, y3)
				for i := range q {
					if math.Float32bits(q[i]) != math.Float32bits(p[i]) {
						t.Fatalf("dot432(n=%d,off=%d)[%d] = %x, twin %x", n, off, i,
							math.Float32bits(q[i]), math.Float32bits(p[i]))
					}
				}

				yk := append([]float32(nil), y1...)
				yr := append([]float32(nil), y1...)
				kernels32.axpy(a, x, yk)
				axpy32Ref(a, x, yr)
				for i := range yk {
					if math.Float32bits(yk[i]) != math.Float32bits(yr[i]) {
						t.Fatalf("axpy32(n=%d,off=%d)[%d] = %x, twin %x", n, off, i,
							math.Float32bits(yk[i]), math.Float32bits(yr[i]))
					}
				}

				a1 := float32((r.Float64() - 0.5) * 3)
				a2 := float32((r.Float64() - 0.5) * 3)
				a3 := float32((r.Float64() - 0.5) * 3)
				yk = append([]float32(nil), y3...)
				yr = append([]float32(nil), y3...)
				kernels32.axpy4(a, a1, a2, a3, x, y0, y1, y2, yk)
				axpy432Ref(a, a1, a2, a3, x, y0, y1, y2, yr)
				for i := range yk {
					if math.Float32bits(yk[i]) != math.Float32bits(yr[i]) {
						t.Fatalf("axpy432(n=%d,off=%d)[%d] = %x, twin %x", n, off, i,
							math.Float32bits(yk[i]), math.Float32bits(yr[i]))
					}
				}

				shift := float32((r.Float64() - 0.5) * 20)
				ek := make([]float32, n)
				er := make([]float32, n)
				kernels32.expShift(ek, x, shift)
				expShift32Ref(er, x, shift)
				for i := range ek {
					if math.Float32bits(ek[i]) != math.Float32bits(er[i]) {
						t.Fatalf("expShift32(n=%d,off=%d)[%d] = %x, twin %x (x=%g)", n, off, i,
							math.Float32bits(ek[i]), math.Float32bits(er[i]), x[i])
					}
				}
			}
		}
	}
}

// TestFusedDots32MatchSingles pins the intra-class contract gemmT32Row
// relies on: dot432 accumulates each output in exactly dot32's order.
func TestFusedDots32MatchSingles(t *testing.T) {
	r := rng.New(47)
	for _, n := range tailLengths {
		x := make([]float32, n)
		fillSpecial32(r, x)
		ys := make([][]float32, 4)
		for i := range ys {
			ys[i] = make([]float32, n)
			fillSpecial32(r, ys[i])
		}
		q0, q1, q2, q3 := kernels32.dot4(x, ys[0], ys[1], ys[2], ys[3])
		for i, got := range []float32{q0, q1, q2, q3} {
			want := kernels32.dot(x, ys[i])
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("dot432 output %d (n=%d) = %x, single dot32 %x", i, n,
					math.Float32bits(got), math.Float32bits(want))
			}
		}
	}
}

// TestAxpy432MatchesSequentialAxpy pins the contract the GemmTN32 quad
// gathering relies on: fused axpy4 ≡ four sequential axpy passes.
func TestAxpy432MatchesSequentialAxpy(t *testing.T) {
	r := rng.New(53)
	for _, n := range tailLengths {
		xs := make([][]float32, 4)
		as := make([]float32, 4)
		for i := range xs {
			xs[i] = make([]float32, n)
			fillSpecial32(r, xs[i])
			as[i] = float32((r.Float64() - 0.5) * 3)
		}
		y := make([]float32, n)
		fillSpecial32(r, y)

		fused := append([]float32(nil), y...)
		kernels32.axpy4(as[0], as[1], as[2], as[3], xs[0], xs[1], xs[2], xs[3], fused)

		seq := append([]float32(nil), y...)
		for i := range xs {
			kernels32.axpy(as[i], xs[i], seq)
		}
		for i := range fused {
			if math.Float32bits(fused[i]) != math.Float32bits(seq[i]) {
				t.Fatalf("axpy432(n=%d)[%d] = %x, sequential %x", n, i,
					math.Float32bits(fused[i]), math.Float32bits(seq[i]))
			}
		}
	}
}

// TestAxpy32AliasedDst pins full aliasing (y is x): the assembly loads
// the x chunk before storing y, so the result must match the reference
// computed on separate buffers.
func TestAxpy32AliasedDst(t *testing.T) {
	r := rng.New(59)
	for _, n := range tailLengths {
		base := make([]float32, n)
		fillSpecial32(r, base)
		a := float32((r.Float64() - 0.5) * 3)

		aliased := append([]float32(nil), base...)
		kernels32.axpy(a, aliased, aliased)

		want := append([]float32(nil), base...)
		axpy32Ref(a, append([]float32(nil), base...), want)

		for i := range aliased {
			if math.Float32bits(aliased[i]) != math.Float32bits(want[i]) {
				t.Fatalf("aliased axpy32(n=%d)[%d] = %x, reference %x", n, i,
					math.Float32bits(aliased[i]), math.Float32bits(want[i]))
			}
		}
	}
}

// TestExpShift32Specials walks exp32's branch boundaries — overflow at
// exp32Hi, the flush fringe at exp32Lo, subnormal results on the
// k = −126 rungs, NaN and both infinities — through the bound kernel at
// a length covering the 16-wide body, the 8-wide step and the masked
// remainder, then checks exp32 stays a faithful exponential against
// float64 math.Exp.
func TestExpShift32Specials(t *testing.T) {
	specials := []float32{
		0, 1, -1, 88.7, 88.72, exp32Hi, 88.73, 89, 128,
		-87.3, exp32Lo, -87.34, -88, -100, -103.97, -104,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		0.5, -0.5, 1e-38, -1e-38, math.Float32frombits(1),
		-86.5, -87, 87.5, 88,
	}
	for _, shift := range []float32{0, 1.5, -2.25} {
		got := make([]float32, len(specials))
		want := make([]float32, len(specials))
		kernels32.expShift(got, specials, shift)
		expShift32Ref(want, specials, shift)
		for i := range got {
			gb, wb := math.Float32bits(got[i]), math.Float32bits(want[i])
			if gb != wb {
				t.Fatalf("expShift32 special x=%g shift=%g: %x, twin %x", specials[i], shift, gb, wb)
			}
		}
	}
	// Overflow/flush semantics.
	if v := exp32(exp32Hi); !math.IsInf(float64(v), 1) {
		t.Fatalf("exp32(exp32Hi) = %v, want +Inf", v)
	}
	if v := exp32(exp32Lo); v != 0 {
		t.Fatalf("exp32(exp32Lo) = %v, want 0", v)
	}
	if v := exp32(float32(math.NaN())); v == v {
		t.Fatalf("exp32(NaN) = %v, want NaN", v)
	}
	if v := exp32(float32(math.Inf(-1))); v != 0 {
		t.Fatalf("exp32(-Inf) = %v, want 0", v)
	}
	// Accuracy: within a few float32 ulp of the true exponential across
	// the normal-result range (subnormal results lose relative precision
	// by design — gradual underflow).
	r := rng.New(61)
	minNormal := float64(math.Float32frombits(0x00800000))
	for i := 0; i < 20000; i++ {
		x := float32((r.Float64() - 0.5) * 180)
		want := math.Exp(float64(x))
		if want < minNormal || want > math.MaxFloat32 {
			continue // outside the float32 normal-result range
		}
		got := float64(exp32(x))
		if rel := math.Abs(got-want) / want; rel > 5e-7 {
			t.Fatalf("exp32(%g) = %g, math.Exp = %g (rel %g)", x, got, want, rel)
		}
	}
}

// TestParseKernelUnknown pins the fail-fast contract for
// HIERFAIR_KERNEL typos: the exact error message names every valid
// class, and valid names parse to their classes.
func TestParseKernelUnknown(t *testing.T) {
	_, err := ParseKernel("avx512")
	if err == nil {
		t.Fatal("ParseKernel(avx512) succeeded, want error")
	}
	const want = `tensor: unknown HIERFAIR_KERNEL="avx512" (valid classes: avx2f32, avx2, sse2, generic)`
	if err.Error() != want {
		t.Fatalf("ParseKernel error = %q, want %q", err.Error(), want)
	}
	for _, c := range Classes() {
		got, err := ParseKernel(c.String())
		if err != nil || got != c {
			t.Fatalf("ParseKernel(%q) = %v, %v; want %v", c.String(), got, err, c)
		}
		if !strings.Contains(want, c.String()) {
			t.Fatalf("error message %q does not name class %v", want, c)
		}
	}
}

// TestStorageF32Regime pins the regime predicate and the element width
// the wire codec and topology ledger derive from it.
func TestStorageF32Regime(t *testing.T) {
	for _, c := range Classes() {
		restore := SetKernel(c)
		wantF32 := c == KernelAVX2F32
		if StorageF32() != wantF32 {
			t.Fatalf("StorageF32() under %v = %v", c, StorageF32())
		}
		wantBytes := 8
		if wantF32 {
			wantBytes = 4
		}
		if ElemBytes() != wantBytes {
			t.Fatalf("ElemBytes() under %v = %d, want %d", c, ElemBytes(), wantBytes)
		}
		restore()
	}
}

// TestRegimeConversions pins the regime-boundary helpers: Round32 is
// float32 rounding per element and idempotent; ToF32/ToF64 round-trip
// exactly on storage-representable values; StorageAdd is float32
// addition in the avx2f32 regime and bit-identical to the historical
// Axpy(1, src, dst) in the float64 regimes.
func TestRegimeConversions(t *testing.T) {
	r := rng.New(67)
	for _, n := range []int{0, 1, 7, 33} {
		x := make([]float64, n)
		fillSpecial(r, x)
		rounded := append([]float64(nil), x...)
		Round32(rounded)
		for i := range rounded {
			if w := float64(float32(x[i])); math.Float64bits(rounded[i]) != math.Float64bits(w) {
				t.Fatalf("Round32[%d] = %x, want %x", i, math.Float64bits(rounded[i]), math.Float64bits(w))
			}
		}
		again := append([]float64(nil), rounded...)
		Round32(again)
		for i := range again {
			if math.Float64bits(again[i]) != math.Float64bits(rounded[i]) {
				t.Fatalf("Round32 not idempotent at %d", i)
			}
		}

		// ToF32 then ToF64 is exact on rounded values.
		f32 := make([]float32, n)
		back := make([]float64, n)
		ToF32(f32, rounded)
		ToF64(back, f32)
		for i := range back {
			if math.Float64bits(back[i]) != math.Float64bits(rounded[i]) {
				t.Fatalf("ToF32/ToF64 round-trip[%d] = %x, want %x", i,
					math.Float64bits(back[i]), math.Float64bits(rounded[i]))
			}
		}

		// StorageAdd out of the f32 regime ≡ Axpy(1, src, dst).
		src := make([]float64, n)
		fillSpecial(r, src)
		for _, c := range []KernelClass{KernelGeneric, KernelSSE2, KernelAVX2} {
			restore := SetKernel(c)
			a := append([]float64(nil), x...)
			b := append([]float64(nil), x...)
			StorageAdd(a, src)
			Axpy(1, src, b)
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("StorageAdd under %v [%d] = %x, Axpy %x", c, i,
						math.Float64bits(a[i]), math.Float64bits(b[i]))
				}
			}
			restore()
		}
		// In the f32 regime: float32 addition per element, result
		// storage-representable.
		restore := SetKernel(KernelAVX2F32)
		srcR := append([]float64(nil), src...)
		Round32(srcR)
		a := append([]float64(nil), rounded...)
		StorageAdd(a, srcR)
		for i := range a {
			w := float64(float32(rounded[i]) + float32(srcR[i]))
			if math.Float64bits(a[i]) != math.Float64bits(w) {
				t.Fatalf("StorageAdd f32 regime [%d] = %x, want %x", i,
					math.Float64bits(a[i]), math.Float64bits(w))
			}
			if !math.IsNaN(a[i]) && float64(float32(a[i])) != a[i] {
				t.Fatalf("StorageAdd f32 regime [%d] = %v not storage-representable", i, a[i])
			}
		}
		restore()
	}
}

// TestAverageIntoRounds32 pins the aggregation chokepoint: under the
// avx2f32 regime AverageInto computes the native float32 average (one
// float32 add per input in list order, one float32 scale) and the
// result is storage-representable.
func TestAverageIntoRounds32(t *testing.T) {
	r := rng.New(71)
	n := 19
	vs := make([][]float64, 3)
	for i := range vs {
		vs[i] = make([]float64, n)
		r.Fill(vs[i], 1)
		// The regime only averages storage-representable vectors.
		Round32(vs[i])
	}
	dst := make([]float64, n)
	want := make([]float64, n)
	for i := range want {
		s := float32(0)
		for _, v := range vs {
			s += float32(v[i])
		}
		want[i] = float64(s * (float32(1) / float32(len(vs))))
	}

	restore := SetKernel(KernelAVX2F32)
	AverageInto(dst, vs...)
	restore()
	for i := range dst {
		if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
			t.Fatalf("AverageInto f32 regime [%d] = %x, want %x", i,
				math.Float64bits(dst[i]), math.Float64bits(want[i]))
		}
		if !math.IsNaN(dst[i]) && float64(float32(dst[i])) != dst[i] {
			t.Fatalf("AverageInto f32 regime [%d] = %v not storage-representable", i, dst[i])
		}
	}
}

func randMatrix32(r *rng.Stream, rows, cols int) *Matrix32 {
	m := &Matrix32{}
	m.Reshape(rows, cols)
	for i := range m.Data {
		if r.Intn(11) == 0 {
			m.Data[i] = 0 // exercise the zero-skip paths
		} else {
			m.Data[i] = float32(r.NormFloat64())
		}
	}
	return m
}

func matrices32Close(t *testing.T, name string, got *Matrix32, want *Matrix, tol float64) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape (%d,%d) != (%d,%d)", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		w := want.Data[i]
		if math.Abs(float64(v)-w) > tol*(1+math.Abs(w)) {
			t.Fatalf("%s: element %d = %g, want %g", name, i, v, w)
		}
	}
}

func toF64Matrix(m *Matrix32) *Matrix {
	o := NewMatrix(m.Rows, m.Cols)
	for i, v := range m.Data {
		o.Data[i] = float64(v)
	}
	return o
}

// TestGemm32AgainstNaive checks the float32 BLAS-3 family against the
// float64 textbook triple loop at shapes spanning the blocking
// boundary, and pins the row-slice forms (GemmTR32/GemmTNR32) bitwise
// to their matrix forms.
func TestGemm32AgainstNaive(t *testing.T) {
	r := rng.New(73)
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 4}, {4, 48, 10}, {17, 33, 9},
		{2, gemmPanel + 13, 3},
	}
	for _, s := range shapes {
		a := randMatrix32(r, s.m, s.k)
		b := randMatrix32(r, s.k, s.n)
		bt := &Matrix32{}
		bt.Reshape(s.n, s.k)
		for i := 0; i < s.k; i++ {
			for j := 0; j < s.n; j++ {
				bt.Data[j*s.k+i] = b.Data[i*s.n+j]
			}
		}
		a64, b64 := toF64Matrix(a), toF64Matrix(b)
		const tol = 2e-5

		for _, ab := range []struct{ alpha, beta float32 }{{1, 0}, {1, 1}, {-0.5, 2}} {
			c := randMatrix32(r, s.m, s.n)
			cw := toF64Matrix(c)
			Gemm32(ab.alpha, a, b, ab.beta, c)
			naiveGemm(float64(ab.alpha), a64, b64, float64(ab.beta), cw)
			matrices32Close(t, "Gemm32", c, cw, tol)

			c2 := randMatrix32(r, s.m, s.n)
			cw2 := toF64Matrix(c2)
			GemmT32(ab.alpha, a, bt, ab.beta, c2)
			naiveGemm(float64(ab.alpha), a64, b64, float64(ab.beta), cw2)
			matrices32Close(t, "GemmT32", c2, cw2, tol)

			// GemmTR32 with row views of a ≡ GemmT32, bit for bit.
			c3 := &Matrix32{}
			c3.Reshape(s.m, s.n)
			copy(c3.Data, c2.Data)
			// reset c3 to c2's pre-call contents
			c3b := randMatrix32(r, s.m, s.n)
			c3c := &Matrix32{}
			c3c.Reshape(s.m, s.n)
			copy(c3c.Data, c3b.Data)
			rows := make([][]float32, s.m)
			for i := range rows {
				rows[i] = a.Row(i)
			}
			GemmTR32(ab.alpha, rows, bt, ab.beta, c3b)
			GemmT32(ab.alpha, a, bt, ab.beta, c3c)
			for i := range c3b.Data {
				if math.Float32bits(c3b.Data[i]) != math.Float32bits(c3c.Data[i]) {
					t.Fatalf("GemmTR32 element %d = %x, GemmT32 %x", i,
						math.Float32bits(c3b.Data[i]), math.Float32bits(c3c.Data[i]))
				}
			}
		}

		// GemmTN32: C += alpha*A^T*B with A (k×m) — reuse a as (m×k)
		// transposed operand by building at (k×m).
		at := &Matrix32{}
		at.Reshape(s.k, s.m)
		for i := 0; i < s.m; i++ {
			for j := 0; j < s.k; j++ {
				at.Data[j*s.m+i] = a.Data[i*s.k+j]
			}
		}
		c4 := randMatrix32(r, s.m, s.n)
		cw4 := toF64Matrix(c4)
		GemmTN32(0.75, at, b, c4)
		naiveGemm(0.75, a64, b64, 1, cw4)
		matrices32Close(t, "GemmTN32", c4, cw4, tol)

		// GemmTNR32 with row views of b ≡ GemmTN32, bit for bit.
		c5 := randMatrix32(r, s.m, s.n)
		c6 := &Matrix32{}
		c6.Reshape(s.m, s.n)
		copy(c6.Data, c5.Data)
		brows := make([][]float32, s.k)
		for i := range brows {
			brows[i] = b.Row(i)
		}
		GemmTNR32(0.75, at, brows, c5)
		GemmTN32(0.75, at, b, c6)
		for i := range c5.Data {
			if math.Float32bits(c5.Data[i]) != math.Float32bits(c6.Data[i]) {
				t.Fatalf("GemmTNR32 element %d = %x, GemmTN32 %x", i,
					math.Float32bits(c5.Data[i]), math.Float32bits(c6.Data[i]))
			}
		}
	}
}

func matrices32EqualBits(t *testing.T, name string, got, want *Matrix32) {
	t.Helper()
	for i, v := range got.Data {
		if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %x, want %x (not bitwise equal)", name,
				i, math.Float32bits(v), math.Float32bits(want.Data[i]))
		}
	}
}

func clone32(m *Matrix32) *Matrix32 {
	c := &Matrix32{}
	c.Reshape(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// TestGemm32BitwiseMatchesAxpySequence pins Gemm32 to the k-ascending
// single axpy32 accumulation of each output row. k = 9, 10 and
// gemmPanel+3 end in a one-, two- and three-term tail after the fused
// quads; 16×100×300 is the MLP's dA1 = dZ2·W2.
func TestGemm32BitwiseMatchesAxpySequence(t *testing.T) {
	r := rng.New(83)
	for _, s := range []struct{ m, k, n int }{
		{5, 9, 12}, {16, 10, 100}, {2, gemmPanel + 3, 4}, {16, 100, 300},
	} {
		a := randMatrix32(r, s.m, s.k)
		b := randMatrix32(r, s.k, s.n)
		want := &Matrix32{}
		want.Reshape(s.m, s.n)
		for i := 0; i < s.m; i++ {
			for k, aik := range a.Row(i) {
				kernels32.axpy(2.5*aik, b.Row(k), want.Row(i))
			}
		}
		got := randMatrix32(r, s.m, s.n) // beta=0 must overwrite
		Gemm32(2.5, a, b, 0, got)
		matrices32EqualBits(t, "Gemm32 vs axpy32 sequence", got, want)
	}
}

// TestGemmT32BitwiseMatchesDot32 pins every GemmT32 output element to
// alpha*dot32(row, row) + beta*c, bit for bit, at the MLP's layer
// shapes as well as across a panel boundary.
func TestGemmT32BitwiseMatchesDot32(t *testing.T) {
	r := rng.New(89)
	for _, s := range []struct{ m, k, n int }{
		{4, 48, 10}, {3, gemmPanel + 5, 7},
		{16, 784, 300}, {13, 784, 300}, {16, 300, 100}, {16, 100, 10},
	} {
		a := randMatrix32(r, s.m, s.k)
		b := randMatrix32(r, s.n, s.k)
		c0 := randMatrix32(r, s.m, s.n)
		want := clone32(c0)
		for i := 0; i < s.m; i++ {
			for j := 0; j < s.n; j++ {
				want.Data[i*s.n+j] = 1.5*kernels32.dot(a.Row(i), b.Row(j)) + 0.5*want.Data[i*s.n+j]
			}
		}
		got := clone32(c0)
		GemmT32(1.5, a, b, 0.5, got)
		matrices32EqualBits(t, "GemmT32 vs dot32", got, want)
	}
}

// TestGemmTN32BitwiseMatchesAxpySequence pins GemmTN32/GemmTNR32 to the
// example-ascending single axpy32 sequence with the zero-coefficient
// skip; masked cases zero the negative coefficients as ReLUGrad32 does.
func TestGemmTN32BitwiseMatchesAxpySequence(t *testing.T) {
	r := rng.New(97)
	for _, s := range []struct {
		k, m, n int
		masked  bool
	}{
		{6, 10, 48, false}, {300, 10, 48, false},
		{16, 300, 784, true}, {13, 300, 784, true}, {16, 100, 300, true}, {16, 10, 100, false},
	} {
		a := randMatrix32(r, s.k, s.m)
		if s.masked {
			ReLU32(a.Data, a.Data)
		}
		b := randMatrix32(r, s.k, s.n)
		c0 := randMatrix32(r, s.m, s.n)
		want := clone32(c0)
		for k := 0; k < s.k; k++ {
			for i, aki := range a.Row(k) {
				if aki != 0 {
					kernels32.axpy(0.3*aki, b.Row(k), want.Row(i))
				}
			}
		}
		got := clone32(c0)
		GemmTN32(0.3, a, b, got)
		matrices32EqualBits(t, "GemmTN32 vs axpy32 sequence", got, want)

		brows := make([][]float32, s.k)
		for i := range brows {
			brows[i] = b.Row(i)
		}
		got = clone32(c0)
		GemmTNR32(0.3, a, brows, got)
		matrices32EqualBits(t, "GemmTNR32 vs axpy32 sequence", got, want)
	}
}

// TestCrossEntropyRows32 checks the fused float32 softmax/cross-entropy
// against a naive float64 per-example reference.
func TestCrossEntropyRows32(t *testing.T) {
	r := rng.New(79)
	for _, shape := range []struct{ rows, cols int }{{1, 2}, {4, 10}, {7, 33}} {
		z := randMatrix32(r, shape.rows, shape.cols)
		Scale32(6, z.Data) // spread logits
		ys := make([]int, shape.rows)
		for i := range ys {
			ys[i] = r.Intn(shape.cols)
		}
		dz := &Matrix32{}
		dz.Reshape(shape.rows, shape.cols)
		total := CrossEntropyRows32(dz, z, ys, 0.5)
		lossOnly := CrossEntropyLossRows32(z, ys, 0.5)

		want := 0.5
		for i := 0; i < shape.rows; i++ {
			zi := z.Row(i)
			m := float64(Max32(zi))
			s := 0.0
			for _, v := range zi {
				s += math.Exp(float64(v) - m)
			}
			want += m + math.Log(s) - float64(zi[ys[i]])
			for j, v := range zi {
				g := math.Exp(float64(v)-m) / s
				if j == ys[i] {
					g -= 1
				}
				if math.Abs(float64(dz.Row(i)[j])-g) > 2e-5 {
					t.Fatalf("dz[%d][%d] = %g, want %g", i, j, dz.Row(i)[j], g)
				}
			}
		}
		if math.Abs(float64(total)-want) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("CrossEntropyRows32 total = %g, want %g", total, want)
		}
		if math.Abs(float64(lossOnly)-want) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("CrossEntropyLossRows32 = %g, want %g", lossOnly, want)
		}
	}
}

// TestSoftmax32 checks the float32 softmax normalizer, LogSumExp32,
// against the float64 reference, on both short (vectorized) and long
// (scalar fallback) paths.
func TestSoftmax32(t *testing.T) {
	r := rng.New(83)
	for _, n := range []int{5, 64, 200} {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(r.NormFloat64() * 10)
		}
		got := float64(LogSumExp32(v))
		m := float64(Max32(v))
		s := 0.0
		for _, e := range v {
			s += math.Exp(float64(e) - m)
		}
		want := m + math.Log(s)
		if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("LogSumExp32(n=%d) = %g, want %g", n, got, want)
		}
	}
}

// TestConversionKernelsMatchReference pins the hardware-dispatched
// regime-boundary conversions (cvtTo32/cvtTo64/roundTo32, VCVTPD2PS and
// VCVTPS2PD on AVX2 hardware) bitwise against their scalar references
// on every unroll boundary, unaligned offsets and the full special-value
// mix: conversion is a single IEEE rounding per element, so the
// vectorized and scalar paths must agree on every input, NaN and
// overflow-to-infinity included.
func TestConversionKernelsMatchReference(t *testing.T) {
	r := rng.New(77)
	for _, n := range tailLengths {
		for _, off := range []int{0, 1, 3} {
			for rep := 0; rep < 3; rep++ {
				src64 := make([]float64, n+off)
				fillSpecial(r, src64)
				if n > 0 {
					src64[off] = math.NaN()
				}
				if n > 1 {
					src64[off+1] = 1e300 // overflows float32 to +Inf
				}

				got32 := make([]float32, n+off)
				want32 := make([]float32, n+off)
				ToF32(got32[off:], src64[off:])
				round64to32Ref(want32[off:], src64[off:])
				for i := range got32 {
					if math.Float32bits(got32[i]) != math.Float32bits(want32[i]) {
						t.Fatalf("ToF32 n=%d off=%d i=%d: %x != %x (src %v)",
							n, off, i, math.Float32bits(got32[i]), math.Float32bits(want32[i]), src64[i])
					}
				}

				src32 := make([]float32, n+off)
				fillSpecial32(r, src32)
				if n > 0 {
					src32[off] = float32(math.NaN())
				}
				got64 := make([]float64, n+off)
				want64 := make([]float64, n+off)
				ToF64(got64[off:], src32[off:])
				widen32to64Ref(want64[off:], src32[off:])
				for i := range got64 {
					if math.Float64bits(got64[i]) != math.Float64bits(want64[i]) {
						t.Fatalf("ToF64 n=%d off=%d i=%d: %x != %x (src %v)",
							n, off, i, math.Float64bits(got64[i]), math.Float64bits(want64[i]), src32[i])
					}
				}

				gotR := append([]float64(nil), src64...)
				wantR := append([]float64(nil), src64...)
				Round32(gotR[off:])
				round32Ref(wantR[off:])
				for i := range gotR {
					if math.Float64bits(gotR[i]) != math.Float64bits(wantR[i]) {
						t.Fatalf("Round32 n=%d off=%d i=%d: %x != %x (src %v)",
							n, off, i, math.Float64bits(gotR[i]), math.Float64bits(wantR[i]), src64[i])
					}
				}
			}
		}
	}
}

// TestSumExpShift32MatchesExpShift pins the fused loss-path kernel
// bitwise to the materialize-then-sum composition on every unroll
// boundary including the >32 and >256 stack-chunk paths: sumExpShift
// must be exactly expShift into a buffer followed by an index-order
// float32 sum.
func TestSumExpShift32MatchesExpShift(t *testing.T) {
	r := rng.New(91)
	lengths := append(append([]int{}, tailLengths...), 100, 256, 257, 300, 520)
	for _, n := range lengths {
		for rep := 0; rep < 3; rep++ {
			x := make([]float32, n)
			fillSpecial32(r, x)
			shift := Max32(append([]float32{0}, x...))
			got := kernels32.sumExpShift(x, shift)
			buf := make([]float32, n)
			kernels32.expShift(buf, x, shift)
			want := float32(0)
			for _, e := range buf {
				want += e
			}
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("n=%d: sumExpShift %x != expShift+sum %x", n, math.Float32bits(got), math.Float32bits(want))
			}
			if ref := sumExpShift32Ref(x, shift); math.Float32bits(got) != math.Float32bits(ref) {
				t.Fatalf("n=%d: sumExpShift %x != ref %x", n, math.Float32bits(got), math.Float32bits(ref))
			}
		}
	}
}

// TestFloat32AverageMatchesScalarRef pins the avx2f32 aggregation
// arithmetic three ways: the float32 branch AverageInto takes on the
// storage tier, the MeanAccumulator's float32 fold (Add32 rows, then
// FinishInto) and a scalar reference (float32 adds in argument order,
// one float32 scale) must all agree bit for bit.
func TestFloat32AverageMatchesScalarRef(t *testing.T) {
	defer SetKernel(KernelAVX2F32)()
	r := rng.New(80)
	for _, n := range tailLengths {
		for _, k := range []int{1, 2, 3, 5} {
			vecs32 := make([][]float32, k)
			vecs64 := make([][]float64, k)
			var acc MeanAccumulator
			acc.Reset(n)
			for i := range vecs32 {
				vecs32[i] = make([]float32, n)
				fillSpecial32(r, vecs32[i])
				vecs64[i] = make([]float64, n)
				ToF64(vecs64[i], vecs32[i])
				acc.Add32(vecs32[i])
			}
			avg := make([]float64, n)
			AverageInto(avg, vecs64...)
			folded := make([]float64, n)
			acc.FinishInto(folded)

			inv := float32(1) / float32(k)
			for i := 0; i < n; i++ {
				s := float32(0)
				for _, v := range vecs32 {
					s += v[i]
				}
				want := math.Float64bits(float64(s * inv))
				if got := math.Float64bits(avg[i]); got != want {
					t.Fatalf("AverageInto n=%d k=%d: [%d] = %x, scalar ref %x", n, k, i, got, want)
				}
				if got := math.Float64bits(folded[i]); got != want {
					t.Fatalf("MeanAccumulator.Add32 n=%d k=%d: [%d] = %x, scalar ref %x", n, k, i, got, want)
				}
			}
		}
	}
}
