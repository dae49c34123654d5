package tensor

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/rng"
)

// The property suite for the kernel dispatch ladder: every rung's
// implementations must match that rung's pure-Go class reference bit
// for bit across all unroll/tail combinations (lengths 0,1,7,8,9,…),
// unaligned slice offsets, aliased destinations, and values spanning
// magnitudes, signs, subnormals and infinities. The class references
// themselves are pinned to each other where the contract says so
// (fused kernels ≡ singles).

// fillSpecial populates x with a mix of ordinary magnitudes, zeros,
// infinities, subnormals and huge values.
func fillSpecial(r *rng.Stream, x []float64) {
	for i := range x {
		switch r.Intn(12) {
		case 0:
			x[i] = 0
		case 1:
			x[i] = math.Inf(1)
		case 2:
			x[i] = 5e-324 // smallest subnormal
		case 3:
			x[i] = -1e300
		default:
			x[i] = (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(13)-6))
		}
	}
}

// fillOrdinary populates x with finite values spanning twelve decades:
// unlike fillSpecial's mostly non-finite dots, their sums depend on
// every step of a kernel's reduction order.
func fillOrdinary(r *rng.Stream, x []float64) {
	for i := range x {
		x[i] = (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(13)-6))
	}
}

// tailLengths exercises every unroll boundary of the 2-, 4-, 8-, 16-,
// 32- and 64-wide loops plus their scalar and masked tails, and the
// MLP's input width.
var tailLengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 31, 32, 33, 47, 48, 63, 64, 65, 67,
	95, 96, 97, 127, 128, 129, 784}

// rungs enumerates the kernel sets under test with the pure-Go
// reference each must reproduce bitwise.
type rung struct {
	name string
	impl kernelSet
	ref  kernelSet
}

func testRungs(t testing.TB) []rung {
	rs := []rung{
		// The generic rung is its own reference; TestFusedDotsMatchSingles
		// pins its fused dots to its singles.
		{"generic", genericKernels(), genericKernels()},
		{"avx2", kernelsFor(KernelAVX2), fmaRefKernels()},
	}
	// Where the avx2 class binds its AVX-512 bodies, its AVX2 ones are
	// pinned as a rung of their own (archRungs), so both stay covered.
	return append(rs, archRungs()...)
}

// TestKernelsMatchReference pins every rung to its class reference bit
// for bit, including unaligned base offsets (SIMD loads are all
// unaligned-safe and the results must not depend on alignment), with
// special values and, in a last repetition, ordinary ones only.
func TestKernelsMatchReference(t *testing.T) {
	for _, rg := range testRungs(t) {
		t.Run(rg.name, func(t *testing.T) {
			r := rng.New(99)
			for _, n := range tailLengths {
				for _, off := range []int{0, 1, 3} {
					for rep := 0; rep < 4; rep++ {
						buf := func() []float64 {
							b := make([]float64, off+n)
							if rep == 3 {
								fillOrdinary(r, b)
							} else {
								fillSpecial(r, b)
							}
							return b[off : off+n]
						}
						x, y0, y1, y2, y3 := buf(), buf(), buf(), buf(), buf()
						a := (r.Float64() - 0.5) * 3

						if got, want := rg.impl.dot(x, y0), rg.ref.dot(x, y0); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("dot(n=%d,off=%d) = %x, class reference %x", n, off, math.Float64bits(got), math.Float64bits(want))
						}

						q := [4]float64{}
						p := [4]float64{}
						q[0], q[1], q[2], q[3] = rg.impl.dot4(x, y0, y1, y2, y3)
						p[0], p[1], p[2], p[3] = rg.ref.dot4(x, y0, y1, y2, y3)
						for i := range q {
							if math.Float64bits(q[i]) != math.Float64bits(p[i]) {
								t.Fatalf("dot4(n=%d,off=%d)[%d] = %x, class reference %x", n, off, i,
									math.Float64bits(q[i]), math.Float64bits(p[i]))
							}
						}

						x1 := buf()
						sprinkleSpecials(r, x1)
						q8, p8 := dot4x2Of(rg.impl, x, x1, y0, y1, y2, y3), dot4x2Of(rg.ref, x, x1, y0, y1, y2, y3)
						for i := range q8 {
							if math.Float64bits(q8[i]) != math.Float64bits(p8[i]) {
								t.Fatalf("dot4x2(n=%d,off=%d)[%d] = %x, class reference %x", n, off, i,
									math.Float64bits(q8[i]), math.Float64bits(p8[i]))
							}
						}

						yk := append([]float64(nil), y1...)
						yr := append([]float64(nil), y1...)
						rg.impl.axpyTo(yk, a, x, yk)
						rg.ref.axpyTo(yr, a, x, yr)
						for i := range yk {
							if math.Float64bits(yk[i]) != math.Float64bits(yr[i]) {
								t.Fatalf("axpy(n=%d,off=%d)[%d] = %x, class reference %x", n, off, i,
									math.Float64bits(yk[i]), math.Float64bits(yr[i]))
							}
						}
						// A separate destination: same bits, inputs untouched.
						dk := make([]float64, n)
						y1c := append([]float64(nil), y1...)
						rg.impl.axpyTo(dk, a, x, y1)
						for i := range dk {
							if math.Float64bits(dk[i]) != math.Float64bits(yr[i]) || math.Float64bits(y1[i]) != math.Float64bits(y1c[i]) {
								t.Fatalf("axpyTo(n=%d,off=%d)[%d] = %x, class reference %x", n, off, i,
									math.Float64bits(dk[i]), math.Float64bits(yr[i]))
							}
						}

						a1 := (r.Float64() - 0.5) * 3
						a2 := (r.Float64() - 0.5) * 3
						a3 := (r.Float64() - 0.5) * 3
						yk = append([]float64(nil), y3...)
						yr = append([]float64(nil), y3...)
						rg.impl.axpy4(a, a1, a2, a3, x, y0, y1, y2, yk)
						rg.ref.axpy4(a, a1, a2, a3, x, y0, y1, y2, yr)
						for i := range yk {
							if math.Float64bits(yk[i]) != math.Float64bits(yr[i]) {
								t.Fatalf("axpy4(n=%d,off=%d)[%d] = %x, class reference %x", n, off, i,
									math.Float64bits(yk[i]), math.Float64bits(yr[i]))
							}
						}

						// Finite shift (a row max in practice); the values in x
						// still span overflow, flush-to-zero and NaN inputs.
						shift := (r.Float64() - 0.5) * 20
						ek := make([]float64, n)
						er := make([]float64, n)
						rg.impl.expShift(ek, x, shift)
						rg.ref.expShift(er, x, shift)
						for i := range ek {
							if math.Float64bits(ek[i]) != math.Float64bits(er[i]) {
								t.Fatalf("expShift(n=%d,off=%d)[%d] = %x, class reference %x (x=%g)", n, off, i,
									math.Float64bits(ek[i]), math.Float64bits(er[i]), x[i])
							}
						}
						if got, want := rg.impl.sumExpShift(x, shift), rg.ref.sumExpShift(x, shift); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("sumExpShift(n=%d,off=%d) = %x, class reference %x", n, off,
								math.Float64bits(got), math.Float64bits(want))
						}

						if rep < 3 {
							for _, k := range meanInputs {
								vecs := make([][]float64, k)
								for j := range vecs {
									vecs[j] = buf()
								}
								checkMean(t, &rg.impl, &rg.ref, vecs, "mean")
							}
						}
					}
				}
			}
		})
	}
}

// meanInputs are the list lengths the mean kernel is pinned at: one to
// five inputs, and more than the 32 a register file could hold.
var meanInputs = []int{1, 2, 3, 4, 5, 33}

// checkMean pins impl's mean over vecs to ref's and to its definition —
// a zeroed vector, one axpyTo(·, 1, v, ·) per input in list order, then
// Scale by 1/len(vecs) — bit for bit, with a separate destination and
// with dst aliasing the first input.
func checkMean(t *testing.T, impl, ref *kernelSet, vecs [][]float64, name string) {
	t.Helper()
	n := len(vecs[0])
	inv := 1 / float64(len(vecs))
	want := make([]float64, n)
	ref.mean(want, inv, vecs)
	composed := make([]float64, n)
	for _, v := range vecs {
		impl.axpyTo(composed, 1, v, composed)
	}
	Scale(inv, composed)
	got := make([]float64, n)
	impl.mean(got, inv, vecs)
	aliased := append([]float64(nil), vecs[0]...)
	impl.mean(aliased, inv, append([][]float64{aliased}, vecs[1:]...))
	for _, c := range []struct {
		what string
		v    []float64
	}{{"class reference", want}, {"Zero+axpy+Scale", composed}, {"dst == vecs[0]", aliased}} {
		if i := firstDiff(got, c.v); i >= 0 {
			t.Fatalf("%s(n=%d, inputs=%d)[%d] = %v (%x), %s %v (%x)", name, n, len(vecs), i,
				got[i], math.Float64bits(got[i]), c.what, c.v[i], math.Float64bits(c.v[i]))
		}
	}
}

// TestMeanUnderflowKeepsSign is the directed case of the mean kernel's
// final multiply: a negative subnormal sum times 1/3 underflows to −0
// on every rung, as acc·inv must (the sum itself,
// from +0, is never −0).
func TestMeanUnderflowKeepsSign(t *testing.T) {
	negZero := math.Float64bits(math.Copysign(0, -1))
	for _, rg := range testRungs(t) {
		for _, n := range []int{1, 7, 8, 9, 64, 65} {
			vecs := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
			for i := range vecs[0] {
				vecs[0][i] = -5e-324 // −(smallest subnormal)
				vecs[1][i] = math.Copysign(0, -1)
			}
			dst := make([]float64, n)
			rg.impl.mean(dst, 1/3.0, vecs)
			for i, v := range dst {
				if math.Float64bits(v) != negZero {
					t.Fatalf("%s: mean(n=%d)[%d] of −5e-324, −0, +0 = %v (%x), want −0", rg.name, n, i, v, math.Float64bits(v))
				}
			}
		}
	}
}

// FuzzMeanMatchesComposition feeds raw IEEE bit patterns — every NaN
// payload, both zeros, subnormals and infinities — as 1-8 input vectors
// to every rung's mean kernel and demands the bits of
// its definition, Zero + one axpyTo(·, 1, v, ·) per input + Scale.
func FuzzMeanMatchesComposition(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, uint8(0))
	f.Add(make([]byte, 8*3*67), uint8(2))
	special := []uint64{0x8000000000000001, 0x8000000000000000, 0x7ff0000000000000, 0x7ff8000000000001, 0x3fd5555555555555}
	var seed []byte
	for i := 0; i < 130; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, special[i%len(special)])
	}
	f.Add(seed, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		inputs := 1 + int(k%8)
		n := len(data) / 8 / inputs
		vecs := make([][]float64, inputs)
		for j := range vecs {
			vecs[j] = make([]float64, n)
			for i := range vecs[j] {
				vecs[j][i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*(j*n+i):]))
			}
		}
		for _, rg := range testRungs(t) {
			checkMean(t, &rg.impl, &rg.ref, vecs, rg.name+" mean")
		}
	})
}

// TestFusedDotsMatchSingles pins the intra-class contract the GEMM
// microkernel relies on: within one rung, dot4 and dot4x2 accumulate
// each output in exactly the single-dot order, so gemmTRow
// and gemmTRow2 may mix fused passes and single-row tails without
// perturbing a bit.
func TestFusedDotsMatchSingles(t *testing.T) {
	for _, rg := range testRungs(t) {
		t.Run(rg.name, func(t *testing.T) {
			r := rng.New(7)
			for k, n := range append(tailLengths[:len(tailLengths):len(tailLengths)], tailLengths...) {
				fill := fillSpecial // then, on the second pass, finite values
				if k >= len(tailLengths) {
					fill = fillOrdinary
				}
				x := make([]float64, n)
				ys := make([][]float64, 4)
				fill(r, x)
				for i := range ys {
					ys[i] = make([]float64, n)
					fill(r, ys[i])
				}
				q0, q1, q2, q3 := rg.impl.dot4(x, ys[0], ys[1], ys[2], ys[3])
				for i, got := range []float64{q0, q1, q2, q3} {
					want := rg.impl.dot(x, ys[i])
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("fused output %d (n=%d) = %x, single dot %x", i, n, math.Float64bits(got), math.Float64bits(want))
					}
				}
				x1 := make([]float64, n)
				fill(r, x1)
				sprinkleSpecials(r, x1)
				for i, got := range dot4x2Of(rg.impl, x, x1, ys[0], ys[1], ys[2], ys[3]) {
					xi := x
					if i >= 4 {
						xi = x1
					}
					if want := rg.impl.dot(xi, ys[i%4]); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("dot4x2 output %d (n=%d) = %x, single dot %x", i, n, math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
		})
	}
}

// TestAxpy4MatchesSequentialAxpy pins the intra-class contract
// GemmTN/GemmTNR rely on: within one rung, the fused four-coefficient
// axpy4 is per element exactly four sequential axpy passes in argument
// order, so gathering nonzero coefficients into quads never changes a
// bit relative to the historical one-Axpy-per-example loop.
func TestAxpy4MatchesSequentialAxpy(t *testing.T) {
	for _, rg := range testRungs(t) {
		t.Run(rg.name, func(t *testing.T) {
			r := rng.New(23)
			for _, n := range tailLengths {
				xs := make([][]float64, 4)
				as := make([]float64, 4)
				for i := range xs {
					xs[i] = make([]float64, n)
					fillSpecial(r, xs[i])
					as[i] = (r.Float64() - 0.5) * 3
				}
				y := make([]float64, n)
				fillSpecial(r, y)

				fused := append([]float64(nil), y...)
				rg.impl.axpy4(as[0], as[1], as[2], as[3], xs[0], xs[1], xs[2], xs[3], fused)

				seq := append([]float64(nil), y...)
				for i := range xs {
					rg.impl.axpyTo(seq, as[i], xs[i], seq)
				}
				for i := range fused {
					if math.Float64bits(fused[i]) != math.Float64bits(seq[i]) {
						t.Fatalf("axpy4(n=%d)[%d] = %x, sequential axpy %x", n, i,
							math.Float64bits(fused[i]), math.Float64bits(seq[i]))
					}
				}
			}
		})
	}
}

// dot4x2Of returns a rung's dot4x2 outputs as one array, row-major.
func dot4x2Of(ks kernelSet, x0, x1, y0, y1, y2, y3 []float64) [8]float64 {
	var r [8]float64
	r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = ks.dot4x2(x0, x1, y0, y1, y2, y3)
	return r
}

// defaultNaN is the quiet NaN x86 arithmetic generates (Inf − Inf).
// Which payload wins when two NaNs with different payloads meet is left
// open by IEEE 754 and by Go (the compiler may order a commutative add
// either way), so tests that feed NaN in use this one.
var defaultNaN = math.Float64frombits(0xfff8000000000000)

// sprinkleSpecials sets about one element in eight of x to −0 or NaN.
func sprinkleSpecials(r *rng.Stream, x []float64) {
	for i := range x {
		switch r.Intn(16) {
		case 0:
			x[i] = math.Copysign(0, -1)
		case 1:
			x[i] = defaultNaN
		}
	}
}

// TestStepRowMatchesReference pins every rung's stepRows to its class
// reference and to its own per-row buffered form — per row, a zeroed
// row, one axpyTo per nonzero coefficient in ascending order, then
// axpyTo(dst, −eta, row, w) — bit for bit: on three-row weight
// matrices at every tail length with 0, 1, 3, 4, 5, 16 and 33
// examples, at every other width from 1 to 130 columns (each 8-lane
// chunk count and mask of the AVX-512 remainder pass) with 5 and 33
// examples and every seventh with all seven, with no nonzero
// coefficient, with more examples than a rung gathers on
// its stack, with −0, Inf and NaN in the example rows (a zero
// coefficient on an Inf or NaN row must stay a skip), with dst aliasing
// w, and on rows longer than one chunk of the composed bodies' stack
// buffer.
func TestStepRowMatchesReference(t *testing.T) {
	var widths []int
	for n := 1; n <= 130; n++ {
		widths = append(widths, n)
	}
	widths = append(widths, 0, 784, 2*stepChunk+67)
	for _, rg := range testRungs(t) {
		t.Run(rg.name, func(t *testing.T) {
			r := rng.New(31)
			for _, n := range widths {
				for _, m := range []int{0, 1, 3, 4, 5, 16, 33} {
					if n <= 130 && n%7 != 0 && m != 5 && m != 33 && !slices.Contains(tailLengths, n) {
						continue // the other widths at two batch sizes, every seventh at all
					}
					checkStepRows(t, rg, r, n, m)
				}
			}
		})
	}
}

// checkStepRows runs one stepRows case of TestStepRowMatchesReference:
// a 3×n weight matrix stepped by m examples.
func checkStepRows(t *testing.T, rg rung, r *rng.Stream, n, m int) {
	t.Helper()
	const rows = 3
	ys := make([][]float64, m)
	for k := range ys {
		ys[k] = make([]float64, n)
		fillSpecial(r, ys[k])
		sprinkleSpecials(r, ys[k])
	}
	// An m×3 coefficient matrix: ReLU-style zeros, signed zeros, and
	// all-zero columns when m = 1.
	a := Matrix{Rows: m, Cols: rows, Data: make([]float64, rows*m)}
	for k := 0; k < m; k++ {
		for j := 0; j < rows; j++ {
			switch v := r.Float64() - 0.5; {
			case m == 1 || r.Intn(3) == 0:
				a.Data[k*rows+j] = 0
			case r.Intn(8) == 0:
				a.Data[k*rows+j] = math.Copysign(0, -1)
			default:
				a.Data[k*rows+j] = v * 3
			}
		}
	}
	w := Matrix{Rows: rows, Cols: n, Data: make([]float64, rows*n)}
	fillSpecial(r, w.Data)
	const alpha, eta = 0.3, 0.05
	mat := func(d []float64) Matrix { return Matrix{Rows: rows, Cols: n, Data: d} }

	want := make([]float64, rows*n)
	rg.ref.stepRows(mat(want), w, eta, alpha, a, ys)

	composed := make([]float64, rows*n)
	for i := 0; i < rows; i++ {
		buf := make([]float64, n)
		for k, y := range ys {
			if v := a.Data[k*rows+i]; v != 0 {
				rg.impl.axpyTo(buf, alpha*v, y, buf)
			}
		}
		rg.impl.axpyTo(composed[i*n:(i+1)*n], -eta, buf, w.Row(i))
	}

	got := make([]float64, rows*n)
	rg.impl.stepRows(mat(got), w, eta, alpha, a, ys)
	aliased := append([]float64(nil), w.Data...)
	rg.impl.stepRows(mat(aliased), mat(aliased), eta, alpha, a, ys)
	for e := range got {
		g, wb, cb, ab := math.Float64bits(got[e]), math.Float64bits(want[e]), math.Float64bits(composed[e]), math.Float64bits(aliased[e])
		if g != wb || g != cb || g != ab {
			t.Fatalf("stepRows(n=%d, examples=%d)[row %d, col %d] = %x, class reference %x, buffered %x, dst == w %x",
				n, m, e/max(n, 1), e%max(n, 1), g, wb, cb, ab)
		}
	}
}

// TestExpShiftSpecials walks the expFMA branch boundaries — overflow at
// expHi, the flush-to-zero fringe at expLo, NaN propagation and both
// infinities — through every rung's expShift, at a length that covers
// both the 4-lane body and the masked remainder. Each rung must match
// its class reference bit for bit on every special.
func TestExpShiftSpecials(t *testing.T) {
	specials := []float64{
		0, 1, -1, 709, 710, 709.782712893384, 709.79, // straddle expHi
		-708, -708.3964185322641, -708.4, -745, -746, // straddle expLo
		math.Inf(1), math.Inf(-1), math.NaN(),
		0.5, -0.5, 88.3762626647949, 1e-300, -1e-300,
	}
	for _, rg := range testRungs(t) {
		t.Run(rg.name, func(t *testing.T) {
			for _, shift := range []float64{0, 1.5, -2.25} {
				got := make([]float64, len(specials))
				want := make([]float64, len(specials))
				rg.impl.expShift(got, specials, shift)
				rg.ref.expShift(want, specials, shift)
				for i := range got {
					gb, wb := math.Float64bits(got[i]), math.Float64bits(want[i])
					if gb != wb {
						t.Fatalf("expShift special x=%g shift=%g: %x, class reference %x", specials[i], shift, gb, wb)
					}
				}
			}
		})
	}
	// The FMA-class exponential is a distinct rounding regime but must
	// stay a faithful exponential: within 4 ulp of math.Exp across the
	// finite range (the class contract documented in DESIGN.md §8).
	r := rng.New(29)
	for i := 0; i < 2000; i++ {
		x := (r.Float64() - 0.5) * 1400
		got := expFMA(x)
		want := math.Exp(x)
		if want == 0 || math.IsInf(want, 1) {
			continue
		}
		if rel := math.Abs(got-want) / want; rel > 4e-16 {
			t.Fatalf("expFMA(%g) = %g, math.Exp = %g (rel %g)", x, got, want, rel)
		}
	}
}

// TestAxpyAliasedDst pins the dst == x fast-path aliasing case: the
// SIMD kernels load the x chunk and the y chunk before storing, so
// full aliasing (y *is* x) must give exactly the reference result,
// y[i] = a*y[i] + y[i], on every rung.
func TestAxpyAliasedDst(t *testing.T) {
	for _, rg := range testRungs(t) {
		t.Run(rg.name, func(t *testing.T) {
			r := rng.New(11)
			for _, n := range tailLengths {
				base := make([]float64, n)
				fillSpecial(r, base)
				a := (r.Float64() - 0.5) * 3

				aliased := append([]float64(nil), base...)
				rg.impl.axpyTo(aliased, a, aliased, aliased)

				want := append([]float64(nil), base...)
				rg.ref.axpyTo(want, a, append([]float64(nil), base...), want)

				for i := range aliased {
					if math.Float64bits(aliased[i]) != math.Float64bits(want[i]) {
						t.Fatalf("aliased axpy(n=%d)[%d] = %x, reference %x", n, i,
							math.Float64bits(aliased[i]), math.Float64bits(want[i]))
					}
				}
			}
		})
	}
}

// TestSSE2BindsGeneric pins what is left of the sse2 class: a second
// name for the non-FMA regime, bound to the generic class's bodies
// themselves (every kernel the same function, the same flags), served
// pure-go, and never the detected default. Both sides come from
// kernelsFor: a composed kernel is a closure whose code pointer depends
// on where the compiler inlined its constructor.
func TestSSE2BindsGeneric(t *testing.T) {
	sse2, gen := reflect.ValueOf(kernelsFor(KernelSSE2)), reflect.ValueOf(kernelsFor(KernelGeneric))
	for i := range sse2.NumField() {
		f, g := sse2.Field(i), gen.Field(i)
		same := f.Kind() == reflect.Func && f.Pointer() == g.Pointer() || f.Kind() == reflect.Bool && f.Bool() == g.Bool()
		if !same {
			t.Errorf("kernelsFor(sse2).%s differs from the generic set", sse2.Type().Field(i).Name)
		}
	}
	if b := Backing(KernelSSE2); b != "pure-go" {
		t.Errorf("Backing(sse2) = %q, want pure-go", b)
	}
	if DetectedKernel() == KernelSSE2 {
		t.Error("the CPU probe picked sse2; the fastest non-FMA rung is generic")
	}
}

// TestAVX2F32BindsAVX2 pins what is left of the avx2f32 class: a second
// name for the FMA regime, bound to the avx2 class's bodies themselves
// (every kernel the same function, the same flags) and served as avx2
// is, never the detected default.
func TestAVX2F32BindsAVX2(t *testing.T) {
	f32, avx2 := reflect.ValueOf(kernelsFor(KernelAVX2F32)), reflect.ValueOf(kernelsFor(KernelAVX2))
	for i := range f32.NumField() {
		f, g := f32.Field(i), avx2.Field(i)
		same := f.Kind() == reflect.Func && f.Pointer() == g.Pointer() || f.Kind() == reflect.Bool && f.Bool() == g.Bool()
		if !same {
			t.Errorf("kernelsFor(avx2f32).%s differs from the avx2 set", f32.Type().Field(i).Name)
		}
	}
	if b, want := Backing(KernelAVX2F32), Backing(KernelAVX2); b != want {
		t.Errorf("Backing(avx2f32) = %q, want avx2's %q", b, want)
	}
	if DetectedKernel() == KernelAVX2F32 {
		t.Error("the CPU probe picked avx2f32; the FMA rung it detects is avx2")
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

// TestDotConsistentWithKernel pins the exported entry points to the
// active rung (guards against the dispatch drifting from the class).
func TestDotConsistentWithKernel(t *testing.T) {
	x := []float64{1.5, -2.25, 3.125, 0.5, -1.75, 2.5, 0.125}
	y := []float64{0.75, 1.25, -0.5, 2.0, 1.125, -3.5, 0.25}
	if got, want := Dot(x, y), kernels.dot(x, y); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Dot = %v, active kernel %v", got, want)
	}
}

// TestSetKernelRestores checks the class switch used by the forced-class
// tests and benchmarks: SetKernel swaps the dispatch and the restore
// closure puts the previous rung back, with Dot visibly following.
func TestSetKernelRestores(t *testing.T) {
	orig := ActiveKernel()
	x := []float64{1e16, 1, -1e16, 3e-7, 2, 5, 7, 11, 1.5}
	y := []float64{3, 1e-17, 3, 1e9, 1, 1, 1, 1, 2.25}
	for _, c := range []KernelClass{KernelGeneric, KernelSSE2, KernelAVX2} {
		restore := SetKernel(c)
		if ActiveKernel() != c {
			t.Fatalf("ActiveKernel() = %v after SetKernel(%v)", ActiveKernel(), c)
		}
		if got, want := Dot(x, y), kernelsFor(c).dot(x, y); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Dot under %v = %x, want %x", c, math.Float64bits(got), math.Float64bits(want))
		}
		restore()
		if ActiveKernel() != orig {
			t.Fatalf("restore left class %v, want %v", ActiveKernel(), orig)
		}
	}
	// The FMA class must actually differ from the non-FMA classes on an
	// input chosen to round differently under fused multiply-add —
	// otherwise per-class goldens would be vacuous.
	if math.Float64bits(fmaRefKernels().dot(x, y)) == math.Float64bits(genericKernels().dot(x, y)) {
		t.Fatal("FMA-class dot matches generic on an input built to expose double rounding")
	}
}
