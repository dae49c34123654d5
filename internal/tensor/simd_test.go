package tensor

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// The property suite for the kernel dispatch ladder: every rung's
// implementations must match that rung's pure-Go class reference bit
// for bit across all unroll/tail combinations (lengths 0,1,7,8,9,…),
// unaligned slice offsets, aliased destinations, and values spanning
// magnitudes, signs, subnormals and infinities. The class references
// themselves are pinned to each other where the contract says so
// (fused kernels ≡ singles; sse2 ≡ generic).

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

// tailLengths exercises every unroll boundary of the 2-, 4-, 8- and
// 16-wide loops plus their scalar tails.
var tailLengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 31, 32, 33, 47, 48, 63, 64, 65, 67}

// rungs enumerates the kernel sets under test with the pure-Go
// reference each must reproduce bitwise.
type rung struct {
	name string
	impl kernelSet[float64]
	ref  kernelSet[float64]
}

func testRungs(t *testing.T) []rung {
	rs := []rung{
		// The generic rung is its own reference: the comparison pins the
		// composed dot4From path to the singles.
		{"generic", genericKernels(), genericKernels()},
		{"sse2", kernelsFor(KernelSSE2), genericKernels()},
		{"avx2", kernelsFor(KernelAVX2), fmaRefKernels()},
	}
	return rs
}

// TestKernelsMatchReference pins every rung to its class reference bit
// for bit, including unaligned base offsets (SIMD loads are all
// unaligned-safe and the results must not depend on alignment).
func TestKernelsMatchReference(t *testing.T) {
	for _, rg := range testRungs(t) {
		t.Run(rg.name, func(t *testing.T) {
			r := rng.New(99)
			for _, n := range tailLengths {
				for _, off := range []int{0, 1, 3} {
					for rep := 0; rep < 3; rep++ {
						buf := func() []float64 {
							b := make([]float64, off+n)
							fillSpecial(r, b)
							return b[off : off+n]
						}
						x, y0, y1, y2, y3 := buf(), buf(), buf(), buf(), buf()
						a := (r.Float64() - 0.5) * 3

						if got, want := rg.impl.dot(x, y0), rg.ref.dot(x, y0); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("dot(n=%d,off=%d) = %x, class reference %x", n, off, math.Float64bits(got), math.Float64bits(want))
						}

						g0, g1 := rg.impl.dot2(x, y0, y1)
						w0, w1 := rg.ref.dot2(x, y0, y1)
						if math.Float64bits(g0) != math.Float64bits(w0) || math.Float64bits(g1) != math.Float64bits(w1) {
							t.Fatalf("dot2(n=%d,off=%d) = (%x,%x), class reference (%x,%x)", n, off,
								math.Float64bits(g0), math.Float64bits(g1), math.Float64bits(w0), math.Float64bits(w1))
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
					}
				}
			}
		})
	}
}

// TestFusedDotsMatchSingles pins the intra-class contract the GEMM
// microkernel relies on: within one rung, dot2 and dot4 accumulate each
// output in exactly the single-dot order, so gemmTRow may mix fused
// passes and single-row tails without perturbing a bit.
func TestFusedDotsMatchSingles(t *testing.T) {
	for _, rg := range testRungs(t) {
		t.Run(rg.name, func(t *testing.T) {
			r := rng.New(7)
			for _, n := range tailLengths {
				x := make([]float64, n)
				ys := make([][]float64, 4)
				fillSpecial(r, x)
				for i := range ys {
					ys[i] = make([]float64, n)
					fillSpecial(r, ys[i])
				}
				d0, d1 := rg.impl.dot2(x, ys[0], ys[1])
				q0, q1, q2, q3 := rg.impl.dot4(x, ys[0], ys[1], ys[2], ys[3])
				for i, got := range []float64{d0, d1, q0, q1, q2, q3} {
					yi := i
					if i >= 2 {
						yi = i - 2
					}
					want := rg.impl.dot(x, ys[yi])
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("fused output %d (n=%d) = %x, single dot %x", i, n, math.Float64bits(got), math.Float64bits(want))
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

// TestSSE2MatchesGeneric asserts the cross-class guarantee DESIGN.md §8
// documents: the sse2 class is not a distinct rounding regime — its
// kernels are bitwise equal to the generic bodies — which is why the
// two classes share one golden trajectory file.
func TestSSE2MatchesGeneric(t *testing.T) {
	sse2 := kernelsFor(KernelSSE2)
	gen := genericKernels()
	r := rng.New(5)
	for _, n := range tailLengths {
		x := make([]float64, n)
		y := make([]float64, n)
		fillSpecial(r, x)
		fillSpecial(r, y)
		if got, want := sse2.dot(x, y), gen.dot(x, y); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("sse2 dot(n=%d) = %x, generic %x", n, math.Float64bits(got), math.Float64bits(want))
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
