//go:build amd64

package tensor

import "repro/internal/tensor/cpufeat"

// Assembly kernel declarations and the FMA sets the CPU offers: the
// avx2 class's AVX2 bodies when the CPUID probe confirms AVX2+FMA (plus
// OS YMM state), with three AVX-512 bodies in their place when it also
// confirms AVX-512F, and the bit-identical pure-Go twins otherwise.
// dispatch.go decides which class binds which set.

// AVX2+FMA kernels (simd_avx2_amd64.s), bit-identical to the math.FMA
// twins in simd_fma_ref.go. Callable only when cpufeat reports
// AVX2+FMA.

//go:noescape
func dotAVX2(x, y []float64) float64

// axpyToAVX2 computes dst = fma(a, x, y); Axpy passes y as dst.
//
//go:noescape
func axpyToAVX2(dst []float64, a float64, x, y []float64)

//go:noescape
func dot4AVX2(x, y0, y1, y2, y3 []float64) (r0, r1, r2, r3 float64)

//go:noescape
func axpy4AVX2(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64)

// expShiftAVX2 computes dst[i] = expFMA(x[i]-shift) for i < len(x),
// 4 lanes per step with a masked remainder, so it covers every element
// itself (no scalar tail in Go). dst must have at least len(x)
// elements; the wrapper below trims it.
//
//go:noescape
func expShiftAVX2(dst, x []float64, shift float64)

// expShiftAsm adapts the assembly to the kernelSet signature.
func expShiftAsm(dst, x []float64, shift float64) {
	if len(x) == 0 {
		return
	}
	expShiftAVX2(dst[:len(x)], x, shift)
}

// sumExpShiftAsm materializes expFMA(x[i]-shift) through the assembly
// in stack-buffer chunks and sums sequentially in index order — the
// identical elementwise-then-ordered-sum bits of sumExpShiftFMA. The
// common case (a logits row, a handful of classes) takes a small
// buffer: Go zero-initializes the whole array on entry, so sizing it
// for the large case would spend a 2KB memclr per 10-element row.
func sumExpShiftAsm(x []float64, shift float64) float64 {
	if len(x) == 0 {
		return 0
	}
	if len(x) <= 32 {
		var buf [32]float64
		expShiftAVX2(buf[:len(x)], x, shift)
		s := 0.0
		for _, e := range buf[:len(x)] {
			s += e
		}
		return s
	}
	return sumExpShiftAsmChunked(x, shift)
}

func sumExpShiftAsmChunked(x []float64, shift float64) float64 {
	var buf [256]float64
	s := 0.0
	for len(x) > 0 {
		c := len(x)
		if c > len(buf) {
			c = len(buf)
		}
		expShiftAVX2(buf[:c], x[:c], shift)
		for _, e := range buf[:c] {
			s += e
		}
		x = x[c:]
	}
	return s
}

// AVX-512 bodies of three of the avx2 class's float64 kernels
// (simd_avx512_amd64.s): the same bits as the AVX2 ones above, with
// 8-lane ZMM accumulators and the register blocking the 16-register
// YMM file cannot hold. Callable only when haveAVX512Asm.

//go:noescape
func dotAVX512(x, y []float64) float64

//go:noescape
func dot4x2AVX512(x0, x1, y0, y1, y2, y3 []float64) (r00, r01, r02, r03, r10, r11, r12, r13 float64)

// stepRowAVX512 writes dst[e] = fma(a, Σ_k cf[k]·rows[k][e], w[e]) with
// the sum chained by FMA from +0 in k order, in registers.
//
//go:noescape
func stepRowAVX512(dst, w []float64, a float64, cf []float64, rows [][]float64)

// meanAVX2 is the avx2 class's mean, its accumulators in YMM
// registers. The AVX-512 set binds it too: a ZMM body measured no
// faster end to end (EXPERIMENTS.md, PR 53).
//
//go:noescape
func meanAVX2(dst []float64, inv float64, vecs [][]float64)

// stepGather is how many examples stepRowsZMM gathers on its stack for
// one row (the MLP's mini-batch is 16); a batch with more runs the
// composed AVX2 step, which has the same bits.
const stepGather = 32

// stepRowsZMM is the avx2 class's stepRows on AVX-512: per row it
// gathers the nonzero coefficients and their example rows, then runs
// the register-resident kernel. The gather arrays are cleared once per
// call.
func stepRowsZMM(dst, w Matrix, eta, alpha float64, a Matrix, ys [][]float64) {
	if len(ys) > stepGather {
		stepRowsAVX2(dst, w, eta, alpha, a, ys)
		return
	}
	var cf [stepGather]float64
	var rows [stepGather][]float64
	for i := 0; i < w.Rows; i++ {
		n := 0
		for k, y := range ys {
			// Write every example and advance past the nonzero ones: no
			// branch for the ReLU mask to mispredict.
			v := a.Data[k*a.Cols+i]
			cf[n], rows[n] = alpha*v, y
			if v != 0 {
				n++
			}
		}
		stepRowAVX512(dst.Row(i), w.Row(i), -eta, cf[:n], rows[:n])
	}
}

// stepRowsAVX2 is the avx2 class's stepRows on the AVX2 assembly: per
// row and column chunk of a zeroed stack buffer, accumulate the nonzero
// coefficients' rows in ascending order through axpy4 quads and axpyTo
// tails (tnRow's gathering), then dst = fma(−eta, buf, w). Per element
// that is stepRowsFMA's chain. The calls are direct so the buffer stays
// on the stack.
func stepRowsAVX2(dst, w Matrix, eta, alpha float64, a Matrix, ys [][]float64) {
	var buf [stepChunk]float64
	for i := 0; i < w.Rows; i++ {
		wr, dr := w.Row(i), dst.Row(i)
		for c0 := 0; c0 < len(wr); c0 += stepChunk {
			c1 := min(c0+stepChunk, len(wr))
			acc := buf[:c1-c0]
			clear(acc)
			var cf [4]float64
			var rows [4][]float64
			nq := 0
			for k, y := range ys {
				v := a.Data[k*a.Cols+i]
				if v == 0 {
					continue
				}
				cf[nq], rows[nq] = alpha*v, y[c0:c1]
				if nq++; nq == 4 {
					axpy4AVX2(cf[0], cf[1], cf[2], cf[3], rows[0], rows[1], rows[2], rows[3], acc)
					nq = 0
				}
			}
			for q := range nq {
				axpyToAVX2(acc, cf[q], rows[q], acc)
			}
			axpyToAVX2(dr[c0:c1], -eta, acc, wr[c0:c1])
		}
	}
}

// haveAVX2Asm reports whether the avx2 rung can run its assembly on
// this machine (otherwise the rung is served by the pure-Go twins).
func haveAVX2Asm() bool { return cpufeat.X86.HasAVX2 && cpufeat.X86.HasFMA }

// haveAVX512Asm reports whether the avx2 rung's float64 kernels can run
// their AVX-512 bodies.
func haveAVX512Asm() bool { return haveAVX2Asm() && cpufeat.X86.HasAVX512F }

// fmaKernels is the avx2 class's float64 set on this CPU: avx512Kernels
// where it has AVX-512F, else avx2Kernels, else the math.FMA twins — one
// rounding regime, three speeds.
func fmaKernels() kernelSet {
	switch {
	case haveAVX512Asm():
		return avx512Kernels()
	case haveAVX2Asm():
		return avx2Kernels()
	}
	return fmaRefKernels()
}

// avx2Kernels is the avx2 class's AVX2 assembly set.
func avx2Kernels() kernelSet {
	return kernelSet{
		dot: dotAVX2, axpyTo: axpyToAVX2, dot4: dot4AVX2,
		dot4x2: dot4x2From(dot4AVX2), axpy4: axpy4AVX2, stepRows: stepRowsAVX2,
		mean: meanAVX2, expShift: expShiftAsm, sumExpShift: sumExpShiftAsm,
		fusedCE: true,
	}
}

// avx512Kernels is the avx2 class's set on AVX-512: the AVX2 set with ZMM
// dot (faster end to end than its YMM body) and the two kernels that need
// the 32-register file, dot4x2 and stepRows.
func avx512Kernels() kernelSet {
	ks := avx2Kernels()
	ks.dot, ks.dot4x2, ks.stepRows = dotAVX512, dot4x2AVX512, stepRowsZMM
	return ks
}
