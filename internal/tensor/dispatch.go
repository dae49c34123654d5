package tensor

import (
	"fmt"
	"os"
)

// KernelClass identifies one rung of the runtime kernel dispatch
// ladder. A class names a rounding regime, not a specific instruction
// encoding: every trajectory is a pure function of (inputs, seed,
// kernel class), and two processes on the same class produce
// bit-identical results even if one runs assembly and the other the
// pure-Go twin (the wire handshake fingerprint includes the class so
// mixed-regime multi-process runs are refused).
//
//   - KernelGeneric: the portable pure-Go kernels (simd_ref.go). The
//     semantic definition of the non-FMA rounding regime.
//   - KernelSSE2: another name for the non-FMA regime. It binds the
//     generic bodies on every architecture, so it shares generic's
//     bits, goldens and speed; the name stays selectable because the
//     repository benchmark still times one leg per class.
//   - KernelAVX2: the AVX2+FMA tier. Fused multiply-add rounds once
//     where mul+add rounds twice, so this class is a distinct rounding
//     regime with its own golden fixtures. Served by 8-lane AVX-512
//     assembly when the CPU has AVX-512F, by 4-lane AVX2 assembly when
//     it has AVX2+FMA (the two bodies keep the same partial sums, so
//     the same bits), and by bit-identical
//     math.FMA pure-Go twins (simd_fma_ref.go) everywhere else — FMA
//     is a correctly-rounded operation, so the class is reproducible
//     on any hardware.
//   - KernelAVX2F32: another name for the FMA regime. It binds the avx2
//     set, so it shares avx2's bits, goldens and speed; like sse2, the
//     name stays selectable because the repository benchmark still
//     times one leg per class.
type KernelClass uint8

const (
	KernelGeneric KernelClass = iota
	KernelSSE2
	KernelAVX2
	KernelAVX2F32
)

func (c KernelClass) String() string {
	switch c {
	case KernelGeneric:
		return "generic"
	case KernelSSE2:
		return "sse2"
	case KernelAVX2:
		return "avx2"
	case KernelAVX2F32:
		return "avx2f32"
	}
	return fmt.Sprintf("KernelClass(%d)", uint8(c))
}

// Classes lists every dispatch rung, fastest first — the order the
// startup banners print and ParseKernel's error message cites.
func Classes() []KernelClass {
	return []KernelClass{KernelAVX2F32, KernelAVX2, KernelSSE2, KernelGeneric}
}

// ParseKernel maps a HIERFAIR_KERNEL value to its class. An unknown
// value is an error naming every valid class, so a typo fails fast at
// process start instead of silently training in an unexpected regime
// (the exact message is pinned by TestParseKernelUnknown).
func ParseKernel(v string) (KernelClass, error) {
	switch v {
	case "avx2f32":
		return KernelAVX2F32, nil
	case "avx2":
		return KernelAVX2, nil
	case "sse2":
		return KernelSSE2, nil
	case "generic":
		return KernelGeneric, nil
	}
	return 0, fmt.Errorf("tensor: unknown %s=%q (valid classes: avx2f32, avx2, sse2, generic)", KernelEnv, v)
}

// KernelEnv is the environment variable that forces a dispatch rung
// (HIERFAIR_KERNEL=avx2f32|avx2|sse2|generic), read once at process
// start. Tests and the ci.sh forced-class legs use it to pin a rounding
// regime; an unknown value panics (with ParseKernel's class-listing
// message) rather than silently training in an unexpected regime.
const KernelEnv = "HIERFAIR_KERNEL"

// kernelSet is one rung's implementation of every dispatched kernel;
// kernels holds the active class's. Every set fuses four rows in the
// GEMM microkernel (dot4, dot4x2); each fused output accumulates in the
// set's single-dot order, so the fusion never changes a bit.
type kernelSet struct {
	dot func(x, y []float64) float64
	// axpyTo computes dst = y + a*x elementwise, one body per rung: Axpy
	// passes y as dst, AxpyTo a separate destination, with the same
	// per-element arithmetic.
	axpyTo func(dst []float64, a float64, x, y []float64)
	dot4   func(x, y0, y1, y2, y3 []float64) (r0, r1, r2, r3 float64)
	// dot4x2 is dot4 for two x rows at once (rij = dot(xi, yj)), each
	// output in the single-dot order: the register-blocked GEMM
	// microkernel, composed from two dot4 calls where a rung has no
	// fused form. The outputs are returned by value, so nothing a caller
	// passes escapes through the func value.
	dot4x2 func(x0, x1, y0, y1, y2, y3 []float64) (r00, r01, r02, r03, r10, r11, r12, r13 float64)
	// axpy4 performs four chained Axpy accumulations into y in one
	// pass. Per element it is exactly axpy applied four times in
	// argument order — identical bits on every rung, fused purely so
	// the gradient kernels load and store y once instead of four times.
	axpy4 func(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64)
	// stepRows writes GemmTNRStep: for every row i of w, with
	// c_k = alpha·a[k][i] over the examples k whose a[k][i] is nonzero,
	// in ascending order, dst[i][e] = w[i][e] − eta·Σ_k c_k·ys[k][e] for
	// every e, where the sum starts at +0 and takes each term in the
	// rung's axpy arithmetic, and the step is one more axpy: per element
	// exactly a zeroed buffer, one axpy per nonzero coefficient, then
	// AxpyTo(dst, −eta, buf, w). dst may alias w. The row loop is the
	// kernel's, so whatever gather scratch a rung keeps on its stack is
	// cleared once per call, not once per row. Every argument is the
	// caller's memory or a value, so that scratch stays on the rung's
	// own stack.
	stepRows func(dst, w Matrix, eta, alpha float64, a Matrix, ys [][]float64)
	// mean writes the elementwise mean of vecs into dst: per element,
	// acc = +0, then acc = axpy(1, v, acc) for each input in list order
	// in the rung's arithmetic, then dst = acc·inv as one multiply, whose
	// underflow keeps the sign (a negative subnormal sum times 1/3 is
	// −0). The accumulators live in registers or an L1-sized block, so
	// each input is read once. dst may alias an input; every input must
	// be at least len(dst) long.
	mean func(dst []float64, inv float64, vecs [][]float64)
	// expShift computes dst[i] = exp(x[i]-shift) elementwise and
	// sumExpShift the sequential (index-order) sum of the same values.
	// The non-FMA rungs bind math.Exp — the historical LogSumExp /
	// Softmax bits — while the AVX2 tier binds its own vectorized
	// polynomial exponential (exp_fma_ref.go), a second way that class
	// is a distinct rounding regime.
	expShift    func(dst, x []float64, shift float64)
	sumExpShift func(x []float64, shift float64) float64
	// fusedCE selects the single-exponential cross-entropy form in
	// CrossEntropyRows (softmax = exp(z-max)/sum instead of
	// exp(z-logsumexp), halving exp calls). Only the FMA regimes use
	// it; the non-FMA rungs keep the historical two-pass arithmetic.
	fusedCE bool
}

// The active rung. Swapped only by SetKernel; reads are not
// synchronized, which is safe because swaps happen at init or in
// sequential test setup, never while kernels run.
var (
	activeKernel KernelClass
	kernels      kernelSet
)

func init() {
	v := os.Getenv(KernelEnv)
	if v == "" {
		SetKernel(defaultKernel())
		return
	}
	c, err := ParseKernel(v)
	if err != nil {
		panic(err.Error())
	}
	SetKernel(c)
}

// ActiveKernel reports the dispatch rung currently in use.
func ActiveKernel() KernelClass { return activeKernel }

// DetectedKernel reports the rung the CPU probe would pick with no
// HIERFAIR_KERNEL override — the "detected" half of the startup
// banners' detected-vs-forced line (ActiveKernel is the forced half).
func DetectedKernel() KernelClass { return defaultKernel() }

// Backing reports how class c is served on this machine: "assembly"
// when the class's SIMD kernels run, "pure-go" when its bit-identical
// twins do. The non-FMA classes (generic, sse2) are always pure-go, and
// off amd64 every class is: still selectable, same bits, just without
// the SIMD speed.
func Backing(c KernelClass) string {
	if (c == KernelAVX2 || c == KernelAVX2F32) && haveAVX2Asm() {
		return "assembly"
	}
	return "pure-go"
}

// defaultKernel picks the fastest rung the CPU supports: avx2 where its
// assembly runs, else generic.
func defaultKernel() KernelClass {
	if haveAVX2Asm() {
		return KernelAVX2
	}
	return KernelGeneric
}

// kernelsFor binds a class to its set, the one class→body decision: the
// FMA classes (avx2 and its second name avx2f32) take the FMA set the
// CPU offers (fmaKernels, per architecture), the non-FMA classes
// (generic and its second name sse2) the generic bodies.
func kernelsFor(c KernelClass) kernelSet {
	if c == KernelAVX2 || c == KernelAVX2F32 {
		return fmaKernels()
	}
	return genericKernels()
}

// Ladder returns a one-line summary of every dispatch rung and its
// backing on this machine, fastest first — the availability listing the
// startup banners and -print-kernel print.
func Ladder() string {
	s := ""
	for i, c := range Classes() {
		if i > 0 {
			s += " "
		}
		s += c.String() + "=" + Backing(c)
	}
	return s
}

// SetKernel forces a dispatch rung and returns a function restoring the
// previous one. Every class is selectable on every platform: a class
// whose assembly the CPU cannot run falls back to its pure-Go twin with
// bit-identical results, so forcing a class answers "what trajectory
// would that hardware produce" anywhere. Swapping is not synchronized —
// call it only from sequential setup (tests, benchmarks, process
// start), never while kernels may be executing concurrently.
func SetKernel(c KernelClass) (restore func()) {
	prev := activeKernel
	switch c {
	case KernelGeneric, KernelSSE2, KernelAVX2, KernelAVX2F32:
	default:
		panic(fmt.Sprintf("tensor: SetKernel(%v): unknown class", c))
	}
	activeKernel = c
	kernels = kernelsFor(c)
	return func() { SetKernel(prev) }
}

// genericKernels is the portable non-FMA rung (the semantic reference).
func genericKernels() kernelSet {
	return kernelSet{
		dot: dotRef, axpyTo: axpyToRef, dot4: dot4Ref,
		dot4x2: dot4x2From(dot4Ref), axpy4: axpy4From(axpyToRef), stepRows: stepRowsRef,
		mean: meanRef, expShift: expShiftRef, sumExpShift: sumExpShiftRef,
	}
}

// fmaRefKernels is the pure-Go twin of the FMA rung. Every multiply-add
// rounds once, so these bodies reproduce the assembly bit for bit (and
// define its semantics — see TestKernelsMatchReference).
func fmaRefKernels() kernelSet {
	return kernelSet{
		dot: dotFMA, axpyTo: axpyToFMA, dot4: dot4FMA,
		dot4x2: dot4x2From(dot4FMA), axpy4: axpy4FMA, stepRows: stepRowsFMA,
		mean: meanFMA, expShift: expShiftFMA, sumExpShift: sumExpShiftFMA,
		fusedCE: true,
	}
}

// axpy4From composes the fused four-coefficient Axpy from four
// sequential single Axpy passes — the definitional (and bitwise
// identical) form, used by rungs without a fused implementation.
func axpy4From(axpyTo func(dst []float64, a float64, x, y []float64)) func(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	return func(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
		axpyTo(y, a0, x0, y)
		axpyTo(y, a1, x1, y)
		axpyTo(y, a2, x2, y)
		axpyTo(y, a3, x3, y)
	}
}

// stepChunk is the column width of the stack buffer the composed
// stepRows and pure-Go mean bodies accumulate in: 8 KiB of float64s,
// L1-resident while the inputs stream past, so the MLP's 784-column
// rows take one chunk (one pass over the coefficients and one axpy call
// per quad, as with a whole-row buffer). The declaration zeroes the
// buffer once per call; each chunk clears what it uses.
const stepChunk = 1024

// dot4x2From composes the two-row fused dot from two dot4 passes — the
// definitional (and bitwise identical) form for rungs without a
// register-blocked kernel.
func dot4x2From(dot4 func(x, y0, y1, y2, y3 []float64) (float64, float64, float64, float64)) func(x0, x1, y0, y1, y2, y3 []float64) (r00, r01, r02, r03, r10, r11, r12, r13 float64) {
	return func(x0, x1, y0, y1, y2, y3 []float64) (r00, r01, r02, r03, r10, r11, r12, r13 float64) {
		r00, r01, r02, r03 = dot4(x0, y0, y1, y2, y3)
		r10, r11, r12, r13 = dot4(x1, y0, y1, y2, y3)
		return
	}
}
