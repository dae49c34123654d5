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
//   - KernelAVX2F32: the float32 storage tier. Model vectors, gradient
//     scratch and wire payloads hold float32-representable values
//     (StorageF32), the training hot path runs the 8-wide float32
//     AVX2+FMA kernels (simd_avx2f32_amd64.s, or the bit-identical
//     fma32 pure-Go twins in simd_f32_ref.go off amd64), and every
//     aggregation rounds its result back through float32. Residual
//     float64 arithmetic (evaluation, the dual ascent on p) binds the
//     KernelAVX2 set, so the class is "avx2 plus a float32 storage
//     regime" — a fourth rounding regime with its own golden fixtures.
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

// kernelSet is one rung's implementation of every dispatched kernel at
// storage width T. The float64 set is the active class's (kernels); the
// float32 set is the avx2f32 tier's (kernels32). The generic bodies of
// the GEMM, cross-entropy and BLAS-1 routines fetch the set of their
// element type once per call (kernelsOf), so one body serves both
// widths.
type kernelSet[T Float] struct {
	dot func(x, y []T) T
	// axpyTo computes dst = y + a*x elementwise, one body per rung: Axpy
	// passes y as dst, AxpyTo a separate destination, with the same
	// per-element arithmetic.
	axpyTo func(dst []T, a T, x, y []T)
	// dot2 is the two-row fused dot of the 2-row GEMM fusion; only the
	// generic set binds it, since gemmTRow reads it only without fuse4.
	dot2 func(x, y0, y1 []T) (r0, r1 T)
	dot4 func(x, y0, y1, y2, y3 []T) (r0, r1, r2, r3 T)
	// dot4x2 is dot4 for two x rows at once (rij = dot(xi, yj)), each
	// output in the single-dot order: the register-blocked GEMM
	// microkernel, composed from two dot4 calls where a rung has no
	// fused form. The outputs are returned by value, so nothing a caller
	// passes escapes through the func value.
	dot4x2 func(x0, x1, y0, y1, y2, y3 []T) (r00, r01, r02, r03, r10, r11, r12, r13 T)
	// axpy4 performs four chained Axpy accumulations into y in one
	// pass. Per element it is exactly axpy applied four times in
	// argument order — identical bits on every rung, fused purely so
	// the gradient kernels load and store y once instead of four times.
	axpy4 func(a0, a1, a2, a3 T, x0, x1, x2, x3, y []T)
	// stepRow writes one row of GemmTNRStep: with c_k = alpha·a[k][i]
	// over the examples k whose a[k][i] is nonzero, in ascending order,
	// dst[e] = w[e] − eta·Σ_k c_k·ys[k][e] for every e, where the sum
	// starts at +0 and takes each term in the rung's axpy arithmetic,
	// and the step is one more axpy: per element exactly a zeroed
	// buffer, one axpy per nonzero coefficient, then AxpyTo(dst, −eta,
	// buf, w). dst may alias w. Every argument is the caller's memory or
	// a value, so whatever scratch a rung needs is its own stack's.
	stepRow func(dst, w []T, eta, alpha T, a Mat[T], i int, ys [][]T)
	// expShift computes dst[i] = exp(x[i]-shift) elementwise and
	// sumExpShift the sequential (index-order) sum of the same values.
	// The non-FMA rungs bind math.Exp — the historical LogSumExp /
	// Softmax bits — while the AVX2 tier binds its own vectorized
	// polynomial exponential (exp_fma_ref.go), a second way that class
	// is a distinct rounding regime, and the float32 tier an 8-wide
	// float32 one (exp_f32_ref.go).
	expShift    func(dst, x []T, shift T)
	sumExpShift func(x []T, shift T) T
	// fuse4 selects the 4-row GEMM microkernel fusion (gemmTRow) and
	// the pairing of examples over it (dot4x2): the AVX2 tier has 16
	// vector registers, so four fused rows fit; the generic set stays
	// at 2-row fusion (dot2). The pure-Go AVX2 fallback fuses 4 rows
	// too; the fusion never changes a bit.
	fuse4 bool
	// fusedCE selects the single-exponential cross-entropy form in
	// CrossEntropyRows (softmax = exp(z-max)/sum instead of
	// exp(z-logsumexp), halving exp calls). Only the FMA regimes use
	// it; the non-FMA rungs keep the historical two-pass arithmetic.
	fusedCE bool
}

// kernelsOf returns the kernel set of element type T: the active
// class's float64 set or the float32 tier's.
func kernelsOf[T Float]() *kernelSet[T] {
	if ks, ok := any(&kernels32).(*kernelSet[T]); ok {
		return ks
	}
	return any(&kernels).(*kernelSet[T])
}

// The active rung. Swapped only by SetKernel; reads are not
// synchronized, which is safe because swaps happen at init or in
// sequential test setup, never while kernels run.
var (
	activeKernel KernelClass
	kernels      kernelSet[float64]
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
// off amd64 every class — including avx2f32 — is: still selectable,
// same bits, just without the SIMD speed.
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

// kernelsFor binds a class to its float64 set, the one class→body
// decision: the FMA classes take the FMA set the CPU offers (fmaKernels,
// per architecture), the non-FMA classes the generic bodies. avx2f32
// binds the avx2 set: its residual float64 arithmetic is defined to be
// the FMA regime's, and its float32 hot path dispatches separately
// through kernels32 (f32.go).
func kernelsFor(c KernelClass) kernelSet[float64] {
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

// StorageF32 reports whether the active class stores model state —
// iterates, gradients, checkpoints, iterate sums, wire payloads — in
// float32. Every model vector then holds float32-representable values
// at all times (exact under float64 round-trips), which is what lets
// the wire codec ship 4-byte elements losslessly.
func StorageF32() bool { return activeKernel == KernelAVX2F32 }

// ElemBytes returns the wire/ledger width of one model-vector element
// under the active storage regime: 4 bytes on the float32 tier, 8
// elsewhere. topology.ModelBytes and the wire codec derive their byte
// accounting from it.
func ElemBytes() int {
	if StorageF32() {
		return 4
	}
	return 8
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
func genericKernels() kernelSet[float64] {
	return kernelSet[float64]{
		dot: dotRef, axpyTo: axpyToRef, dot2: dot2Ref, dot4: dot4From(dotRef),
		dot4x2: dot4x2From(dot4From(dotRef)), axpy4: axpy4From(axpyToRef), stepRow: stepRowRef,
		expShift: expShiftRef, sumExpShift: sumExpShiftRef,
	}
}

// fmaRefKernels is the pure-Go twin of the AVX2+FMA rung: math.FMA is
// correctly rounded, so these bodies reproduce the assembly bit for bit
// (and define its semantics — see TestKernelsMatchReference).
func fmaRefKernels() kernelSet[float64] {
	return kernelSet[float64]{
		dot: dotFMARef, axpyTo: axpyToFMARef, dot4: dot4FMARef,
		dot4x2: dot4x2From(dot4FMARef), axpy4: axpy4FMARef, stepRow: stepRowFMARef,
		expShift: expShiftFMARef, sumExpShift: sumExpShiftFMARef,
		fuse4: true, fusedCE: true,
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

// dot4From composes a four-output fused dot from singles (bitwise equal
// by construction, since every fused kernel accumulates each output in
// its class's single-dot order).
func dot4From(dot func(x, y []float64) float64) func(x, y0, y1, y2, y3 []float64) (float64, float64, float64, float64) {
	return func(x, y0, y1, y2, y3 []float64) (float64, float64, float64, float64) {
		return dot(x, y0), dot(x, y1), dot(x, y2), dot(x, y3)
	}
}

// stepChunk is the column width of the stack buffer the composed
// stepRow bodies accumulate a gradient row in: 8 KiB of float64s, so
// the MLP's 784-column rows take one chunk (one pass over the
// coefficients and one axpy call per quad, as with a whole-row buffer).
// The declaration zeroes the first chunk; later chunks are cleared.
const stepChunk = 1024

// dot4x2From composes the two-row fused dot from two dot4 passes — the
// definitional (and bitwise identical) form for rungs without a
// register-blocked kernel.
func dot4x2From[T Float](dot4 func(x, y0, y1, y2, y3 []T) (T, T, T, T)) func(x0, x1, y0, y1, y2, y3 []T) (T, T, T, T, T, T, T, T) {
	return func(x0, x1, y0, y1, y2, y3 []T) (T, T, T, T, T, T, T, T) {
		r00, r01, r02, r03 := dot4(x0, y0, y1, y2, y3)
		r10, r11, r12, r13 := dot4(x1, y0, y1, y2, y3)
		return r00, r01, r02, r03, r10, r11, r12, r13
	}
}
