//go:build !amd64

package tensor

// Non-amd64 dispatch table. The sse2 class is served by the generic
// bodies — the SSE2 assembly is bit-identical to them by contract, so
// the class's rounding regime is reproducible without the hardware —
// and the avx2/avx2f32 classes by the math.FMA twins, which are
// bit-identical to the AVX2+FMA assembly for the same reason (the
// avx2f32 float32 hot path keeps the fma32 twins kernels32 is
// initialized with in f32.go).

func defaultKernel() KernelClass { return KernelGeneric }

func kernelsFor(c KernelClass) kernelSet[float64] {
	if c == KernelAVX2 || c == KernelAVX2F32 {
		return fmaRefKernels()
	}
	return genericKernels()
}

// backingAsm: no SIMD assembly off amd64 — every rung runs its
// bit-identical pure-Go twin.
func backingAsm(KernelClass) bool { return false }
