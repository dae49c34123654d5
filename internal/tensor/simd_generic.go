//go:build !amd64

package tensor

// Off amd64 there is no SIMD assembly: the FMA classes run the pure-Go
// twins at both widths, bit-identical to the AVX2+FMA assembly, and the
// regime-boundary conversions their scalar loops. dispatch.go decides
// which class binds which set.

func haveAVX2Asm() bool { return false }

func fmaKernels() kernelSet[float64] { return fmaRefKernels[float64]() }

func fmaKernels32() kernelSet[float32] { return fmaRefKernels[float32]() }

func conversionKernels() (func([]float32, []float64), func([]float64, []float32), func([]float64)) {
	return round64to32Ref, widen32to64Ref, round32Ref
}
