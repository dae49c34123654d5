//go:build !amd64

package tensor

// Off amd64 there is no SIMD assembly: the FMA classes run the math.FMA
// twins, bit-identical to the AVX2+FMA assembly (the avx2f32 float32
// hot path keeps the fma32 twins kernels32 is initialized with in
// f32.go). dispatch.go decides which class binds which set.

func haveAVX2Asm() bool { return false }

func fmaKernels() kernelSet[float64] { return fmaRefKernels() }
