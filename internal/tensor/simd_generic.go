//go:build !amd64

package tensor

// Off amd64 there is no SIMD assembly: the FMA classes run the pure-Go
// twins, bit-identical to the AVX2+FMA assembly. dispatch.go decides
// which class binds which set.

func haveAVX2Asm() bool { return false }

func fmaKernels() kernelSet { return fmaRefKernels() }
