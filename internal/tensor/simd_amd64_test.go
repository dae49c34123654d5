//go:build amd64

package tensor

// archRungs adds the avx2 class's AVX2 assembly as a rung of its own
// when the class binds its AVX-512 bodies, so a host with AVX-512 pins
// both assembly bodies against the math.FMA twins.
func archRungs() []rung {
	if !haveAVX512Asm() {
		return nil
	}
	return []rung{{"avx2-ymm", avx2Kernels(), fmaRefKernels[float64]()}}
}
