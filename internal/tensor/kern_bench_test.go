package tensor

import (
	"fmt"
	"testing"
)

// Kernel microbenchmarks at the shapes the training hot path actually
// hits: GemmT 4×48×10 is one Linear forward chunk on the smoke spec,
// 64×784×10 a full-width MNIST-scale logreg chunk, and Axpy 48 the
// weight-gradient accumulation row. Every benchmark runs once per
// dispatch rung (generic/sse2/avx2 sub-benchmarks via SetKernel; the
// avx2f32 rung binds the avx2 set for these float64 kernels, so it
// would only duplicate the avx2 rows), so a single `go test -bench`
// invocation yields comparable per-class numbers on one machine.

// benchClasses runs fn under each forced kernel class.
func benchClasses(b *testing.B, fn func(b *testing.B)) {
	for _, c := range []KernelClass{KernelGeneric, KernelSSE2, KernelAVX2} {
		c := c
		b.Run(c.String(), func(b *testing.B) {
			restore := SetKernel(c)
			defer restore()
			fn(b)
		})
	}
}

func benchGemmT(b *testing.B, m, k, n int) {
	A := NewMatrix(m, k)
	B := NewMatrix(n, k)
	C := NewMatrix(m, n)
	for i := range A.Data {
		A.Data[i] = float64(i%7) * 0.3
	}
	for i := range B.Data {
		B.Data[i] = float64(i%5) * 0.2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmT(1, A, B, 1, C)
	}
}

func BenchmarkGemmT4x48x10(b *testing.B) {
	benchClasses(b, func(b *testing.B) { benchGemmT(b, 4, 48, 10) })
}

func BenchmarkGemmT64x784x10(b *testing.B) {
	benchClasses(b, func(b *testing.B) { benchGemmT(b, 64, 784, 10) })
}

// BenchmarkGemmTN exercises the batched weight-gradient kernel (the
// axpy4 quad-fusion path) at smoke scale and MNIST-logreg scale.
func BenchmarkGemmTN(b *testing.B) {
	for _, s := range []struct{ k, m, n int }{{8, 10, 48}, {64, 10, 784}} {
		s := s
		b.Run(fmt.Sprintf("%dx%dx%d", s.k, s.m, s.n), func(b *testing.B) {
			benchClasses(b, func(b *testing.B) {
				A := NewMatrix(s.k, s.m)
				B := NewMatrix(s.k, s.n)
				C := NewMatrix(s.m, s.n)
				for i := range A.Data {
					A.Data[i] = float64(i%7)*0.3 - 0.5
				}
				for i := range B.Data {
					B.Data[i] = float64(i%5)*0.2 - 0.3
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					GemmTN(0.5, A, B, C)
				}
			})
		})
	}
}

func benchVec(n int) (x, y []float64) {
	x = make([]float64, n)
	y = make([]float64, n)
	for i := range x {
		x[i] = float64(i)*0.1 - 1
		y[i] = float64(i%5)*0.2 - 0.3
	}
	return x, y
}

func BenchmarkDot(b *testing.B) {
	for _, n := range []int{10, 48, 784, 1 << 14} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchClasses(b, func(b *testing.B) {
				x, y := benchVec(n)
				b.SetBytes(int64(16 * n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkFloat = Dot(x, y)
				}
			})
		})
	}
}

func BenchmarkAxpy(b *testing.B) {
	for _, n := range []int{48, 784} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchClasses(b, func(b *testing.B) {
				x, y := benchVec(n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					Axpy(0.5, x, y)
				}
			})
		})
	}
}

// BenchmarkSoftmax hits the expShift kernel at logits-row width (the
// CrossEntropyRows per-example shape) and a wide row.
func BenchmarkSoftmax(b *testing.B) {
	for _, n := range []int{10, 784} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchClasses(b, func(b *testing.B) {
				x, dst := benchVec(n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					Softmax(dst, x)
				}
			})
		})
	}
}

var sinkFloat float64
