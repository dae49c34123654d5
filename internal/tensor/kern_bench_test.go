package tensor

import (
	"fmt"
	"testing"
)

// Kernel microbenchmarks at the shapes the training hot path actually
// hits: GemmT 4×48×10 is one Linear forward chunk on the smoke spec,
// 64×784×10 a full-width MNIST-scale logreg chunk, and Axpy 48 the
// weight-gradient accumulation row. Every benchmark runs once per
// distinct kernel set (generic/avx2 sub-benchmarks via SetKernel; sse2
// binds the generic set and avx2f32 the avx2 set, so either would only
// duplicate rows), so a single
// `go test -bench` invocation yields comparable per-class numbers on
// one machine.

// benchClasses runs fn under each forced kernel class.
func benchClasses(b *testing.B, fn func(b *testing.B)) {
	for _, c := range []KernelClass{KernelGeneric, KernelAVX2} {
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

// BenchmarkAverageInto times the aggregation chokepoint at the §6.1
// Linear dimension and the §6.2 MLP dimension over three inputs, the
// shape of a small edge's model mean.
func BenchmarkAverageInto(b *testing.B) {
	for _, d := range []int{7850, 266610} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			benchClasses(b, func(b *testing.B) {
				vecs := make([][]float64, 3)
				for i := range vecs {
					vecs[i], _ = benchVec(d)
				}
				dst := make([]float64, d)
				b.SetBytes(int64(8 * d * (len(vecs) + 1)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					AverageInto(dst, vecs...)
				}
			})
		})
	}
}

// BenchmarkMean times every rung's mean kernel directly — on an AVX-512
// host that includes the avx2 class's AVX2 body (archRungs) beside the
// AVX-512 one it binds — at the sweep's shape (d = 490, 48 inputs), a
// small edge's Linear mean (d = 7 850, 3 inputs), a 48-input Linear
// mean and the MLP's (d = 266 610, 3 inputs).
func BenchmarkMean(b *testing.B) {
	for _, s := range []struct{ d, k int }{{490, 48}, {7850, 3}, {7850, 48}, {266610, 3}} {
		for _, rg := range testRungs(b) {
			b.Run(fmt.Sprintf("d=%d/k=%d/%s", s.d, s.k, rg.name), func(b *testing.B) {
				vecs := make([][]float64, s.k)
				for i := range vecs {
					vecs[i], _ = benchVec(s.d)
				}
				dst := make([]float64, s.d)
				inv := 1 / float64(s.k)
				b.SetBytes(int64(8 * s.d * (s.k + 1)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rg.impl.mean(dst, inv, vecs)
				}
			})
		}
	}
}

// BenchmarkGemmTNRStep times the fused SGD weight step at the sweep's
// Linear shape (10×48, four examples), the §6.1 Linear shape (10×784)
// and the MLP's first layer (300×784, sixteen examples).
func BenchmarkGemmTNRStep(b *testing.B) {
	for _, s := range []struct{ k, m, n int }{{4, 10, 48}, {4, 10, 784}, {16, 300, 784}} {
		b.Run(fmt.Sprintf("%dx%dx%d", s.k, s.m, s.n), func(b *testing.B) {
			benchClasses(b, func(b *testing.B) {
				A := NewMatrix(s.k, s.m)
				for i := range A.Data {
					A.Data[i] = float64(i%7)*0.3 - 0.5
				}
				ys := make([][]float64, s.k)
				for k := range ys {
					ys[k], _ = benchVec(s.n)
				}
				W := NewMatrix(s.m, s.n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					GemmTNRStep(0.25, A, ys, 0.01, W, W)
				}
			})
		})
	}
}
