package tensor

import "repro/internal/obs"

// Cache-blocked BLAS-3 kernels for the batched training path, one
// generic body per kernel for both storage widths: on float64 operands
// they run the active class's kernel set, on float32 operands the
// avx2f32 tier's (kernels32).
//
// Determinism contract: every kernel accumulates each output element in
// a fixed index order identical to the per-example BLAS-1/2 path it
// replaces — GemmT matches one Dot/Gemv per output element, Gemm matches
// GemvT's k-ascending Axpy accumulation, and GemmTN matches a sequence
// of per-example outer-product updates in row order. Blocking only tiles the independent
// output dimensions; the reduction order over k is never changed, so
// switching the models from per-example to batched execution cannot
// change a single bit of any training trajectory (pinned by the goldens
// in internal/invariance).

// gemmFlops counts multiply-add work (2*m*n*k per product) so profiles
// and metric snapshots attribute time to the batched kernels.
var gemmFlops = obs.NewCounterHandle("tensor_gemm_flops_total")

// gemmPanel is the target cache footprint of one panel of the dot
// kernels, in elements (4096 float64s = 32 KiB, one typical L1d).
const gemmPanel = 4096

// panelDim returns how many depth-k rows of B the dot kernels (GemmT,
// GemmTR) keep in one cache panel: as many as fit in gemmPanel, rounded
// down to the fusion width 4 and at least 4. Rounding down matters at
// k = 784, where 4 rows take 25 KB and 8 would overflow a 48 KB L1d.
func panelDim(k int) int {
	return max(gemmPanel/max(k, 1)/4*4, 4)
}

// tnBlock returns how many examples the weight-gradient kernels (GemmTN,
// GemmTNR) accumulate per sweep over C, for C rows of length n: as many
// depth-n rows as fit in gemmPanel, but at least 16. Every block sweeps
// all of C, so the floor lets a B ≤ 16 chunk of the MLP's first layer
// pass over the 1.88 MB gW1 once; on ReLU-masked rows at n = 784 a
// block of 4 measured slower than 8, and 8 slower than 16.
func tnBlock(n int) int {
	return max(gemmPanel/max(n, 1), 16)
}

// checkRows panics unless every row has length n. The row-slice kernels
// call it once, before they write C.
func checkRows[T Float](rows [][]T, n int) {
	for _, r := range rows {
		checkLen(len(r), n)
	}
}

// Gemm computes C = alpha*A*B + beta*C, all row-major, one full C row at
// a time: the k terms of a row run through the fused axpy4 in quads,
// with single axpys for the tail. axpy4 is per element exactly four
// sequential Axpys on every rung, so each output element accumulates
// over k in ascending order with coefficient alpha*A[i][k], exactly the
// floating-point sequence GemvT produces column-wise — the batched
// backprop through a weight matrix relies on that equivalence. There is
// no zero skip. Panics on shape mismatch.
func Gemm[T Float](alpha T, a, b *Mat[T], beta T, c *Mat[T]) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("tensor: Gemm shape mismatch")
	}
	ks := kernelsOf[T]()
	if beta == 0 {
		Zero(c.Data)
	} else if beta != 1 {
		Scale(beta, c.Data)
	}
	for i := 0; i < a.Rows; i++ {
		arow, crow := a.Row(i), c.Row(i)
		k := 0
		for ; k+4 <= len(arow); k += 4 {
			ks.axpy4(alpha*arow[k], alpha*arow[k+1], alpha*arow[k+2], alpha*arow[k+3],
				b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3), crow)
		}
		for ; k < len(arow); k++ {
			ks.axpyTo(crow, alpha*arow[k], b.Row(k), crow)
		}
	}
	gemmFlops.Add(2 * int64(a.Rows) * int64(a.Cols) * int64(b.Cols))
}

// GemmT computes C = alpha*A*B^T + beta*C for row-major A (m×k), B (n×k)
// and C (m×n), blocked so a panel of B rows stays cache-resident while
// the rows of A stream past it. Every output element is one Dot of two
// contiguous rows — bitwise-identical to the per-example Gemv forward
// pass. Panics on shape mismatch.
func GemmT[T Float](alpha T, a, b *Mat[T], beta T, c *Mat[T]) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic("tensor: GemmT shape mismatch")
	}
	ks := kernelsOf[T]()
	nb := panelDim(a.Cols)
	for j0 := 0; j0 < b.Rows; j0 += nb {
		j1 := min(j0+nb, b.Rows)
		i := 0
		for ; i+2 <= a.Rows; i += 2 {
			gemmTRow2(ks, alpha, a.Row(i), a.Row(i+1), b, beta, c.Row(i), c.Row(i+1), j0, j1)
		}
		for ; i < a.Rows; i++ {
			gemmTRow(ks, alpha, a.Row(i), b, beta, c.Row(i), j0, j1)
		}
	}
	gemmFlops.Add(2 * int64(a.Rows) * int64(a.Cols) * int64(b.Rows))
}

// GemmTR is GemmT with the left operand given as individual row slices
// (C = alpha*X*B^T + beta*C with X's rows in xrows). The models pass
// their mini-batch feature vectors directly, skipping the gather copy
// into a contiguous matrix; results are identical to GemmT on the
// gathered matrix. Panics on shape mismatch or a ragged row.
func GemmTR[T Float](alpha T, xrows [][]T, b *Mat[T], beta T, c *Mat[T]) {
	if c.Rows != len(xrows) || c.Cols != b.Rows {
		panic("tensor: GemmTR shape mismatch")
	}
	checkRows(xrows, b.Cols)
	ks := kernelsOf[T]()
	nb := panelDim(b.Cols)
	for j0 := 0; j0 < b.Rows; j0 += nb {
		j1 := min(j0+nb, b.Rows)
		i := 0
		for ; i+2 <= len(xrows); i += 2 {
			gemmTRow2(ks, alpha, xrows[i], xrows[i+1], b, beta, c.Row(i), c.Row(i+1), j0, j1)
		}
		for ; i < len(xrows); i++ {
			gemmTRow(ks, alpha, xrows[i], b, beta, c.Row(i), j0, j1)
		}
	}
	gemmFlops.Add(2 * int64(len(xrows)) * int64(b.Cols) * int64(b.Rows))
}

// gemmTRow fills crow[j] = alpha*dot(x, B.Row(j)) + beta*crow[j] for j in
// [j0, j1), fusing four B rows per pass (dot4) to share the loads of x;
// the last 0-3 B rows take single dots. Each fused output accumulates in
// exactly the class's single dot order, so the fusion never changes a
// bit within a class.
func gemmTRow[T Float](ks *kernelSet[T], alpha T, x []T, b *Mat[T], beta T, crow []T, j0, j1 int) {
	j := j0
	for ; j+4 <= j1; j += 4 {
		d0, d1, d2, d3 := ks.dot4(x, b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3))
		crow[j] = alpha*d0 + beta*crow[j]
		crow[j+1] = alpha*d1 + beta*crow[j+1]
		crow[j+2] = alpha*d2 + beta*crow[j+2]
		crow[j+3] = alpha*d3 + beta*crow[j+3]
	}
	for ; j < j1; j++ {
		crow[j] = alpha*ks.dot(x, b.Row(j)) + beta*crow[j]
	}
}

// gemmTRow2 is gemmTRow for two left rows x0, x1 (C rows c0, c1):
// dot4x2 computes the 2×4 block of outputs per quad of B rows, loading
// each B chunk once for both rows, and the last 0-3 B rows take single
// dots. Every output is still one dot in the
// class's order, so pairing changes no bit.
func gemmTRow2[T Float](ks *kernelSet[T], alpha T, x0, x1 []T, b *Mat[T], beta T, c0, c1 []T, j0, j1 int) {
	j := j0
	for ; j+4 <= j1; j += 4 {
		d00, d01, d02, d03, d10, d11, d12, d13 := ks.dot4x2(x0, x1, b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3))
		c0[j] = alpha*d00 + beta*c0[j]
		c0[j+1] = alpha*d01 + beta*c0[j+1]
		c0[j+2] = alpha*d02 + beta*c0[j+2]
		c0[j+3] = alpha*d03 + beta*c0[j+3]
		c1[j] = alpha*d10 + beta*c1[j]
		c1[j+1] = alpha*d11 + beta*c1[j+1]
		c1[j+2] = alpha*d12 + beta*c1[j+2]
		c1[j+3] = alpha*d13 + beta*c1[j+3]
	}
	for ; j < j1; j++ {
		c0[j] = alpha*ks.dot(x0, b.Row(j)) + beta*c0[j]
		c1[j] = alpha*ks.dot(x1, b.Row(j)) + beta*c1[j]
	}
}

// GemmTN accumulates C += alpha*A^T*B for row-major A (k×m), B (k×n) and
// C (m×n): the batched weight-gradient kernel, where k indexes the
// examples of a mini-batch. Examples are blocked (tnBlock) so a block of
// B rows stays cache-resident across the m output rows. Each output row
// accumulates the examples in ascending order and skips zero
// coefficients — exactly the floating-point sequence of the outer-product
// updates C.Row(j) += (alpha·A[k][j])·B.Row(k), one Axpy per nonzero
// A[k][j], for k = 0, 1, … Nonzero coefficients are gathered four at a time into
// the fused axpy4 kernel, which is per element exactly four sequential
// Axpy passes on every rung (so fusion changes no bits), loading and
// storing crow once instead of four times. The zero skip must stay a
// skip — fma(0, x, y) is not a no-op for Inf/NaN rows — so only nonzero
// quads are fused. Panics on shape mismatch.
func GemmTN[T Float](alpha T, a, b, c *Mat[T]) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic("tensor: GemmTN shape mismatch")
	}
	gemmTN(alpha, a, b, nil, c)
}

// GemmTNR is GemmTN with the right operand given as individual row
// slices: C += alpha*A^T*Y with Y's rows in yrows. The weight-gradient
// kernel for an ungathered mini-batch; results are identical to GemmTN
// on the gathered matrix. Panics on shape mismatch or a ragged row.
func GemmTNR[T Float](alpha T, a *Mat[T], yrows [][]T, c *Mat[T]) {
	if a.Rows != len(yrows) || c.Rows != a.Cols {
		panic("tensor: GemmTNR shape mismatch")
	}
	checkRows(yrows, c.Cols)
	gemmTN(alpha, a, nil, yrows, c)
}

// GemmTNRStep is GemmTNR with an SGD epilogue. With G = alpha·AᵀY the
// gradient GemmTNR would accumulate into a zeroed C, it writes
// dst.Row(i) = w.Row(i) − eta·G.Row(i) for every row i in one call to
// the class's stepRows kernel, which keeps each gradient row in
// registers (or in a stack buffer, column chunk by column chunk): the
// model-sized G never exists, and w and dst are each touched once. Per
// element it is exactly Zero(C), GemmTNR(alpha, a, yrows, C),
// AxpyTo(dst.Data, -eta, C.Data, w.Data) — the same example-ascending
// order and zero skip. dst may alias w. Panics on shape mismatch or a
// ragged row, before dst is written.
func GemmTNRStep[T Float](alpha T, a *Mat[T], yrows [][]T, eta T, w, dst *Mat[T]) {
	if a.Rows != len(yrows) || w.Rows != a.Cols || dst.Rows != w.Rows || dst.Cols != w.Cols {
		panic("tensor: GemmTNRStep shape mismatch")
	}
	checkRows(yrows, w.Cols)
	kernelsOf[T]().stepRows(*dst, *w, eta, alpha, *a, yrows)
	gemmFlops.Add(2 * int64(a.Rows) * int64(a.Cols) * int64(w.Cols))
}

// gemmTN is the body of GemmTN and GemmTNR, on shapes already checked:
// example k's right-operand row is yrows[k] if yrows is non-nil, else
// b.Row(k).
func gemmTN[T Float](alpha T, a, b *Mat[T], yrows [][]T, c *Mat[T]) {
	ks := kernelsOf[T]()
	kb := tnBlock(c.Cols)
	for k0 := 0; k0 < a.Rows; k0 += kb {
		k1 := min(k0+kb, a.Rows)
		for i := 0; i < c.Rows; i++ {
			tnRow(ks, alpha, a, b, yrows, i, k0, k1, c.Row(i))
		}
	}
	gemmFlops.Add(2 * int64(a.Rows) * int64(a.Cols) * int64(c.Cols))
}

// tnRow accumulates examples [k0, k1) of output row i into crow in
// ascending order, skipping zero coefficients and fusing nonzero ones
// into axpy4 quads (a quad never spans two example blocks).
func tnRow[T Float](ks *kernelSet[T], alpha T, a, b *Mat[T], yrows [][]T, i, k0, k1 int, crow []T) {
	var cf [4]T
	var rows [4][]T
	nq := 0
	for k := k0; k < k1; k++ {
		aki := a.Data[k*a.Cols+i]
		if aki == 0 {
			continue
		}
		cf[nq] = alpha * aki
		if yrows != nil {
			rows[nq] = yrows[k]
		} else {
			rows[nq] = b.Row(k)
		}
		if nq++; nq == 4 {
			ks.axpy4(cf[0], cf[1], cf[2], cf[3], rows[0], rows[1], rows[2], rows[3], crow)
			nq = 0
		}
	}
	for q := 0; q < nq; q++ {
		ks.axpyTo(crow, cf[q], rows[q], crow)
	}
}
