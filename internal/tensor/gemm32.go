package tensor

import "math"

// float32 siblings of the cache-blocked BLAS-3 kernels in gemm.go and
// the row-wise softmax/cross-entropy helpers in batched.go: the batched
// training path of the avx2f32 storage tier.
//
// The determinism contract carries over unchanged: every kernel
// accumulates each output element in a fixed index order — one dot32
// per output for the *T* forms, example-ascending fused axpy4 chains
// for the *TN* forms — and blocking only tiles the independent output
// dimensions. There is exactly one float32 class, so unlike the float64
// kernels these always run the FMA arithmetic (fuse4 and the fused
// single-exponential cross-entropy are unconditional).

// Gemm32 computes C = alpha*A*B + beta*C, all row-major, one full C
// row at a time through k-quads of the fused axpy4 and a single-axpy
// tail; each output element accumulates over k in ascending order, with
// no zero skip. Panics on shape mismatch.
func Gemm32(alpha float32, a, b *Matrix32, beta float32, c *Matrix32) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("tensor: Gemm32 shape mismatch")
	}
	if beta == 0 {
		Zero32(c.Data)
	} else if beta != 1 {
		Scale32(beta, c.Data)
	}
	for i := 0; i < a.Rows; i++ {
		arow, crow := a.Row(i), c.Row(i)
		k := 0
		for ; k+4 <= len(arow); k += 4 {
			kernels32.axpy4(alpha*arow[k], alpha*arow[k+1], alpha*arow[k+2], alpha*arow[k+3],
				b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3), crow)
		}
		for ; k < len(arow); k++ {
			kernels32.axpy(alpha*arow[k], b.Row(k), crow)
		}
	}
	gemmFlops.Add(2 * int64(a.Rows) * int64(a.Cols) * int64(b.Cols))
}

// GemmT32 computes C = alpha*A*B^T + beta*C for row-major A (m×k),
// B (n×k) and C (m×n), blocked so a panel of B rows stays
// cache-resident. Every output element is one float32 dot product of two contiguous
// rows. Panics on shape mismatch.
func GemmT32(alpha float32, a, b *Matrix32, beta float32, c *Matrix32) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic("tensor: GemmT32 shape mismatch")
	}
	nb := panelDim(a.Cols)
	for j0 := 0; j0 < b.Rows; j0 += nb {
		j1 := min(j0+nb, b.Rows)
		for i := 0; i < a.Rows; i++ {
			gemmT32Row(alpha, a.Row(i), b, beta, c.Row(i), j0, j1)
		}
	}
	gemmFlops.Add(2 * int64(a.Rows) * int64(a.Cols) * int64(b.Rows))
}

// GemmTR32 is GemmT32 with the left operand given as individual row
// slices (the models' ungathered mini-batch feature views). Panics on
// shape mismatch or a ragged row.
func GemmTR32(alpha float32, xrows [][]float32, b *Matrix32, beta float32, c *Matrix32) {
	if c.Rows != len(xrows) || c.Cols != b.Rows {
		panic("tensor: GemmTR32 shape mismatch")
	}
	checkRows(xrows, b.Cols)
	nb := panelDim(b.Cols)
	for j0 := 0; j0 < b.Rows; j0 += nb {
		j1 := min(j0+nb, b.Rows)
		for i, x := range xrows {
			gemmT32Row(alpha, x, b, beta, c.Row(i), j0, j1)
		}
	}
	gemmFlops.Add(2 * int64(len(xrows)) * int64(b.Cols) * int64(b.Rows))
}

// gemmT32Row fills crow[j] = alpha*dot32(x, B.Row(j)) + beta*crow[j]
// for j in [j0, j1), fusing four B rows per pass (the float32 tier is
// an AVX2+FMA tier: eight 8-lane FMA chains fill the YMM file). Each
// fused output accumulates in exactly dot32Ref's order, so the fusion
// never changes a bit.
func gemmT32Row(alpha float32, x []float32, b *Matrix32, beta float32, crow []float32, j0, j1 int) {
	j := j0
	for ; j+4 <= j1; j += 4 {
		d0, d1, d2, d3 := kernels32.dot4(x, b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3))
		crow[j] = alpha*d0 + beta*crow[j]
		crow[j+1] = alpha*d1 + beta*crow[j+1]
		crow[j+2] = alpha*d2 + beta*crow[j+2]
		crow[j+3] = alpha*d3 + beta*crow[j+3]
	}
	for ; j < j1; j++ {
		crow[j] = alpha*kernels32.dot(x, b.Row(j)) + beta*crow[j]
	}
}

// GemmTN32 accumulates C += alpha*A^T*B for row-major A (k×m), B (k×n)
// and C (m×n): the float32 batched weight-gradient kernel. Each output
// row accumulates the examples in ascending order, in tnBlock blocks,
// skipping zero coefficients (fma32(0, x, y) is not a no-op for Inf/NaN
// rows), with nonzero quads fused into axpy4. Panics on shape mismatch.
func GemmTN32(alpha float32, a, b, c *Matrix32) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic("tensor: GemmTN32 shape mismatch")
	}
	gemmTN32(alpha, a, b, nil, c)
}

// GemmTNR32 is GemmTN32 with the right operand given as individual row
// slices: C += alpha*A^T*Y with Y's rows in yrows. Panics on shape
// mismatch or a ragged row.
func GemmTNR32(alpha float32, a *Matrix32, yrows [][]float32, c *Matrix32) {
	if a.Rows != len(yrows) || c.Rows != a.Cols {
		panic("tensor: GemmTNR32 shape mismatch")
	}
	checkRows(yrows, c.Cols)
	gemmTN32(alpha, a, nil, yrows, c)
}

// gemmTN32 is the body of GemmTN32 and GemmTNR32, as gemmTN is of the
// float64 pair.
func gemmTN32(alpha float32, a, b *Matrix32, yrows [][]float32, c *Matrix32) {
	kb := tnBlock(c.Cols)
	for k0 := 0; k0 < a.Rows; k0 += kb {
		k1 := min(k0+kb, a.Rows)
		for i := 0; i < c.Rows; i++ {
			crow := c.Row(i)
			var cf [4]float32
			var rows [4][]float32
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
					kernels32.axpy4(cf[0], cf[1], cf[2], cf[3], rows[0], rows[1], rows[2], rows[3], crow)
					nq = 0
				}
			}
			for q := 0; q < nq; q++ {
				kernels32.axpy(cf[q], rows[q], crow)
			}
		}
	}
	gemmFlops.Add(2 * int64(a.Rows) * int64(a.Cols) * int64(c.Cols))
}

// CrossEntropyRows32 is the float32 sibling of CrossEntropyRows,
// always in the fused single-exponential form (the float32 class is an
// FMA tier): softmax = exp32(z−max)/sum with the class exponential,
// loss row = max + log(sum) − z[y] with the log rounded through float64
// math.Log, and float32 arithmetic everywhere else. Row losses chain
// onto total in row order. Panics on shape or length mismatch.
func CrossEntropyRows32(dz, z *Matrix32, ys []int, total float32) float32 {
	if dz.Rows != z.Rows || dz.Cols != z.Cols {
		panic("tensor: CrossEntropyRows32 shape mismatch")
	}
	checkLen(len(ys), z.Rows)
	for i := 0; i < z.Rows; i++ {
		zi := z.Row(i)
		di := dz.Row(i)
		m := Max32(zi)
		kernels32.expShift(di, zi, m)
		s := float32(0)
		for _, e := range di {
			s += e
		}
		total += m + float32(math.Log(float64(s))) - zi[ys[i]]
		inv := 1 / s
		for j := range di {
			di[j] *= inv
		}
		di[ys[i]] -= 1
	}
	return total
}

// CrossEntropyLossRows32 returns total with each row's cross-entropy
// (LogSumExp32(z_i) − z_i[y_i]) added in row order, without computing
// gradients. Panics on length mismatch.
func CrossEntropyLossRows32(z *Matrix32, ys []int, total float32) float32 {
	checkLen(len(ys), z.Rows)
	for i := 0; i < z.Rows; i++ {
		zi := z.Row(i)
		total += LogSumExp32(zi) - zi[ys[i]]
	}
	return total
}
