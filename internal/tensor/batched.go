package tensor

import "math"

// Row-wise softmax / cross-entropy helpers for the batched training
// path. Each row is processed with exactly the per-example arithmetic
// of the active kernel class, and row losses chain onto the caller-supplied running total in row
// order, so chunked batches reproduce the per-example summation bitwise
// within a class.

// SoftmaxRows writes the row-wise softmax of z into dst (dst may alias
// z). Panics on shape mismatch.
func SoftmaxRows(dst, z *Matrix) {
	if dst.Rows != z.Rows || dst.Cols != z.Cols {
		panic("tensor: SoftmaxRows shape mismatch")
	}
	for i := 0; i < z.Rows; i++ {
		Softmax(dst.Row(i), z.Row(i))
	}
}

// CrossEntropyRows treats each row of z as the logits of one example
// with true class ys[i], writes dLoss/dLogits (softmax − one-hot) into
// the corresponding row of dz (dz may alias z), and returns total with
// every row's cross-entropy added in row order. Panics on shape or
// length mismatch.
//
// The arithmetic is per kernel class. The non-FMA rungs keep the
// historical two-pass form (LogSumExp, then exp(z−lse) per element —
// two math.Exp per logit). The FMA tier uses the fused single-
// exponential form: softmax = exp(z−max)/sum with the vectorized class
// exponential, and lse = max + log(sum), which both halves the
// exponential count and batches it 4-wide. Each form is pinned by its
// regime's golden fixtures.
func CrossEntropyRows(dz, z *Matrix, ys []int, total float64) float64 {
	if dz.Rows != z.Rows || dz.Cols != z.Cols {
		panic("tensor: CrossEntropyRows shape mismatch")
	}
	checkLen(len(ys), z.Rows)
	if ks := &kernels; ks.fusedCE {
		for i := 0; i < z.Rows; i++ {
			zi := z.Row(i)
			di := dz.Row(i)
			m := Max(zi)
			ks.expShift(di, zi, m)
			s := 0.0
			for _, e := range di {
				s += e
			}
			total += m + math.Log(s) - zi[ys[i]]
			inv := 1 / s
			for j := range di {
				di[j] *= inv
			}
			di[ys[i]] -= 1
		}
		return total
	}
	for i := 0; i < z.Rows; i++ {
		zi := z.Row(i)
		di := dz.Row(i)
		lse := LogSumExp(zi)
		total += lse - zi[ys[i]]
		for j, v := range zi {
			di[j] = math.Exp(v - lse)
		}
		di[ys[i]] -= 1
	}
	return total
}

// CrossEntropyLossRows returns total with each row's cross-entropy
// (LogSumExp(z_i) − z_i[y_i]) added in row order, without computing
// gradients. Panics on length mismatch.
func CrossEntropyLossRows(z *Matrix, ys []int, total float64) float64 {
	checkLen(len(ys), z.Rows)
	for i := 0; i < z.Rows; i++ {
		zi := z.Row(i)
		total += LogSumExp(zi) - zi[ys[i]]
	}
	return total
}
