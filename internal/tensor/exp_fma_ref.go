package tensor

import "math"

// The FMA-class exponential. The AVX2 tier replaces math.Exp on its hot
// paths (LogSumExp, Softmax, CrossEntropyRows) with a branch-free
// polynomial exponential that vectorizes 4-wide: argument reduction
// x = k·ln2 + r with round-to-even k and a two-constant Cody–Waite
// subtraction, a degree-13 Taylor polynomial in Horner form (every step
// one fused multiply-add), and reconstruction by two exact powers of
// two. expFMA below is the scalar twin: math.FMA and math.RoundToEven
// are correctly rounded, so it reproduces the assembly in
// simd_avx2_amd64.s bit for bit on every input and serves as the rung's
// implementation off amd64.
//
// Semantics differ from math.Exp only in the last couple of ulps
// (|rel err| < 4e-16 over the normal range — see TestExpFMAAccuracy)
// and at the subnormal fringe: results below 2^-1022 flush to zero
// (inputs ≤ expLo), which a max-shifted softmax never produces next to
// the guaranteed exp(0)=1 term. The difference is exactly why the FMA
// tier is its own rounding regime with its own golden fixtures.
const (
	// expHi is ln(MaxFloat64): at or above it exp overflows to +Inf.
	expHi = 709.782712893384
	// expLo is -1022·ln2: at or below it exp(x) < 2^-1022 (subnormal);
	// the class flushes those to zero so the power-of-two
	// reconstruction never has to denormalize.
	expLo = -708.3964185322641
	// invLn2 = log2(e); ln2Hi+ln2Lo split ln2 so r = x − k·ln2 is
	// computed to well beyond double precision (FDLIBM constants).
	invLn2 = math.Log2E
	ln2Hi  = 6.93147180369123816490e-01
	ln2Lo  = 1.90821492927058770002e-10
)

// expFMA is the FMA-class exponential (scalar twin of the 4-lane
// assembly; one lane's exact operation sequence).
func expFMA(x float64) float64 {
	if !(x < expHi) {
		// x ≥ expHi, +Inf, or NaN: the assembly blends in x·(+Inf),
		// which is +Inf for the overflow lanes and quiet-NaN
		// passthrough for NaN lanes.
		return x * math.Inf(1)
	}
	if x <= expLo {
		return 0
	}
	kd := math.RoundToEven(x * invLn2)
	r := math.FMA(-kd, ln2Hi, x)
	r = math.FMA(-kd, ln2Lo, r)
	// exp(r) for |r| ≤ ln2/2, Taylor coefficients 1/n! rounded to
	// nearest (identical bits to the replicated table in
	// simd_avx2_amd64.s).
	p := 1.0 / 6227020800
	p = math.FMA(p, r, 1.0/479001600)
	p = math.FMA(p, r, 1.0/39916800)
	p = math.FMA(p, r, 1.0/3628800)
	p = math.FMA(p, r, 1.0/362880)
	p = math.FMA(p, r, 1.0/40320)
	p = math.FMA(p, r, 1.0/5040)
	p = math.FMA(p, r, 1.0/720)
	p = math.FMA(p, r, 1.0/120)
	p = math.FMA(p, r, 1.0/24)
	p = math.FMA(p, r, 1.0/6)
	p = math.FMA(p, r, 0.5)
	p = math.FMA(p, r, 1.0)
	p = math.FMA(p, r, 1.0)
	// 2^k via two exact power-of-two factors: k ∈ [-1022, 1024], and
	// splitting k = q1+q2 keeps each factor a normal double (the k=1024
	// overflow and the deepest k=-1022 round through the multiplies,
	// matching the two VMULPDs of the assembly).
	k := int32(kd)
	q1 := k >> 1
	q2 := k - q1
	return p * pow2(q1) * pow2(q2)
}

// pow2 returns 2^q for |q| ≤ 1022 by direct exponent-field
// construction.
func pow2(q int32) float64 {
	return math.Float64frombits(uint64(int64(q)+1023) << 52)
}
