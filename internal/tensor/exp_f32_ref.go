package tensor

import "math"

// The float32-class exponential: CrossEntropyRows and LogSumExp on
// float32 operands replace expFMA with an 8-wide float32 polynomial
// exponential. exp32 below is the scalar twin of one assembly lane
// (simd_avx2f32_amd64.s): every operation is a correctly-rounded
// float32 operation — fma32 for the fused steps — so assembly and twin
// agree bit for bit on every input.
//
// Structure mirrors expFMA: argument reduction x = k·ln2 + r with
// round-to-even k and the FDLIBM float Cody–Waite split (ln2Hi32's
// significand ends in nine zero bits, so k·ln2Hi32 is exact for the
// whole |k| ≤ 128 range), a degree-8 Taylor polynomial in fma32 Horner
// form (r^9/9! < 2^-31 over |r| ≤ ln2/2, below half an ulp), and
// reconstruction by two power-of-two multiplies 2^(k>>1) and
// 2^(k-(k>>1)) built in the exponent field. Inputs at or below exp32Lo
// flush to zero (the k = −127 fringe); k = −126 lanes may still produce
// subnormal results, which both the assembly's VMULPS and Go's float32
// multiply round identically under IEEE gradual underflow.
const (
	// exp32Hi is ln(MaxFloat32): at or above it exp overflows to +Inf.
	exp32Hi = float32(88.72284)
	// exp32Lo is −126·ln2 rounded to float32: at or below it
	// exp(x) < 2^-126 with k ≤ −127, outside the exponent-field
	// construction's range, so the class flushes to zero.
	exp32Lo = float32(-87.33655)
	// invLn232 = log2(e); ln2Hi32+ln2Lo32 split ln2 so r = x − k·ln2
	// carries well beyond single precision (FDLIBM e_expf constants).
	invLn232 = float32(1.4426950408889634)
	ln2Hi32  = float32(6.9314575195e-01) // 0x3F317200
	ln2Lo32  = float32(1.4286067653e-06) // 0x35BFBE8E
)

// exp32 is the float32-class exponential (scalar twin of the 8-lane
// assembly; one lane's exact operation sequence).
func exp32(x float32) float32 {
	if !(x < exp32Hi) {
		// x ≥ exp32Hi, +Inf, or NaN: the assembly blends in x·(+Inf).
		return x * float32(math.Inf(1))
	}
	if x <= exp32Lo {
		return 0
	}
	// Round-to-even of an exactly-converted float32 product: the
	// float64 detour is exact, matching VROUNDPS $0.
	kd := float32(math.RoundToEven(float64(x * invLn232)))
	r := fma32(-kd, ln2Hi32, x)
	r = fma32(-kd, ln2Lo32, r)
	// exp(r) for |r| ≤ ln2/2, Taylor coefficients 1/n! rounded to
	// nearest (identical bits to the replicated table in the assembly).
	p := float32(1.0 / 40320)
	p = fma32(p, r, 1.0/5040)
	p = fma32(p, r, 1.0/720)
	p = fma32(p, r, 1.0/120)
	p = fma32(p, r, 1.0/24)
	p = fma32(p, r, 1.0/6)
	p = fma32(p, r, 0.5)
	p = fma32(p, r, 1.0)
	p = fma32(p, r, 1.0)
	// 2^k via two power-of-two factors: k ∈ [−126, 128], so both halves
	// stay normal floats and the k = 128 overflow rounds through the
	// multiplies, matching the two VMULPS of the assembly.
	k := int32(kd)
	q1 := k >> 1
	q2 := k - q1
	return p * pow232(q1) * pow232(q2)
}

// pow232 returns 2^q for −126 ≤ q ≤ 127 by direct exponent-field
// construction.
func pow232(q int32) float32 {
	return math.Float32frombits(uint32(q+127) << 23)
}
