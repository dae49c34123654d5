// Package rng provides deterministic, splittable pseudo-random number
// streams for reproducible distributed simulations.
//
// Every component of a simulated federated run (each client, each edge
// server, each training round) draws from its own Stream derived from a
// root seed by a stable key path. This makes trajectories independent of
// scheduling order: the parallel and sequential engines consume identical
// random sequences because each logical entity owns its stream.
//
// The generator is SplitMix64 (Steele, Lea, Flood; JPDC 2014), which has a
// 64-bit state, passes BigCrush when used as specified, and — critically
// for splitting — allows child streams to be derived by mixing a key into
// the parent seed without correlating the sequences.
package rng

import "math"

// Stream is a deterministic pseudo-random stream. The zero value is a
// valid stream seeded with 0; prefer New for clarity.
//
// A Stream is NOT safe for concurrent use; derive one stream per
// goroutine with Child.
type Stream struct {
	state uint64
	// spare caches the second output of the polar Gaussian method.
	spare    float64
	hasSpare bool
}

// New returns a Stream seeded from seed.
func New(seed uint64) *Stream {
	return &Stream{state: mix64(seed)}
}

// Root is New returning the stream by value: same derivation, no heap
// allocation. Hot paths that re-derive a decision tree from a fixed
// seed on every call (internal/chaos fault schedules) use it together
// with ChildVal to stay allocation-free; New(seed) and Root(seed)
// produce identical sequences.
func Root(seed uint64) Stream {
	return Stream{state: mix64(seed)}
}

// gamma is the SplitMix64 increment: a stream's i-th draw mixes its
// state plus i·gamma.
const gamma = 0x9e3779b97f4a7c15

// mix64 is the SplitMix64 output function, also used to hash seeds and
// keys so that nearby seeds yield unrelated streams.
func mix64(z uint64) uint64 {
	z += gamma
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Stream) Uint64() uint64 {
	s.state += gamma
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Child derives an independent stream keyed by key. Two children of the
// same parent with different keys, and the parent itself, produce
// unrelated sequences. Child does not advance the parent stream, so the
// set of children is a pure function of the parent's seed.
func (s *Stream) Child(key uint64) *Stream {
	return &Stream{state: mix64(s.state ^ mix64(key^0xd1b54a32d192ed03))}
}

// ChildN derives an independent stream keyed by a path of keys, e.g.
// (round, clientID).
func (s *Stream) ChildN(keys ...uint64) *Stream {
	c := s
	for _, k := range keys {
		c = c.Child(k)
	}
	return c
}

// ChildVal is Child returning the stream by value: same derivation, no
// heap allocation. Hot paths that embed streams in recycled message
// structs (internal/simnet) use it to keep per-message allocation at
// zero; Child(k) and ChildVal(k) produce identical sequences.
func (s Stream) ChildVal(key uint64) Stream {
	return Stream{state: mix64(s.state ^ mix64(key^0xd1b54a32d192ed03))}
}

// Float64 returns a uniform value in [0, 1) with 53 random bits.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Float64s overwrites dst with the next len(dst) values of Float64, in
// order, and leaves the stream where len(dst) calls of Float64 would.
// Draw i mixes state + (i+1)·gamma, independently of the draws before
// it, so on AVX2 machines four lanes draw at once; the lanes convert the
// 53-bit value exactly, so the values are Float64's bit for bit.
func (s *Stream) Float64s(dst []float64) {
	n := float64sLanes(dst, s.state)
	s.state += uint64(n) * gamma
	for i := n; i < len(dst); i++ {
		dst[i] = s.Float64()
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	v := s.Uint64()
	hi, lo := mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := uint64(-int64(n)) % uint64(n)
		for lo < thresh {
			v = s.Uint64()
			hi, lo = mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// mul64 computes the 128-bit product of a and b.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// NormFloat64 returns a standard normal variate via the Marsaglia polar
// method, caching the spare deviate.
func (s *Stream) NormFloat64() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(q) / q)
		s.spare = v * f
		s.hasSpare = true
		return u * f
	}
}

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(p)
	return p
}

// Shuffle permutes p in place (Fisher–Yates).
func (s *Stream) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Fill overwrites dst with i.i.d. N(0, sigma^2) samples.
func (s *Stream) Fill(dst []float64, sigma float64) {
	for i := range dst {
		dst[i] = sigma * s.NormFloat64()
	}
}

// FillUniform overwrites dst with i.i.d. Uniform[lo, hi) samples.
func (s *Stream) FillUniform(dst []float64, lo, hi float64) {
	w := hi - lo
	for i := range dst {
		dst[i] = lo + w*s.Float64()
	}
}

// MarshaledSize is the wire size of a Stream's MarshalBinary encoding:
// 8 bytes of SplitMix64 state, 8 bytes of cached polar-method spare
// deviate, and one flag byte.
const MarshaledSize = 17

// MarshalBinary encodes the complete generator state — including the
// cached Gaussian spare, so a stream restored mid-sequence continues
// bit-for-bit — in a fixed 17-byte little-endian layout. It never
// returns an error; the signature matches encoding.BinaryMarshaler.
func (s *Stream) MarshalBinary() ([]byte, error) {
	buf := make([]byte, MarshaledSize)
	s.AppendBinary(buf[:0])
	return buf, nil
}

// AppendBinary appends the MarshalBinary encoding to buf and returns
// the extended slice, allocating nothing when buf has capacity (the
// wire codec's per-message path).
func (s *Stream) AppendBinary(buf []byte) []byte {
	var b [MarshaledSize]byte
	putU64(b[0:8], s.state)
	putU64(b[8:16], math.Float64bits(s.spare))
	if s.hasSpare {
		b[16] = 1
	}
	return append(buf, b[:]...)
}

// UnmarshalBinary restores a stream encoded by MarshalBinary.
func (s *Stream) UnmarshalBinary(data []byte) error {
	if len(data) != MarshaledSize {
		return errBadStreamLen
	}
	if data[16] > 1 {
		return errBadStreamFlag
	}
	s.state = u64(data[0:8])
	s.spare = math.Float64frombits(u64(data[8:16]))
	s.hasSpare = data[16] == 1
	return nil
}

// streamError is a const-able error type for the two UnmarshalBinary
// failure modes (no fmt dependency, no allocation on the error path).
type streamError string

func (e streamError) Error() string { return string(e) }

const (
	errBadStreamLen  = streamError("rng: stream encoding must be exactly 17 bytes")
	errBadStreamFlag = streamError("rng: stream spare flag byte must be 0 or 1")
)

func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func u64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
