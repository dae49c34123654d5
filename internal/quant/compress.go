package quant

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/rng"
	"repro/internal/topology"
)

// Config selects the uplink-compression regime for an engine run. The
// zero value means exact (uncompressed) uplinks. Exactly one of Bits or
// TopK may be set:
//
//   - Bits in [1, 32]: unbiased stochastic uniform quantization onto a
//     2^Bits-level grid over the vector's [min, max] range — the same
//     grid, stochastic rounding and stream draws as the legacy Uniform
//     quantizer, so trajectories are bit-identical to it.
//   - TopK > 0: top-k magnitude sparsification; the k largest-|y|
//     coordinates travel as (index, value) pairs, the rest as zero.
//     With ErrorFeedback, the dropped mass accumulates in a per-client
//     residual that is added back before the next selection, so no
//     gradient signal is ever permanently discarded
//     (y = Q(y) + residual holds exactly every round).
//
// Like a kernel class, a compression setting is a rounding regime: the
// whole trajectory is bitwise-reproducible from the seed, identical
// across the core, simnet and wire engines, and refused by the wire
// fingerprint when peers disagree.
type Config struct {
	// Bits enables stochastic uniform quantization (levels = 2^Bits).
	Bits uint
	// TopK enables top-k sparsification (k coordinates kept per vector).
	TopK int
	// ErrorFeedback accumulates the sparsification error in a per-client
	// residual (top-k only; model uplinks only, not checkpoints).
	ErrorFeedback bool
}

// Enabled reports whether any compression is configured.
func (c Config) Enabled() bool { return c.Bits > 0 || c.TopK > 0 }

// Validate rejects inconsistent settings.
func (c Config) Validate() error {
	if c.Bits > 0 && c.TopK > 0 {
		return fmt.Errorf("quant: Bits and TopK are mutually exclusive")
	}
	if c.Bits > 32 {
		return fmt.Errorf("quant: Bits = %d outside [1,32]", c.Bits)
	}
	if c.TopK < 0 {
		return fmt.Errorf("quant: TopK = %d negative", c.TopK)
	}
	if c.ErrorFeedback && c.TopK == 0 {
		return fmt.Errorf("quant: ErrorFeedback requires TopK")
	}
	return nil
}

// Name identifies the regime for manifests and artifact rows.
func (c Config) Name() string {
	switch {
	case c.Bits > 0:
		return "uniform-" + itoa(int(c.Bits)) + "bit"
	case c.TopK > 0:
		if c.ErrorFeedback {
			return "topk-" + itoa(c.TopK) + "+ef"
		}
		return "topk-" + itoa(c.TopK)
	}
	return "none"
}

// VecWireBytes is the exact priced wire size of one compressed
// d-dimensional vector: Bits per element rounded up to whole bytes plus
// the two float64 range scalars (uniform), or 4-byte index + 8-byte
// value per kept coordinate (top-k). Sizes depend only on the config
// and the dimension, never on the data, so ledger pricing stays
// constant per regime. Disabled configs price the dense payload.
func (c Config) VecWireBytes(d int) int64 {
	switch {
	case c.Bits > 0:
		return int64((d*int(c.Bits)+7)/8) + 16
	case c.TopK > 0:
		k := c.TopK
		if k > d {
			k = d
		}
		return int64(k) * 12
	}
	return topology.ModelBytes(d)
}

// Scheme discriminates Packed payload kinds on the wire.
type Scheme uint8

// Packed payload schemes (0 is reserved for "absent" on the wire).
const (
	SchemeUniform Scheme = 1
	SchemeTopK    Scheme = 2
)

// Packed is the compressed form of one model vector — what actually
// crosses a link under a Compression regime. Uniform packs one Bits-wide
// code per element into an LSB-first bitstream; top-k carries ascending
// indices and their exact values. Instances are pooled (GetPacked /
// PutPacked) and their slices grow in place, so the steady-state hot
// path allocates nothing.
type Packed struct {
	Scheme Scheme
	Dim    int
	// Uniform fields: the grid range and the code bitstream
	// (ceil(Dim*Bits/8) bytes, LSB-first; trailing bits zero).
	Bits   uint8
	Lo, Hi float64
	Code   []byte
	// Top-k fields: strictly increasing indices < Dim and their values.
	Idx  []uint32
	Vals []float64

	// Selection scratch (never serialized).
	heapAbs []float64
	heapIdx []uint32
}

var packedPool = sync.Pool{New: func() any { return new(Packed) }}

// GetPacked returns a pooled Packed ready to be filled by Pack or a
// codec decode.
func GetPacked() *Packed { return packedPool.Get().(*Packed) }

// PutPacked resets p and returns it to the pool. nil is a no-op.
func PutPacked(p *Packed) {
	if p == nil {
		return
	}
	p.Scheme, p.Dim, p.Bits, p.Lo, p.Hi = 0, 0, 0, 0, 0
	p.Code = p.Code[:0]
	p.Idx = p.Idx[:0]
	p.Vals = p.Vals[:0]
	packedPool.Put(p)
}

// Pack compresses x into p under the config and returns the priced wire
// size (always VecWireBytes(len(x))). x is not modified. resid is the
// caller's error-feedback residual: when non-nil (top-k only) the
// selection runs on y = x + resid and resid is updated in place to the
// unselected mass, so y = Q(y) + resid exactly. The stream is consumed
// only by uniform quantization (one draw per element, identical to the
// legacy Uniform quantizer; none when the vector is constant).
func (c Config) Pack(p *Packed, x, resid []float64, r *rng.Stream) int64 {
	switch {
	case c.Bits > 0:
		c.packUniform(p, x, r)
	case c.TopK > 0:
		c.packTopK(p, x, resid)
	default:
		panic("quant: Pack on a disabled Config")
	}
	return c.VecWireBytes(len(x))
}

// Apply is the in-place form used by the single-process core engine:
// it replaces x with its dequantized compression (exactly what a
// receiver reconstructs from the Packed wire form — the two paths are
// one code path) and returns the priced wire size. resid follows the
// Pack contract.
func (c Config) Apply(x, resid []float64, r *rng.Stream) int64 {
	p := GetPacked()
	n := c.Pack(p, x, resid, r)
	p.UnpackInto(x)
	PutPacked(p)
	return n
}

// WireBytes is the priced wire size of the packed vector — identical to
// Config.VecWireBytes of the config that produced it. 0 for an empty
// Packed.
func (p *Packed) WireBytes() int64 {
	switch p.Scheme {
	case SchemeUniform:
		return int64((p.Dim*int(p.Bits)+7)/8) + 16
	case SchemeTopK:
		return int64(len(p.Idx)) * 12
	}
	return 0
}

// UnpackInto reconstructs the dequantized vector into x
// (len(x) == p.Dim).
func (p *Packed) UnpackInto(x []float64) {
	if len(x) != p.Dim {
		panic("quant: UnpackInto dimension mismatch")
	}
	switch p.Scheme {
	case SchemeUniform:
		p.unpackUniform(x)
	case SchemeTopK:
		for i := range x {
			x[i] = 0
		}
		for j, idx := range p.Idx {
			x[idx] = p.Vals[j]
		}
	default:
		panic("quant: UnpackInto on an empty Packed")
	}
}

// uniformGrid is the 2^width-level grid over [lo, hi] that one vector
// is quantized onto; mask = 2^width - 1 is the top code and levels the
// same number as a float64.
type uniformGrid struct {
	lo, scale, levels float64
	mask              uint64
}

// expMask is the bit pattern of +Inf: as unsigned integers every finite
// non-negative float64 is below it, every NaN and every negative is not.
const expMask = 0x7FF0000000000000

// code is v's grid index under unbiased stochastic rounding with the
// stream draw u in [0, 1): floor((v-lo)/scale), plus one when u < frac,
// clamped to the top code — the scalar reference's value for every
// input (Uniform.Quantize; a NaN position codes as 0).
//
// u < frac is decided without a branch. frac = t - floor(t) is +0, a
// positive value below 1, or NaN (t infinite or NaN), and for
// non-negative floats IEEE order is the unsigned order of the bit
// patterns, so the borrow of bits(u) - bits(frac) is exactly u < frac;
// the second borrow is 0 for a NaN of either sign, for which the
// comparison is false. The increment is then added to the integer, not
// to the float: base + 1 written back into the register math.Floor
// (ROUNDSD, which merges into its destination) fills next would chain
// every element behind the previous element's whole rounding decision
// — measured 9.7 against 5.0 ns/element. Clamping base first and the
// sum again gives min(base + inc, levels) in either order.
func (g uniformGrid) code(v, u float64) uint64 {
	t := (v - g.lo) / g.scale
	base := math.Floor(t)
	fb := math.Float64bits(t - base)
	_, below := bits.Sub64(math.Float64bits(u), fb, 0)
	_, number := bits.Sub64(fb, expMask, 0)
	if base > g.levels {
		base = g.levels
	}
	return min(uint64(int64(base))&g.mask+(below&number), g.mask)
}

// value is the grid point of code q, lo + q*scale in float64.
func (g uniformGrid) value(q uint64) float64 {
	return g.lo + float64(int64(q))*g.scale
}

// packUniform quantizes x onto the 2^Bits grid over [min, max] with
// unbiased stochastic rounding: one stream draw per element in element
// order, none for a constant vector. Codes, range, stream state and
// the values UnpackInto reconstructs are bit-identical to the scalar
// reference (Uniform.Quantize, and reference_test.go for the
// bitstream). Codes form an LSB-first bitstream (DESIGN.md §13): 8- and
// 16-bit codes are stored directly, other widths are shifted into a
// 64-bit accumulator that is stored as a whole little-endian word each
// time it fills, so no byte is written twice and nothing is pre-zeroed.
// On AVX2 machines the range scan and the 8-bit codes of the full quads
// run in four lanes (lanes_amd64.go) with the same results.
func (c Config) packUniform(p *Packed, x []float64, r *rng.Stream) {
	width := c.Bits
	if width < 1 || width > 32 {
		panic("quant: Bits outside [1,32]")
	}
	d := len(x)
	p.Scheme, p.Dim, p.Bits = SchemeUniform, d, uint8(width)
	p.Code = growBytes(p.Code, (d*int(width)+7)/8)
	code := p.Code
	if d == 0 {
		p.Lo, p.Hi = 0, 0
		return
	}
	// One pass with the comparisons of tensor.Min and tensor.Max: a NaN
	// never replaces a bound and a leading NaN is never replaced. The
	// lanes scan the full quads when they can decide the bounds.
	lo, hi, n := boundsLanes(x)
	if n == 0 {
		lo, hi, n = x[0], x[0], 1
	}
	for _, v := range x[n:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	p.Lo, p.Hi = lo, hi
	if hi == lo {
		// Constant vector: all-zero codes, no stream draws.
		clear(code)
		return
	}
	mask := uint64(1)<<width - 1
	g := uniformGrid{lo: lo, scale: (hi - lo) / float64(mask), levels: float64(mask), mask: mask}
	s := *r // the stream lives in a local for the loop and is written back once
	switch width {
	case 8:
		for i := g.pack8Lanes(code, x, &s); i < len(x); i++ {
			code[i] = byte(g.code(x[i], s.Float64()))
		}
	case 16:
		for i, v := range x {
			binary.LittleEndian.PutUint16(code[2*i:], uint16(g.code(v, s.Float64())))
		}
	default:
		var acc uint64
		var fill uint
		o := 0
		for _, v := range x {
			q := g.code(v, s.Float64())
			acc |= q << fill
			fill += width
			if fill >= 64 {
				binary.LittleEndian.PutUint64(code[o:], acc)
				o += 8
				fill -= 64
				acc = q >> (width - fill) // the bits of q past the word
			}
		}
		for ; o < len(code); o++ {
			code[o] = byte(acc)
			acc >>= 8
		}
	}
	*r = s
}

// unpackUniform dequantizes the code stream: x[i] = Lo + code_i*scale
// with the float64 operations of the scalar reference. 8- and 16-bit
// codes are read directly; any other code is cut out of one unaligned
// little-endian word load at its first byte (bit offset at most 7, so
// at most 39 bits of the word are needed). On AVX2 machines the full
// quads of 8-bit codes are dequantized in four lanes.
func (p *Packed) unpackUniform(x []float64) {
	if p.Hi == p.Lo {
		// Constant vector: exact at any width.
		for i := range x {
			x[i] = p.Lo
		}
		return
	}
	width := int(p.Bits)
	mask := uint64(1)<<uint(width) - 1
	g := uniformGrid{lo: p.Lo, scale: (p.Hi - p.Lo) / float64(mask), mask: mask}
	code := p.Code
	switch width {
	case 8:
		code = code[:len(x)]
		for i := g.unpack8Lanes(x, code); i < len(x); i++ {
			x[i] = g.value(uint64(code[i]))
		}
	case 16:
		for i := range x {
			x[i] = g.value(uint64(binary.LittleEndian.Uint16(code[2*i:])))
		}
	default:
		// Codes whose 8-byte window lies inside Code load from it; the
		// last few load from a zero-padded copy of the tail.
		whole := 0
		if len(code) >= 8 {
			whole = min(len(x), ((len(code)-7)*8-1)/width+1)
		}
		g.unpackWords(x[:whole], code, 0, width)
		var tail [16]byte
		start := whole * width >> 3
		copy(tail[:], code[start:])
		g.unpackWords(x[whole:], tail[:], whole*width-start*8, width)
	}
}

// unpackWords dequantizes len(x) codes of the given width from bit pos
// of code on; 8 bytes must be readable at every code's first byte.
func (g uniformGrid) unpackWords(x []float64, code []byte, pos, width int) {
	for i := range x {
		w := binary.LittleEndian.Uint64(code[pos>>3:])
		x[i] = g.value(w >> (uint(pos) & 7) & g.mask)
		pos += width
	}
}

// packTopK selects the k largest-|y| coordinates of y = x (+ resid),
// deterministically: ties break toward the lower index. Indices are
// emitted in ascending order and values are the exact y values. When
// resid is non-nil it is updated in place to the unselected mass.
func (c Config) packTopK(p *Packed, x, resid []float64) {
	d := len(x)
	k := c.TopK
	if k > d {
		k = d
	}
	p.Scheme, p.Dim = SchemeTopK, d
	p.Idx = growU32(p.Idx, k)
	p.Vals = growF64(p.Vals, k)
	y := x
	if resid != nil {
		// Fold x into the residual so resid holds y; the selected
		// entries are zeroed below, leaving exactly the dropped mass.
		for i := range resid {
			resid[i] += x[i]
		}
		y = resid
	}
	// Min-heap of the k kept coordinates keyed (|y| asc, index desc):
	// the root is the weakest keeper — smallest magnitude, and among
	// equals the highest index, so lower indices win ties.
	habs := growF64(p.heapAbs, k)
	hidx := growU32(p.heapIdx, k)
	size := 0
	weaker := func(aAbs float64, aIdx uint32, bAbs float64, bIdx uint32) bool {
		return aAbs < bAbs || (aAbs == bAbs && aIdx > bIdx)
	}
	siftDown := func(i int) {
		for {
			l, rr := 2*i+1, 2*i+2
			m := i
			if l < size && weaker(habs[l], hidx[l], habs[m], hidx[m]) {
				m = l
			}
			if rr < size && weaker(habs[rr], hidx[rr], habs[m], hidx[m]) {
				m = rr
			}
			if m == i {
				return
			}
			habs[i], habs[m] = habs[m], habs[i]
			hidx[i], hidx[m] = hidx[m], hidx[i]
			i = m
		}
	}
	for i := 0; i < d; i++ {
		a := math.Abs(y[i])
		if size < k {
			// Sift up.
			j := size
			habs[j], hidx[j] = a, uint32(i)
			size++
			for j > 0 {
				parent := (j - 1) / 2
				if !weaker(habs[j], hidx[j], habs[parent], hidx[parent]) {
					break
				}
				habs[j], habs[parent] = habs[parent], habs[j]
				hidx[j], hidx[parent] = hidx[parent], hidx[j]
				j = parent
			}
			continue
		}
		if k > 0 && weaker(habs[0], hidx[0], a, uint32(i)) {
			habs[0], hidx[0] = a, uint32(i)
			siftDown(0)
		}
	}
	copy(p.Idx, hidx[:size])
	slices.Sort(p.Idx)
	for j, idx := range p.Idx {
		p.Vals[j] = y[idx]
		if resid != nil {
			resid[idx] = 0
		}
	}
	p.heapAbs, p.heapIdx = habs, hidx
}

func growBytes(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

func growU32(b []uint32, n int) []uint32 {
	if cap(b) < n {
		return make([]uint32, n)
	}
	return b[:n]
}

func growF64(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}
