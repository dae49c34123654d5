package wire

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// A float64 payload vector's wire form is its elements' IEEE-754 bits,
// little-endian, back to back. On a little-endian host that is exactly
// the vector's backing memory, so encoding and decoding are one bulk
// byte move; the per-element loops below are the definition of the
// format, the path a big-endian host takes, and the oracle
// FuzzVecFastMatchesPortable holds the bulk move to. Which one runs is
// decided by the host, never by an option.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// vecBytes views a non-empty vector's backing memory as bytes. The view
// aliases v: it is valid exactly as long as v is.
func vecBytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

// appendVecPortable appends v's elements as little-endian IEEE bits, one
// element at a time.
func appendVecPortable(b []byte, v []float64) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// readVecPortable fills v from len(v)*8 little-endian bytes, one element
// at a time.
func readVecPortable(v []float64, src []byte) {
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
}

// appendVecData appends the wire form of a non-empty float64 vector.
func appendVecData(b []byte, v []float64) []byte {
	if hostLittleEndian {
		return append(b, vecBytes(v)...)
	}
	return appendVecPortable(b, v)
}

// readVecData fills a non-empty v from its wire form; src holds exactly
// len(v)*8 bytes.
func readVecData(v []float64, src []byte) {
	if hostLittleEndian {
		copy(vecBytes(v), src)
		return
	}
	readVecPortable(v, src)
}
