//go:build amd64

package rng

import "repro/internal/tensor/cpufeat"

// useLanes selects the AVX2 body of Float64s. It is chosen by CPU
// feature, not by kernel class: the lanes produce Float64's bits, so
// every class draws the same values. Tests switch it off to run the
// scalar loop on AVX2 machines.
var useLanes = cpufeat.X86.HasAVX2

// float64sAVX2 sets dst[i] = float64(mix(state + (i+1)·gamma) >> 11) / 2^53
// four lanes at a time; len(dst) is a multiple of 4.
//
//go:noescape
func float64sAVX2(dst []float64, state uint64)

// float64sLanes draws the first len(dst) &^ 3 values of Float64s from
// state and returns how many it drew: none without AVX2.
func float64sLanes(dst []float64, state uint64) int {
	if !useLanes {
		return 0
	}
	n := len(dst) &^ 3
	float64sAVX2(dst[:n], state)
	return n
}
