//go:build !amd64

package rng

// useLanes is always false off amd64: Float64s draws with the scalar
// loop. It exists so the tests build on every architecture.
var useLanes = false

// float64sLanes has no vector body off amd64: Float64s draws every
// value with Float64.
func float64sLanes([]float64, uint64) int { return 0 }
