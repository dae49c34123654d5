//go:build !amd64

package quant

import "repro/internal/rng"

// useLanes is always false off amd64: the scalar loops do all the work.
// It exists so the tests build on every architecture.
var useLanes = false

// Off amd64 the lane kernels handle no element; the scalar loops in
// compress.go run from element 0.

func boundsLanes([]float64) (lo, hi float64, n int) { return 0, 0, 0 }

func (uniformGrid) pack8Lanes([]byte, []float64, *rng.Stream) int { return 0 }

func (uniformGrid) unpack8Lanes([]float64, []byte) int { return 0 }
