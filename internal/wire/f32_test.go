package wire

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// sampleVec32 builds a float32-representable payload vector (the
// avx2f32 storage invariant all wire payloads satisfy in that regime),
// including awkward values: negative zero, a subnormal, an exact
// float32 next-after-1.
func sampleVec32(n int, seed float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(float32(seed*float64(i+1) + 0.125))
	}
	v[0] = math.Copysign(0, -1)
	if n > 1 {
		v[1] = float64(math.Float32frombits(0x3F800001)) // nextafter32(1, 2)
	}
	if n > 2 {
		v[2] = float64(math.Float32frombits(1)) // smallest subnormal
	}
	return v
}

// TestCodecF32RoundTrip pins the float32 wire regime: under the avx2f32
// class every payload vector travels as 4-byte elements, decodes
// bitwise identical (exact under the storage invariant), and the
// model-vector frames shrink to about half their float64 size.
func TestCodecF32RoundTrip(t *testing.T) {
	st := rng.New(42).ChildN('c', 7)
	env := Message{
		From:  NodeID{Kind: Edge, Index: 3},
		To:    NodeID{Kind: Cloud, Index: 0},
		Round: 17,
		Bytes: 8888,
	}
	const dim = 1000
	payloads := []any{
		&TrainReq{W: sampleVec32(dim, 1.5), Steps: 20, Batch: 8, ChkAt: 10, Eta: 0.05, Stream: *st, Client: 2},
		&TrainReply{Client: 2, WFinal: sampleVec32(dim, 2.5), WChk: sampleVec32(dim, 3.5), IterSum: nil, Failed: false},
		&LossReq{W: sampleVec32(dim, 0.5), Batch: 16, Stream: *st, Client: 1},
		&EdgeTrainReply{Slot: 2, WEdge: sampleVec32(dim, 5.5), WChk: nil, IterSum: sampleVec32(dim, 6.5),
			IterCount: 12},
	}
	for _, p := range payloads {
		m := env
		m.Payload = p

		restore := tensor.SetKernel(tensor.KernelAVX2F32)
		frame32, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("encode f32: %v", err)
		}
		got := roundTrip(t, m)
		tensor.SetKernel(tensor.KernelGeneric)
		frame64, err := AppendMessage(nil, m)
		restore()
		if err != nil {
			t.Fatalf("encode f64: %v", err)
		}

		if !reflect.DeepEqual(got.Payload, p) {
			t.Errorf("%T: f32 payload mismatch:\n got %+v\nwant %+v", p, got.Payload, p)
		}
		// Each model vector saves 4 bytes per element; with dim=1000
		// vectors dominating the frame, the ratio approaches 0.5.
		if ratio := float64(len(frame32)) / float64(len(frame64)); ratio > 0.6 {
			t.Errorf("%T: f32 frame is %d bytes vs %d (ratio %.2f), want ≈0.5",
				p, len(frame32), len(frame64), ratio)
		}
	}
}

// TestCodecF32RejectsTruncated mirrors the bounds-check contract in the
// 4-byte regime: a frame whose vector length exceeds the body errors
// out instead of panicking or over-allocating.
func TestCodecF32RejectsTruncated(t *testing.T) {
	restore := tensor.SetKernel(tensor.KernelAVX2F32)
	defer restore()
	m := Message{Payload: &LossReq{W: sampleVec32(64, 1.0), Batch: 4, Stream: *rng.New(1), Client: 0}}
	frame, err := AppendMessage(nil, m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	body := frame[4:] // strip length prefix
	for cut := 1; cut < 40; cut += 7 {
		if _, err := DecodeMessage(body[:len(body)-cut], mkAlloc(), nil); err == nil {
			t.Fatalf("truncated f32 frame (cut %d) decoded without error", cut)
		}
	}
}
