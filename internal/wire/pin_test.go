package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/quant"
	"repro/internal/rng"
)

// pinVec builds the payload vector the frame pins were taken with,
// including awkward values: negative zero, a subnormal, and the
// float32 next-after-1.
func pinVec(n int, seed float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(float32(seed*float64(i+1) + 0.125))
	}
	v[0] = math.Copysign(0, -1)
	if n > 1 {
		v[1] = float64(math.Float32frombits(0x3F800001))
	}
	if n > 2 {
		v[2] = float64(math.Float32frombits(1))
	}
	return v
}

// pinnedFrames builds one frame of every kind the transport sends: each
// protocol payload (the two reply types dense, 8-bit uniform and top-k),
// Stop, and the hello, ready and stats control frames.
func pinnedFrames(t *testing.T) (names []string, frames [][]byte) {
	st := *rng.New(42).ChildN('p', 3)
	st.NormFloat64() // a spare deviate in the stream state
	pk := func(c quant.Config, seed float64) *quant.Packed {
		p := quant.GetPacked()
		c.Pack(p, pinVec(37, seed), nil, rng.New(5))
		return p
	}
	acct := SlotAcct{Blocks: 3, DownMsgs: 6, DownBytes: 600, UpMsgs: 5, UpBytes: 500, TimeoutBlocks: 1}
	payloads := []struct {
		name string
		p    any
	}{
		{"train-req", &TrainReq{W: pinVec(37, 1.5), Steps: 20, Batch: 8, ChkAt: 10, Block: 2, Eta: 0.05, Stream: st, Client: 2}},
		{"train-reply", &TrainReply{Client: 2, WFinal: pinVec(37, 2.5), WChk: pinVec(37, 3.5), IterSum: pinVec(37, 4.5)}},
		{"train-reply-q8", &TrainReply{Client: 1, WFinalP: pk(quant.Config{Bits: 8}, 2.5), WChkP: pk(quant.Config{Bits: 8}, 3.5), IterSum: pinVec(37, 4.5)}},
		{"train-reply-topk", &TrainReply{Client: 0, WFinalP: pk(quant.Config{TopK: 5}, 2.5), Failed: true}},
		{"loss-req", &LossReq{W: pinVec(37, 0.5), Batch: 16, Stream: st, Client: 1}},
		{"loss-reply", &LossReply{Client: 1, Loss: 0.75, Failed: true}},
		{"edge-train-req", &EdgeTrainReq{W: pinVec(37, 5.5), C1: 1, C2: 3, Slot: 2, Stream: st, Doomed: true}},
		{"edge-train-reply", &EdgeTrainReply{Slot: 2, WEdge: pinVec(37, 6.5), WChk: pinVec(37, 7.5), IterSum: pinVec(37, 8.5),
			IterCount: 12, Doomed: true, Acct: acct}},
		{"edge-train-reply-q8", &EdgeTrainReply{Slot: 1, WEdgeP: pk(quant.Config{Bits: 8}, 6.5), WChkP: pk(quant.Config{Bits: 8}, 7.5),
			IterSum: pinVec(37, 8.5), IterCount: 4, Acct: acct}},
		{"edge-train-reply-topk", &EdgeTrainReply{Slot: 0, WEdgeP: pk(quant.Config{TopK: 5}, 6.5), Failed: true, Acct: acct}},
		{"edge-loss-req", &EdgeLossReq{W: pinVec(37, 9.5), Seq: 4, LossBatch: 32, Stream: st, Doomed: true}},
		{"edge-loss-reply", &EdgeLossReply{Seq: 4, Loss: -0.25, Failed: true, Doomed: true, Acct: acct}},
		{"stop", Stop{}},
	}
	for i, p := range payloads {
		m := Message{From: NodeID{Kind: Edge, Index: 3}, To: NodeID{Kind: ReplyPort, Index: 1},
			Round: 17 + i, Bytes: 8888, Ctrl: i%2 == 1, Payload: p.p}
		names = append(names, p.name)
		frames = append(frames, mustFrame(t, m))
	}
	hello, err := AppendHello(nil, Hello{Role: RoleEdge, Edge: 2, Addr: "127.0.0.1:45678", Fingerprint: 0xDEADBEEFCAFE})
	if err != nil {
		t.Fatal(err)
	}
	stats := Stats{Sent: 100, Lost: 3, Ctrl: 12, Timeouts: 2, Retries: 1, Crashes: 1,
		PoolOutstanding: -2, PoolRecycled: 900, PoolAllocated: 40}
	names = append(names, "hello", "ready", "stats")
	frames = append(frames, hello, AppendReady(nil, 7), AppendStats(nil, 4, stats))
	return names, frames
}

// TestFrameBytesPinned pins the bytes of every frame kind, so a change to the codec that reorders, resizes or
// drops a field fails here even when it round-trips. Each entry is the
// first 8 bytes of the frame's SHA-256, length prefix included.
func TestFrameBytesPinned(t *testing.T) {
	want := map[string]string{
		"train-req":             "e4a0e471dc47b3d5",
		"train-reply":           "008d9f9623b2ddbb",
		"train-reply-q8":        "63c6c7f620fe5b60",
		"train-reply-topk":      "77f0647848c7da45",
		"loss-req":              "e97d412c8398c476",
		"loss-reply":            "62ed440639c6fe3f",
		"edge-train-req":        "46e08ac8c491410b",
		"edge-train-reply":      "4ee3ba60a0f2aeec",
		"edge-train-reply-q8":   "c484ebb203322375",
		"edge-train-reply-topk": "a9bdf8efb4492f2e",
		"edge-loss-req":         "90aa35d41f0040b1",
		"edge-loss-reply":       "24040ada4f0a5df1",
		"stop":                  "f425dc335fadd8df",
		"hello":                 "e67d900ce41fd8dd",
		"ready":                 "d512f1bf036f6e39",
		"stats":                 "4e3c84dd9e3139f4",
	}
	names, frames := pinnedFrames(t)
	for i, name := range names {
		sum := sha256.Sum256(frames[i])
		if got := hex.EncodeToString(sum[:8]); got != want[name] {
			t.Errorf("%s: frame hash %s, pinned %s", name, got, want[name])
		}
	}
}
