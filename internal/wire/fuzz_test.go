package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"testing"

	"repro/internal/quant"
	"repro/internal/rng"
)

// FuzzDecodeMessage feeds arbitrary bytes into the protocol-frame
// decoder. The invariants: never panic, never allocate vectors beyond
// the bytes actually present, release every allocated vector when the
// frame is rejected, and admit only canonical frames — an accepted body
// re-encodes to exactly its own bytes.
func FuzzDecodeMessage(f *testing.F) {
	// Seed with valid frames of each shape so the fuzzer starts from
	// deep coverage, plus degenerate inputs.
	pk := func(c quant.Config) *quant.Packed {
		p := quant.GetPacked()
		c.Pack(p, []float64{0.5, -1.25, 3, 0, 0.125, -2, 7, -0.5}, nil, rng.New(11))
		return p
	}
	seedMsgs := []Message{
		{From: NodeID{Kind: Cloud}, To: NodeID{Kind: Edge, Index: 1},
			Payload: &EdgeTrainReq{W: []float64{1, 2, 3}, C1: 0, C2: 2, Slot: 1, Stream: *rng.New(7)}},
		{From: NodeID{Kind: Edge, Index: 1}, To: NodeID{Kind: Cloud},
			Payload: &EdgeTrainReply{Slot: 1, WEdge: []float64{4, 5}, IterSum: []float64{6, 7}, IterCount: 2}},
		{From: NodeID{Kind: Client, Index: 1}, To: NodeID{Kind: Edge, Index: 0},
			Payload: &TrainReply{Client: 1, WFinalP: pk(quant.Config{Bits: 8}), WChkP: pk(quant.Config{Bits: 16}), IterSum: []float64{1, 2}}},
		{From: NodeID{Kind: Edge, Index: 0}, To: NodeID{Kind: Cloud},
			Payload: &EdgeTrainReply{Slot: 2, WEdgeP: pk(quant.Config{TopK: 3}), IterCount: 2}},
		{From: NodeID{Kind: Client, Index: 3}, To: NodeID{Kind: Edge, Index: 0},
			Payload: &TrainReply{Client: 3, WFinal: []float64{1}, WChk: []float64{2}}},
		{From: NodeID{Kind: Cloud}, To: NodeID{Kind: Client, Index: 0},
			Payload: &LossReq{W: []float64{0.5}, Batch: 4, Stream: *rng.New(3)}},
		{From: NodeID{Kind: Edge, Index: 2}, To: NodeID{Kind: Cloud}, Ctrl: true,
			Payload: &EdgeLossReply{Seq: 9, Failed: true}},
		{From: NodeID{Kind: Cloud}, To: NodeID{Kind: Edge, Index: 0}, Ctrl: true, Payload: Stop{}},
	}
	for _, m := range seedMsgs {
		frame, err := AppendMessage(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{frameTrainReq})
	f.Add([]byte{0xff, 0x01, 0x02})

	f.Fuzz(func(t *testing.T, body []byte) {
		var allocated, freed, allocBytes int
		alloc := func(d int) []float64 {
			allocated++
			allocBytes += d * 8
			return make([]float64, d)
		}
		free := func([]float64) { freed++ }
		m, err := DecodeMessage(body, alloc, free)
		if err != nil {
			if freed != allocated {
				t.Fatalf("rejected frame leaked vectors: allocated %d freed %d", allocated, freed)
			}
			return
		}
		// A decoded vector can never be larger than the input that
		// carried it: bounded allocation.
		if allocBytes > len(body) {
			t.Fatalf("allocated %d vector bytes from a %d-byte body", allocBytes, len(body))
		}
		// Accepted frames must re-encode to themselves: one byte
		// representation per message.
		again, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		if !bytes.Equal(again[4:], body) {
			t.Fatalf("accepted frame is not canonical: %x decoded, %x re-encoded", body, again[4:])
		}
	})
}

// FuzzFrameReader feeds arbitrary byte streams into the length-prefixed
// frame reader chained into the decoders: no panic, no unbounded
// allocation (the size cap rejects hostile length prefixes first).
func FuzzFrameReader(f *testing.F) {
	valid, _ := AppendMessage(nil, Message{From: NodeID{Kind: Cloud}, To: NodeID{Kind: Edge, Index: 1},
		Payload: &TrainReq{W: []float64{1}, Steps: 1, Batch: 1, Eta: 0.1, Stream: *rng.New(1)}})
	f.Add(valid)
	f.Add(append(AppendReady(nil, 2), valid...))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{4, 0, 0, 0, 1, 2})

	const maxFrame = 1 << 16
	f.Fuzz(func(t *testing.T, stream []byte) {
		fr := NewFrameReader(bytes.NewReader(stream), maxFrame)
		for {
			body, err := fr.Next()
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF &&
					err != ErrFrameTooLarge && err != errTruncated {
					t.Fatalf("unexpected frame reader error: %v", err)
				}
				return
			}
			if len(body) > maxFrame {
				t.Fatalf("frame reader returned %d bytes above the %d cap", len(body), maxFrame)
			}
			switch body[0] {
			case FrameHello:
				DecodeHello(body)
			case FrameReady:
				DecodeReady(body)
			case FrameStats:
				DecodeStats(body)
			default:
				DecodeMessage(body, func(d int) []float64 { return make([]float64, d) }, nil)
			}
		}
	})
}

// FuzzPackedVec feeds arbitrary bytes into the compressed-payload frame
// decoder. The invariants: never panic, validate every count against
// the bytes actually present before allocating, and admit only
// canonical frames — an accepted payload re-encodes to exactly the
// bytes consumed, expands without panicking, and prices at a positive
// wire size. A rejected frame retains nothing (the pooled Packed goes
// straight back).
func FuzzPackedVec(f *testing.F) {
	// Seed one valid frame per scheme and width, plus the absent marker
	// and shape-corrupt variants.
	vec := []float64{0.5, -1.25, 3, 0, 0.125, -2, 7, -0.5}
	for _, c := range []quant.Config{
		{Bits: 1}, {Bits: 4}, {Bits: 8}, {Bits: 16}, {Bits: 32},
		{TopK: 1}, {TopK: 3}, {TopK: 8},
	} {
		p := quant.GetPacked()
		c.Pack(p, vec, nil, rng.New(42))
		e := coder{}
		e.packed(&p)
		f.Add(e.b)
		quant.PutPacked(p)
	}
	f.Add([]byte{0})                               // absent marker
	f.Add([]byte{})                                // truncated before the scheme
	f.Add([]byte{3, 1, 0, 0, 0})                   // unknown scheme
	f.Add([]byte{1, 0, 0, 0, 0, 8})                // zero dimension
	f.Add([]byte{2, 2, 0, 0, 0, 9, 0, 0, 0})       // top-k count above dim
	f.Add([]byte{1, 255, 255, 255, 255, 32, 0, 0}) // hostile dim, short body

	f.Fuzz(func(t *testing.T, body []byte) {
		r := coder{mode: decode, b: body}
		var p *quant.Packed
		r.packed(&p)
		if r.err != nil {
			if p != nil {
				t.Fatal("failed decode still returned a payload")
			}
			return
		}
		if p == nil {
			return // absent marker
		}
		defer quant.PutPacked(p)
		// Canonical form: re-encoding reproduces exactly the consumed
		// prefix, so there is one byte representation per payload.
		e := coder{}
		if e.packed(&p); !bytes.Equal(e.b, body[:r.off]) {
			t.Fatalf("accepted frame is not canonical: %x consumed, %x re-encoded", body[:r.off], e.b)
		}
		// Every accepted payload must expand cleanly and carry a
		// positive wire price (the ledger counts it).
		if p.Dim <= 1<<16 {
			out := make([]float64, p.Dim)
			p.UnpackInto(out)
		}
		if p.WireBytes() <= 0 {
			t.Fatalf("accepted payload prices at %d bytes", p.WireBytes())
		}
	})
}

// captureConn is the write half of a connection that keeps what it is
// given. It is not a *net.TCPConn, so net.Buffers reaches it as one
// Write per segment, in order.
type captureConn struct {
	net.Conn
	got bytes.Buffer // read only while the sender is idle (after a Flush)
}

func (c *captureConn) Write(b []byte) (int, error) { return c.got.Write(b) }

func (c *captureConn) Close() error { return nil }

// patternVec reinterprets raw, repeated as often as needed, as n float64
// bit patterns.
func patternVec(raw []byte, n int) []float64 {
	v := make([]float64, n)
	var word [8]byte
	for i := range v {
		for j := range word {
			word[j] = raw[(i*8+j)%len(raw)]
		}
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
	}
	return v
}

// FuzzVecFastMatchesPortable holds the bulk byte move to the per-element
// loops that define the format, over arbitrary bit patterns (NaN
// payloads, signed zeros, denormals, infinities) and lengths on both
// sides of a word and of the benchmark's model size: the fast encode
// equals the portable encode byte for byte, the fast decode equals the
// portable decode bit for bit, and what the sender's gather write puts
// on a connection equals AppendMessage's frame for every payload type.
func FuzzVecFastMatchesPortable(f *testing.F) {
	bits := func(ws ...uint64) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	f.Add(bits(0x7ff8000000000001, 0x7ff0000000000001, 0xfff8dead0000beef)) // quiet and signalling NaNs with payloads
	f.Add(bits(0, 0x8000000000000000))                                      // signed zeros
	f.Add(bits(1, 0x800fffffffffffff, 0x0010000000000000))                  // denormals and the smallest normal
	f.Add(bits(0x7ff0000000000000, 0xfff0000000000000))                     // infinities
	f.Add([]byte{1, 2, 3})                                                  // a pattern that is not a whole word
	f.Add(bits(math.Float64bits(0.1), math.Float64bits(-1e300)))

	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		conn := &captureConn{}
		pool := NewConnPool(func() (net.Conn, error) { return conn, nil }, PoolConfig{})
		peer := NewPeer(pool, PeerConfig{})
		defer pool.Close()
		defer peer.Close()
		st := *rng.New(9)
		for _, n := range []int{1, 7, 8, 9, 7850} {
			v := patternVec(raw, n)
			fast, slow := appendVecData(nil, v), appendVecPortable(nil, v)
			if !bytes.Equal(fast, slow) {
				t.Fatalf("n=%d: fast encode differs from the portable encode", n)
			}
			a, b := make([]float64, n), make([]float64, n)
			readVecData(a, slow)
			readVecPortable(b, slow)
			for i := range v {
				if w := math.Float64bits(v[i]); math.Float64bits(a[i]) != w || math.Float64bits(b[i]) != w {
					t.Fatalf("n=%d: element %d decodes to %x (fast) / %x (portable), want %x",
						n, i, math.Float64bits(a[i]), math.Float64bits(b[i]), w)
				}
			}

			pk := quant.GetPacked()
			quant.Config{TopK: 1}.Pack(pk, sampleVec(n, 1), nil, rng.New(3))
			for _, p := range []any{
				&TrainReq{W: v, Steps: 2, Batch: 3, Eta: 0.5, Stream: st, Client: 1},
				&TrainReply{Client: 1, WFinal: v, WChk: v, IterSum: v},
				&TrainReply{Client: 1, WChkP: pk, IterSum: v},
				&LossReq{W: v, Batch: 4, Stream: st},
				&LossReply{Client: 1, Loss: v[0]},
				&EdgeTrainReq{W: v, C1: 1, C2: 2, Stream: st},
				&EdgeTrainReply{Slot: 1, WEdge: v, IterSum: v, IterCount: 2},
				&EdgeTrainReply{Slot: 1, WEdge: v, WChk: v, IterSum: v, WChkP: pk},
				&EdgeLossReq{W: v, Seq: 1, LossBatch: 2, Stream: st},
				&EdgeLossReply{Seq: 1, Loss: v[0]},
				Stop{},
			} {
				m := Message{From: NodeID{Kind: Edge, Index: 1}, To: NodeID{Kind: Cloud}, Round: n, Payload: p}
				want := mustFrame(t, m)
				conn.got.Reset() // the sender is idle: the last Flush returned
				peer.Send(m)
				peer.Flush()
				if !bytes.Equal(conn.got.Bytes(), want) {
					t.Fatalf("n=%d %T: gather-written frame differs from AppendMessage's", n, p)
				}
				got, err := DecodeMessage(want[4:], mkAlloc(), nil)
				if err != nil {
					t.Fatalf("n=%d %T: own frame does not decode: %v", n, p, err)
				}
				if again, err := AppendMessage(nil, got); err != nil || !bytes.Equal(again, want) {
					t.Fatalf("n=%d %T: decoded frame re-encodes differently (err %v)", n, p, err)
				}
			}
			quant.PutPacked(pk)
		}
	})
}
