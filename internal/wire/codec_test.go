package wire

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/iotest"

	"repro/internal/fl/fltest"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func mkAlloc() AllocFunc { return func(d int) []float64 { return make([]float64, d) } }

// roundTrip encodes m, runs the frame reader over the bytes and decodes
// the body back into a Message.
func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	frame, err := AppendMessage(nil, m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	fr := NewFrameReader(bytes.NewReader(frame), 0)
	body, err := fr.Next()
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	got, err := DecodeMessage(body, mkAlloc(), nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("trailing data after frame: err=%v", err)
	}
	return got
}

func sampleVec(n int, seed float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = seed*float64(i+1) + 0.125
	}
	// Exercise bit-exactness on awkward values.
	v[0] = math.Copysign(0, -1)
	if n > 1 {
		v[1] = math.Nextafter(1, 2)
	}
	return v
}

func TestCodecRoundTripAllTypes(t *testing.T) {
	// sampleVec's values are not float32-representable: pin the float64
	// width the assertions below hold for.
	defer tensor.SetKernel(tensor.KernelGeneric)()
	st := rng.New(42).ChildN('c', 7)
	st.NormFloat64() // leave a spare deviate in the stream state
	env := Message{
		From:  NodeID{Kind: Edge, Index: 3},
		To:    NodeID{Kind: Cloud, Index: 0},
		Round: 17,
		Bytes: 8888,
	}
	payloads := []any{
		&TrainReq{W: sampleVec(5, 1.5), Steps: 20, Batch: 8, ChkAt: 10, Eta: 0.05, Stream: *st, Client: 2},
		&TrainReply{Client: 2, WFinal: sampleVec(5, 2.5), WChk: sampleVec(5, 3.5), IterSum: nil, Failed: false},
		&LossReq{W: sampleVec(4, 0.5), Batch: 16, Stream: *st, Client: 1},
		&LossReply{Client: 1, Loss: math.Nextafter(0.7, 1), Failed: false},
		&EdgeTrainReq{W: sampleVec(6, 4.5), C1: 1, C2: 3, Slot: 2, Stream: *st, Doomed: true},
		&EdgeTrainReply{Slot: 2, WEdge: sampleVec(6, 5.5), WChk: nil, IterSum: sampleVec(6, 6.5),
			IterCount: 12, Failed: false, Doomed: false,
			Acct: SlotAcct{Blocks: 3, DownMsgs: 6, DownBytes: 600, UpMsgs: 5, UpBytes: 500, TimeoutBlocks: 1}},
		&EdgeLossReq{W: sampleVec(3, 7.5), Seq: 4, LossBatch: 32, Stream: *st, Doomed: false},
		&EdgeLossReply{Seq: 4, Loss: -0.25, Failed: true, Doomed: true,
			Acct: SlotAcct{Blocks: 1, DownMsgs: 2, DownBytes: 128, UpMsgs: 1, UpBytes: 64}},
		Stop{},
	}
	for _, p := range payloads {
		m := env
		m.Payload = p
		if _, isStop := p.(Stop); isStop {
			m.Ctrl = true
		}
		got := roundTrip(t, m)
		if got.From != m.From || got.To != m.To || got.Round != m.Round ||
			got.Bytes != m.Bytes || got.Ctrl != m.Ctrl {
			t.Errorf("%T: envelope mismatch: got %+v want %+v", p, got, m)
		}
		if !reflect.DeepEqual(got.Payload, p) {
			t.Errorf("%T: payload mismatch:\n got %+v\nwant %+v", p, got.Payload, p)
		}
		if got.Kind == "" || got.Kind == "unknown" {
			t.Errorf("%T: no kind string (got %q)", p, got.Kind)
		}
	}
}

func TestCodecKindStrings(t *testing.T) {
	// Nacks are the same frame types with the ctrl flag set; the decoded
	// Kind must reflect that, matching the in-process fabric's names.
	m := Message{From: NodeID{Kind: Edge, Index: 1}, To: NodeID{Kind: Cloud}, Ctrl: true,
		Payload: &EdgeTrainReply{Slot: 0, Failed: true}}
	if got := roundTrip(t, m); got.Kind != "edge-train-nack" {
		t.Fatalf("ctrl edge train reply decoded as %q, want edge-train-nack", got.Kind)
	}
	m.Ctrl = false
	if got := roundTrip(t, m); got.Kind != "edge-train-reply" {
		t.Fatalf("edge train reply decoded as %q", got.Kind)
	}
}

func TestCodecStreamBitExact(t *testing.T) {
	// The decoded stream must continue the exact deviate sequence the
	// encoded one would have produced — the heart of cross-transport
	// determinism.
	src := rng.New(99).Child('x')
	src.NormFloat64()
	m := Message{From: NodeID{Kind: Cloud}, To: NodeID{Kind: Client, Index: 5},
		Payload: &TrainReq{W: sampleVec(2, 1), Steps: 1, Batch: 1, Eta: 0.1, Stream: *src}}
	got := roundTrip(t, m)
	dec := got.Payload.(*TrainReq).Stream
	want, have := *src, dec
	for i := 0; i < 100; i++ {
		if w, h := want.NormFloat64(), have.NormFloat64(); w != h {
			t.Fatalf("deviate %d diverges: %v vs %v", i, w, h)
		}
	}
}

func TestCodecRejectsMalformed(t *testing.T) {
	frame, err := AppendMessage(nil, Message{
		From: NodeID{Kind: Cloud}, To: NodeID{Kind: Edge, Index: 1},
		Payload: &EdgeTrainReq{W: sampleVec(4, 1), Stream: *rng.New(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	body := frame[4:]
	if _, err := DecodeMessage(body[:len(body)-1], mkAlloc(), nil); err == nil {
		t.Error("truncated body: want error")
	}
	if _, err := DecodeMessage(append(append([]byte{}, body...), 0), mkAlloc(), nil); err == nil {
		t.Error("trailing byte: want error")
	}
	corrupt := append([]byte{}, body...)
	corrupt[0] = 0x7f
	if _, err := DecodeMessage(corrupt, mkAlloc(), nil); err == nil {
		t.Error("unknown frame type: want error")
	}
	// Vector length pointing past the body must fail before allocating.
	huge := append([]byte{}, body...)
	// envelope is 1(type)+5+5+4+8+1 = 24 bytes; next is the vec presence
	// byte then the u32 length.
	huge[25], huge[26], huge[27], huge[28] = 0xff, 0xff, 0xff, 0x7f
	allocs := 0
	bigAlloc := func(d int) []float64 { allocs++; return make([]float64, d) }
	if _, err := DecodeMessage(huge, bigAlloc, nil); err == nil {
		t.Error("oversized vector length: want error")
	}
	if allocs != 0 {
		t.Errorf("oversized vector length allocated %d vectors", allocs)
	}
}

// TestCodecRefusesEmptyVector pins the encode/decode symmetry for the
// degenerate vector: the decoder rejects "present, length 0", so the
// encoder must refuse a non-nil empty vector in every vector field
// rather than emit a frame its peer drops, while nil still round-trips
// as nil — on both storage widths.
func TestCodecRefusesEmptyVector(t *testing.T) {
	empty := []float64{}
	one := []float64{1}
	st := *rng.New(1)
	refused := []any{
		&TrainReq{W: empty, Stream: st},
		&TrainReply{WFinal: empty},
		&TrainReply{WFinal: one, WChk: empty},
		&TrainReply{WFinal: one, IterSum: empty},
		&LossReq{W: empty, Stream: st},
		&EdgeTrainReq{W: empty, Stream: st},
		&EdgeTrainReply{WEdge: empty},
		&EdgeTrainReply{WEdge: one, WChk: empty},
		&EdgeTrainReply{WEdge: one, IterSum: empty},
		&EdgeLossReq{W: empty, Stream: st},
	}
	for _, class := range []tensor.KernelClass{tensor.KernelGeneric, tensor.KernelAVX2F32} {
		restore := tensor.SetKernel(class)
		for _, p := range refused {
			if frame, err := AppendMessage(nil, Message{Payload: p}); err == nil || frame != nil {
				t.Errorf("%v %T %+v: empty non-nil vector encoded (%d bytes, err %v)", class, p, p, len(frame), err)
			}
		}
		// nil stays nil.
		for _, p := range []any{&TrainReply{Client: 1}, &EdgeTrainReply{Slot: 1}} {
			if got := roundTrip(t, Message{Payload: p}); !reflect.DeepEqual(got.Payload, p) {
				t.Errorf("%v %T: nil vectors round-tripped to %+v", class, p, got.Payload)
			}
		}
		// The frame the encoder refuses to build is one the decoder
		// rejects: a one-element vector rewritten as "present, length 0".
		frame, err := AppendMessage(nil, Message{Payload: &LossReq{W: one, Stream: st}})
		if err != nil {
			t.Fatal(err)
		}
		body := frame[4:]
		// type + envelope = 24 bytes, presence byte, u32 length, elements.
		zero := append(append([]byte{}, body[:25]...), 0, 0, 0, 0)
		zero = append(zero, body[29+tensor.ElemBytes():]...)
		allocs := 0
		if _, err := DecodeMessage(zero, func(d int) []float64 { allocs++; return make([]float64, d) }, nil); err == nil || allocs != 0 {
			t.Errorf("%v: zero-length present vector decoded (err %v, %d allocations)", class, err, allocs)
		}
		restore()
	}
}

func TestCodecErrorReleasesVectors(t *testing.T) {
	// A frame that fails after some vectors decoded must hand them to
	// the free callback — otherwise the receiving arena leaks.
	frame, err := AppendMessage(nil, Message{
		From: NodeID{Kind: Edge, Index: 1}, To: NodeID{Kind: Cloud},
		Payload: &EdgeTrainReply{Slot: 1, WEdge: sampleVec(3, 1), WChk: sampleVec(3, 2),
			IterSum: sampleVec(3, 3), IterCount: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	body := frame[4:]
	var got, freed int
	alloc := func(d int) []float64 { got++; return make([]float64, d) }
	free := func([]float64) { freed++ }
	if _, err := DecodeMessage(body[:len(body)-1], alloc, free); err == nil {
		t.Fatal("truncated body: want error")
	}
	if got == 0 || freed != got {
		t.Fatalf("allocated %d vectors, freed %d; want all freed", got, freed)
	}
}

func TestHelloReadyStatsRoundTrip(t *testing.T) {
	h := Hello{Role: RoleEdge, Edge: 2, Addr: "127.0.0.1:45678", Fingerprint: 0xDEADBEEFCAFE}
	frame, err := AppendHello(nil, h)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHello(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("hello round trip: got %+v want %+v", got, h)
	}
	if _, err := DecodeHello(frame[4 : len(frame)-1]); err == nil {
		t.Error("truncated hello: want error")
	}

	rf := AppendReady(nil, 7)
	if edge, err := DecodeReady(rf[4:]); err != nil || edge != 7 {
		t.Fatalf("ready round trip: edge=%d err=%v", edge, err)
	}

	s := Stats{Sent: 100, Lost: 3, Ctrl: 12, Timeouts: 2, Retries: 1, Crashes: 1,
		PoolOutstanding: 0, PoolRecycled: 900, PoolAllocated: 40}
	sf := AppendStats(nil, 4, s)
	edge, gotS, err := DecodeStats(sf[4:])
	if err != nil || edge != 4 || gotS != s {
		t.Fatalf("stats round trip: edge=%d stats=%+v err=%v", edge, gotS, err)
	}
	var sum Stats
	sum.Add(s)
	sum.Add(s)
	if sum.Sent != 200 || sum.PoolAllocated != 80 {
		t.Fatalf("stats add: %+v", sum)
	}
}

// streamReaders are the ways a byte stream can reach the frame reader:
// everything at once, a byte at a time, in halves, and with the final
// error arriving together with the last bytes.
var streamReaders = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"bytes", func(r io.Reader) io.Reader { return r }},
	{"onebyte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"dataerr", iotest.DataErrReader},
}

func mustFrame(t testing.TB, m Message) []byte {
	t.Helper()
	frame, err := AppendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// denseFrame is an edge train reply carrying three d-sized vectors — the
// largest protocol frame.
func denseFrame(t testing.TB, d, round int) []byte {
	return mustFrame(t, Message{From: NodeID{Kind: Edge, Index: 1}, To: NodeID{Kind: Cloud}, Round: round,
		Payload: &EdgeTrainReply{Slot: 1, WEdge: sampleVec(d, 1), WChk: sampleVec(d, 2), IterSum: sampleVec(d, 3)}})
}

func TestFrameReaderLimits(t *testing.T) {
	// Oversized length prefix fails without allocating the body.
	frame := []byte{0xff, 0xff, 0xff, 0xff, 0x00}
	fr := NewFrameReader(bytes.NewReader(frame), 1<<20)
	if _, err := fr.Next(); err != ErrFrameTooLarge {
		t.Fatalf("oversized frame: got %v want ErrFrameTooLarge", err)
	}
	if len(fr.buf) != frameBufSize {
		t.Fatalf("oversized frame grew the buffer to %d bytes", len(fr.buf))
	}
	// Zero-length frame is invalid (no type byte).
	fr = NewFrameReader(bytes.NewReader([]byte{0, 0, 0, 0}), 0)
	if _, err := fr.Next(); err == nil {
		t.Fatal("zero-length frame: want error")
	}
	// A frame of exactly max bytes passes; one more does not.
	ready := AppendReady(nil, 1)
	if _, err := NewFrameReader(bytes.NewReader(ready), len(ready)-4).Next(); err != nil {
		t.Fatalf("frame at the limit: %v", err)
	}
	if _, err := NewFrameReader(bytes.NewReader(ready), len(ready)-5).Next(); err != ErrFrameTooLarge {
		t.Fatalf("frame one past the limit: got %v want ErrFrameTooLarge", err)
	}
}

// TestFrameReaderSequential drives the in-place buffer through every
// position a frame can take in it — many frames per read, one straddling
// the buffer's end, one larger than the buffer, then small again — and
// through every way a stream can end, under every reader. Each body must
// equal the frame that was written, still so after it was decoded (it is
// only the next Next that may reuse its bytes), and the stream's end
// must classify as io.EOF between frames and io.ErrUnexpectedEOF inside
// one (the injected-reset path: partial frames are discarded).
func TestFrameReaderSequential(t *testing.T) {
	small := [][]byte{
		AppendReady(nil, 1),
		AppendStats(nil, 2, Stats{Sent: 5}),
		mustFrame(t, Message{From: NodeID{Kind: Cloud}, To: NodeID{Kind: Edge, Index: 1}, Ctrl: true, Payload: Stop{}}),
	}
	var many [][]byte
	for i := 0; i < 400; i++ {
		many = append(many, small[i%len(small)])
	}
	// 24 KB frames: the third one crosses the 64 KiB buffer's end.
	var straddle [][]byte
	for i := 0; i < 7; i++ {
		straddle = append(straddle, denseFrame(t, 1000, i))
	}
	// Three d = 266 610 vectors (the core-mlp shape, 6.4 MB) force the
	// buffer to grow; the small frames after it must still come through.
	grow := [][]byte{small[0], denseFrame(t, 266610, 7), small[1], denseFrame(t, 1000, 8), small[2]}

	cases := []struct {
		name   string
		frames [][]byte
		tail   []byte // a partial frame after the whole ones
		end    error
	}{
		{"empty stream", nil, nil, io.EOF},
		{"many small frames", many, nil, io.EOF},
		{"straddling frames", straddle, nil, io.EOF},
		{"frame above the buffer", grow, nil, io.EOF},
		{"cut in the first prefix", nil, small[0][:2], io.ErrUnexpectedEOF},
		{"cut mid-head", many, small[1][:3], io.ErrUnexpectedEOF},
		{"cut mid-body", straddle, straddle[0][:len(straddle[0])-2], io.ErrUnexpectedEOF},
		{"cut after the prefix", small, small[1][:4], io.ErrUnexpectedEOF},
	}
	for _, c := range cases {
		var stream []byte
		for _, f := range c.frames {
			stream = append(stream, f...)
		}
		stream = append(stream, c.tail...)
		for _, rd := range streamReaders {
			fr := NewFrameReader(rd.wrap(bytes.NewReader(stream)), 0)
			for i, want := range c.frames {
				body, err := fr.Next()
				if err != nil {
					t.Fatalf("%s/%s: frame %d: %v", c.name, rd.name, i, err)
				}
				if body[0] >= frameTrainReq {
					if _, err := DecodeMessage(body, mkAlloc(), nil); err != nil {
						t.Fatalf("%s/%s: frame %d: %v", c.name, rd.name, i, err)
					}
				}
				if !bytes.Equal(body, want[4:]) {
					t.Fatalf("%s/%s: frame %d body differs from what was written", c.name, rd.name, i)
				}
			}
			for i := 0; i < 2; i++ { // the end is sticky
				if body, err := fr.Next(); err != c.end || body != nil {
					t.Fatalf("%s/%s: end of stream: got %d bytes, %v; want %v", c.name, rd.name, len(body), err, c.end)
				}
			}
		}
	}
}

// cycleReader replays b forever, handing out at most chunk bytes a read.
type cycleReader struct {
	b     []byte
	off   int
	chunk int
}

func (c *cycleReader) Read(p []byte) (int, error) {
	if len(p) > c.chunk {
		p = p[:c.chunk]
	}
	n := copy(p, c.b[c.off:])
	c.off = (c.off + n) % len(c.b)
	return n, nil
}

// TestFrameReaderSteadyStateAllocs: once the buffer has grown to the
// largest frame, Next allocates nothing — slides and resets included.
func TestFrameReaderSteadyStateAllocs(t *testing.T) {
	frames := [][]byte{AppendReady(nil, 1), denseFrame(t, 1000, 0), denseFrame(t, 7850, 1), AppendStats(nil, 2, Stats{})}
	var stream []byte
	for _, f := range frames {
		stream = append(stream, f...)
	}
	fr := NewFrameReader(&cycleReader{b: stream, chunk: 50000}, 0)
	for i := 0; i < len(frames); i++ { // one cycle: the buffer reaches its final size
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		body, err := fr.Next()
		if err != nil || !bytes.Equal(body, frames[i%len(frames)][4:]) {
			t.Fatalf("frame %d: err %v, body differs: %v", i, err, err == nil)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Next allocates %.1f times per frame in steady state", allocs)
	}
}

// TestCodecSteadyStateAllocs: once the buffers and pools are warm,
// encoding (copying or gathering), decoding and releasing a frame
// allocate nothing — the coder stays on the stack and the release hook
// is built once.
func TestCodecSteadyStateAllocs(t *testing.T) {
	const d = 7850
	packed := func(seed uint64) *quant.Packed {
		p := quant.GetPacked()
		quant.Config{Bits: 8}.Pack(p, sampleVec(d, 1), nil, rng.New(seed))
		return p
	}
	cases := map[string]Message{
		"dense edge-train-reply": {From: NodeID{Kind: Edge, Index: 1}, To: NodeID{Kind: Cloud},
			Payload: &EdgeTrainReply{Slot: 1, WEdge: sampleVec(d, 1), WChk: sampleVec(d, 2), IterSum: sampleVec(d, 3), IterCount: 2}},
		"q8 train-reply": {From: NodeID{Kind: Client, Index: 2}, To: NodeID{Kind: Edge, Index: 1},
			Payload: &TrainReply{Client: 2, WFinalP: packed(1), WChkP: packed(2)}},
	}
	var spare [][]float64
	alloc := func(n int) []float64 {
		if len(spare) == 0 {
			return make([]float64, n)
		}
		v := spare[len(spare)-1]
		spare = spare[:len(spare)-1]
		return v
	}
	free := func(v []float64) { spare = append(spare, v) }
	for name, m := range cases {
		var frame, head []byte
		gather := coder{gather: true}
		for _, step := range []struct {
			name string
			run  func()
		}{
			{"AppendMessage", func() { frame, _ = AppendMessage(frame[:0], m) }},
			{"gather encode", func() { head, _ = gather.message(head[:0], &m) }},
			{"DecodeMessage+Release", func() {
				got, err := DecodeMessage(frame[4:], alloc, free)
				if err != nil {
					t.Fatal(err)
				}
				Release(got, free)
			}},
		} {
			step.run() // warm the buffers and pools
			if a := fltest.PooledAllocs(t, 100, step.run); a != 0 {
				t.Errorf("%s: %s allocates %.1f times per frame", name, step.name, a)
			}
		}
	}
}

// TestReleaseZeroesEveryField: Release runs a payload's field list and
// must leave the struct zero, its vectors freed, so every field is on its
// list — which is what lets decode fill a pooled struct without clearing
// it first. The unkeyed literals stop compiling when a field is added.
func TestReleaseZeroesEveryField(t *testing.T) {
	v := func() []float64 { return []float64{1} }
	pk := quant.GetPacked
	st := *rng.New(1)
	acct := SlotAcct{1, 2, 3, 4, 5, 6}
	for _, c := range []struct {
		p    any
		vecs int
	}{
		{&TrainReq{v(), 1, 2, 3, 4, 0.5, st, 5}, 1},
		{&TrainReply{1, v(), v(), pk(), pk(), v(), true}, 3},
		{&LossReq{v(), 1, st, 2}, 1},
		{&LossReply{1, 0.5, true}, 0},
		{&EdgeTrainReq{v(), 1, 2, 3, st, true}, 1},
		{&EdgeTrainReply{1, v(), v(), pk(), pk(), v(), 0.5, true, true, acct}, 3},
		{&EdgeLossReq{v(), 1, 2, st, true}, 1},
		{&EdgeLossReply{1, 0.5, true, true, acct}, 0},
	} {
		freed := 0
		Release(Message{Payload: c.p}, func([]float64) { freed++ })
		if !reflect.ValueOf(c.p).Elem().IsZero() || freed != c.vecs {
			t.Errorf("%T: release freed %d of %d vectors and left %+v", c.p, freed, c.vecs, c.p)
		}
	}
}
