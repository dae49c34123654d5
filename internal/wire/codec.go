package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Frame layout: a 4-byte little-endian body length, then the body. The
// first body byte is the frame type; the rest is type-specific. All
// integers are little-endian and all float64s travel as raw IEEE-754
// bits, so a decoded payload is bitwise-identical to the encoded one —
// the property the simnet-parity determinism contract rests on.
//
// Decoding is hardened against hostile input: every read is
// bounds-checked against the already-received body, so malformed,
// truncated or oversized frames return errors without panicking and
// without allocating more than the bytes that actually arrived (the
// fuzz targets in fuzz_test.go pin this).

// Frame types. Control frames (hello/ready/stats) carry transport
// bookkeeping between process runtimes; message frames carry a Message
// envelope plus one protocol payload.
const (
	FrameHello byte = 0x01
	FrameReady byte = 0x02
	FrameStats byte = 0x03

	frameTrainReq       byte = 0x10
	frameTrainReply     byte = 0x11
	frameLossReq        byte = 0x12
	frameLossReply      byte = 0x13
	frameEdgeTrainReq   byte = 0x14
	frameEdgeTrainReply byte = 0x15
	frameEdgeLossReq    byte = 0x16
	frameEdgeLossReply  byte = 0x17
	frameStop           byte = 0x18
)

// DefaultMaxFrame bounds one frame's body. The largest protocol frame
// is an edge train reply carrying three model-sized vectors; 64 MiB
// admits models beyond two million parameters while still rejecting a
// corrupt length prefix before any allocation happens.
const DefaultMaxFrame = 64 << 20

// MaxAddrLen bounds the listen-address string a hello may carry.
const MaxAddrLen = 256

// ErrFrameTooLarge reports a length prefix beyond the reader's limit.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// errTruncated reports a body shorter than its type requires.
var errTruncated = errors.New("wire: truncated frame body")

// AllocFunc returns an exclusively-owned float64 vector of the given
// positive length; decoded payload vectors are drawn from it so the
// receiving runtime's payload arena serves wire traffic exactly as it
// serves in-process traffic.
type AllocFunc func(d int) []float64

// Hello introduces a process runtime on every new connection: who is
// dialing (role + edge index), where its own listener accepts dial-backs,
// and a fingerprint of the run configuration so mismatched processes
// fail fast instead of training divergent trajectories.
type Hello struct {
	Role        byte // RoleCloud/RoleEdge/RoleClientHost
	Edge        int
	Addr        string
	Fingerprint uint64
}

// Roles carried in hello frames.
const (
	RoleCloud      byte = 1
	RoleEdge       byte = 2
	RoleClientHost byte = 3
)

// Stats carries one process runtime's final transport counters to its
// parent at shutdown; the cloud sums them into the run's RunStats so a
// distributed run reports exactly what the in-process run reports.
type Stats struct {
	Sent, Lost, Ctrl           int64
	Timeouts, Retries, Crashes int64
	PoolOutstanding            int64
	PoolRecycled               int64
	PoolAllocated              int64
}

// Add folds another process's counters into s.
func (s *Stats) Add(o Stats) {
	s.Sent += o.Sent
	s.Lost += o.Lost
	s.Ctrl += o.Ctrl
	s.Timeouts += o.Timeouts
	s.Retries += o.Retries
	s.Crashes += o.Crashes
	s.PoolOutstanding += o.PoolOutstanding
	s.PoolRecycled += o.PoolRecycled
	s.PoolAllocated += o.PoolAllocated
}

// --- encoding ---

// appendFrame wraps body[4:] written by fn with its length prefix: fn
// appends the body (type byte first) and appendFrame backfills the
// length. buf's existing contents are preserved.
func appendFrame(buf []byte, fn func([]byte) []byte) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = fn(buf)
	binary.LittleEndian.PutUint32(buf[start:start+4], uint32(len(buf)-start-4))
	return buf
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// errEmptyVec refuses a non-nil zero-length payload vector: the decoder
// rejects a present vector of length 0, and the protocol never sends one
// (absence is nil), so encoding it would emit a frame its own peer drops.
var errEmptyVec = errors.New("wire: cannot encode an empty non-nil payload vector")

// vecCut marks where one payload vector belongs in a gathered frame:
// after the encoded bytes [:off]. data aliases the payload's own memory.
type vecCut struct {
	off  int
	data []byte
}

// encoder is the one protocol-frame encoder. Its zero value copies every
// payload vector into the frame buffer (AppendMessage). With gather set,
// float64 vectors on a little-endian host stay where they are: the frame
// buffer receives only the bytes around them and cuts records where each
// vector goes, so Peer can hand the kernel header bytes and payload
// memory in one vectored write. Either way the frame's bytes, in order,
// are the same.
type encoder struct {
	gather bool
	cuts   []vecCut
	err    error
}

// vec encodes a nilable payload vector: a presence byte, then the
// length and raw IEEE bits. nil and non-nil round-trip distinctly —
// the protocol uses nil checkpoints and iterate sums as signals.
//
// On the avx2f32 storage tier the elements travel as 4-byte float32
// bits: every payload vector is a model vector and the storage
// invariant guarantees its values are float32-representable, so the
// narrowing is exact and the payload halves. Both endpoints agree on
// the width because the handshake fingerprint includes the kernel
// class (mixed regimes are refused before any payload flows).
func (e *encoder) vec(b []byte, v []float64) []byte {
	if v == nil {
		return append(b, 0)
	}
	if len(v) == 0 {
		e.err = errEmptyVec
		return b
	}
	b = append(b, 1)
	b = appendU32(b, uint32(len(v)))
	if tensor.StorageF32() {
		for _, x := range v {
			b = appendU32(b, math.Float32bits(float32(x)))
		}
		return b
	}
	if e.gather && hostLittleEndian {
		e.cuts = append(e.cuts, vecCut{off: len(b), data: vecBytes(v)})
		return b
	}
	return appendVecData(b, v)
}

// appendPacked encodes a nilable compressed payload. The leading byte is
// 0x00 for absent, else the quant.Scheme. Uniform frames carry no code
// length — it is implied by (dim, bits) — so a frame cannot lie about
// its own size; top-k counts are validated against the dimension and
// the received body before any allocation on decode.
func appendPacked(b []byte, p *quant.Packed) []byte {
	if p == nil {
		return append(b, 0)
	}
	b = append(b, byte(p.Scheme))
	b = appendU32(b, uint32(p.Dim))
	switch p.Scheme {
	case quant.SchemeUniform:
		b = append(b, p.Bits)
		b = appendF64(b, p.Lo)
		b = appendF64(b, p.Hi)
		b = append(b, p.Code...)
	case quant.SchemeTopK:
		b = appendU32(b, uint32(len(p.Idx)))
		for _, i := range p.Idx {
			b = appendU32(b, i)
		}
		for _, v := range p.Vals {
			b = appendF64(b, v)
		}
	}
	return b
}

func appendAcct(b []byte, a SlotAcct) []byte {
	b = appendU32(b, uint32(a.Blocks))
	b = appendU64(b, uint64(a.DownMsgs))
	b = appendU64(b, uint64(a.DownBytes))
	b = appendU64(b, uint64(a.UpMsgs))
	b = appendU64(b, uint64(a.UpBytes))
	return appendU32(b, uint32(a.TimeoutBlocks))
}

// appendEnvelope encodes the Message fields shared by every protocol
// frame.
func appendEnvelope(b []byte, m Message) []byte {
	b = append(b, byte(m.From.Kind))
	b = appendU32(b, uint32(m.From.Index))
	b = append(b, byte(m.To.Kind))
	b = appendU32(b, uint32(m.To.Index))
	b = appendU32(b, uint32(m.Round))
	b = appendU64(b, uint64(m.Bytes))
	return appendBool(b, m.Ctrl)
}

// AppendMessage appends one length-prefixed protocol frame for m to buf
// and returns the extended slice. The payload must be one of the
// protocol types (pointer forms) or Stop; anything else is an error —
// the transport refuses to guess at encodings.
func AppendMessage(buf []byte, m Message) ([]byte, error) {
	var e encoder
	return e.message(buf, m)
}

// message appends m's frame to buf. In gather mode the returned bytes
// omit the vectors recorded in e.cuts (reset on every call); the length
// prefix always counts the whole frame.
func (e *encoder) message(buf []byte, m Message) ([]byte, error) {
	e.cuts, e.err = e.cuts[:0], nil
	start := len(buf)
	b := append(buf, 0, 0, 0, 0)
	switch p := m.Payload.(type) {
	case *TrainReq:
		b = append(b, frameTrainReq)
		b = appendEnvelope(b, m)
		b = e.vec(b, p.W)
		b = appendU32(b, uint32(p.Steps))
		b = appendU32(b, uint32(p.Batch))
		b = appendU32(b, uint32(p.ChkAt))
		b = appendU32(b, uint32(p.Block))
		b = appendF64(b, p.Eta)
		b = p.Stream.AppendBinary(b)
		b = appendU32(b, uint32(p.Client))
	case *TrainReply:
		b = append(b, frameTrainReply)
		b = appendEnvelope(b, m)
		b = appendU32(b, uint32(p.Client))
		b = e.vec(b, p.WFinal)
		b = e.vec(b, p.WChk)
		b = e.vec(b, p.IterSum)
		b = appendPacked(b, p.WFinalP)
		b = appendPacked(b, p.WChkP)
		b = appendBool(b, p.Failed)
	case *LossReq:
		b = append(b, frameLossReq)
		b = appendEnvelope(b, m)
		b = e.vec(b, p.W)
		b = appendU32(b, uint32(p.Batch))
		b = p.Stream.AppendBinary(b)
		b = appendU32(b, uint32(p.Client))
	case *LossReply:
		b = append(b, frameLossReply)
		b = appendEnvelope(b, m)
		b = appendU32(b, uint32(p.Client))
		b = appendF64(b, p.Loss)
		b = appendBool(b, p.Failed)
	case *EdgeTrainReq:
		b = append(b, frameEdgeTrainReq)
		b = appendEnvelope(b, m)
		b = e.vec(b, p.W)
		b = appendU32(b, uint32(p.C1))
		b = appendU32(b, uint32(p.C2))
		b = appendU32(b, uint32(p.Slot))
		b = p.Stream.AppendBinary(b)
		b = appendBool(b, p.Doomed)
	case *EdgeTrainReply:
		b = append(b, frameEdgeTrainReply)
		b = appendEnvelope(b, m)
		b = appendU32(b, uint32(p.Slot))
		b = e.vec(b, p.WEdge)
		b = e.vec(b, p.WChk)
		b = e.vec(b, p.IterSum)
		b = appendPacked(b, p.WEdgeP)
		b = appendPacked(b, p.WChkP)
		b = appendF64(b, p.IterCount)
		b = appendBool(b, p.Failed)
		b = appendBool(b, p.Doomed)
		b = appendAcct(b, p.Acct)
	case *EdgeLossReq:
		b = append(b, frameEdgeLossReq)
		b = appendEnvelope(b, m)
		b = e.vec(b, p.W)
		b = appendU32(b, uint32(p.Seq))
		b = appendU32(b, uint32(p.LossBatch))
		b = p.Stream.AppendBinary(b)
		b = appendBool(b, p.Doomed)
	case *EdgeLossReply:
		b = append(b, frameEdgeLossReply)
		b = appendEnvelope(b, m)
		b = appendU32(b, uint32(p.Seq))
		b = appendF64(b, p.Loss)
		b = appendBool(b, p.Failed)
		b = appendBool(b, p.Doomed)
		b = appendAcct(b, p.Acct)
	case Stop:
		b = append(b, frameStop)
		b = appendEnvelope(b, m)
	default:
		return nil, fmt.Errorf("wire: cannot encode payload type %T", m.Payload)
	}
	if e.err != nil {
		return nil, e.err
	}
	n := len(b) - start - 4
	for _, c := range e.cuts {
		n += len(c.data)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// AppendHello appends a length-prefixed hello frame.
func AppendHello(buf []byte, h Hello) ([]byte, error) {
	if len(h.Addr) > MaxAddrLen {
		return nil, fmt.Errorf("wire: hello address %q exceeds %d bytes", h.Addr, MaxAddrLen)
	}
	return appendFrame(buf, func(b []byte) []byte {
		b = append(b, FrameHello, h.Role)
		b = appendU32(b, uint32(h.Edge))
		b = appendU64(b, h.Fingerprint)
		b = appendU32(b, uint32(len(h.Addr)))
		return append(b, h.Addr...)
	}), nil
}

// AppendReady appends a length-prefixed ready frame for the given edge.
func AppendReady(buf []byte, edge int) []byte {
	return appendFrame(buf, func(b []byte) []byte {
		b = append(b, FrameReady)
		return appendU32(b, uint32(edge))
	})
}

// AppendStats appends a length-prefixed stats frame.
func AppendStats(buf []byte, edge int, s Stats) []byte {
	return appendFrame(buf, func(b []byte) []byte {
		b = append(b, FrameStats)
		b = appendU32(b, uint32(edge))
		for _, v := range [...]int64{
			s.Sent, s.Lost, s.Ctrl, s.Timeouts, s.Retries, s.Crashes,
			s.PoolOutstanding, s.PoolRecycled, s.PoolAllocated,
		} {
			b = appendU64(b, uint64(v))
		}
		return b
	})
}

// --- decoding ---

// bodyReader walks a fully-received frame body with sticky error
// handling: the first out-of-bounds read poisons the reader and every
// later read returns zero values, so decode functions can parse
// straight-line and check err once.
type bodyReader struct {
	b   []byte
	off int
	err error
}

func (r *bodyReader) fail() {
	if r.err == nil {
		r.err = errTruncated
	}
}

func (r *bodyReader) take(n int) []byte {
	if r.err != nil || r.off+n > len(r.b) || n < 0 {
		r.fail()
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *bodyReader) u8() byte {
	if s := r.take(1); s != nil {
		return s[0]
	}
	return 0
}

func (r *bodyReader) u32() uint32 {
	if s := r.take(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

func (r *bodyReader) u64() uint64 {
	if s := r.take(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

func (r *bodyReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *bodyReader) boolByte() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if r.err == nil {
			r.err = errors.New("wire: boolean byte must be 0 or 1")
		}
		return false
	}
}

func (r *bodyReader) stream() rng.Stream {
	var s rng.Stream
	if raw := r.take(rng.MarshaledSize); raw != nil {
		if err := s.UnmarshalBinary(raw); err != nil && r.err == nil {
			r.err = err
		}
	}
	return s
}

// vec decodes a nilable payload vector. The length is validated against
// the bytes actually present before anything is allocated, so a corrupt
// count can never trigger an oversized allocation.
func (r *bodyReader) vec(alloc AllocFunc) []float64 {
	if !r.boolByte() {
		return nil
	}
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if tensor.StorageF32() {
		if n < 1 || r.off+n*4 > len(r.b) {
			r.err = errors.New("wire: vector length exceeds frame body")
			return nil
		}
		v := alloc(n)
		for i := range v {
			v[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(r.b[r.off+i*4:])))
		}
		r.off += n * 4
		return v
	}
	if n < 1 || r.off+n*8 > len(r.b) {
		r.err = errors.New("wire: vector length exceeds frame body")
		return nil
	}
	v := alloc(n)
	readVecData(v, r.b[r.off:r.off+n*8])
	r.off += n * 8
	return v
}

// packed decodes a nilable compressed payload into a pooled
// quant.Packed. Every count is validated against the bytes actually
// present (and against the declared dimension) before anything is
// allocated or copied, and the decoded form is canonical: trailing
// bitstream bits must be zero and top-k indices strictly increasing
// below the dimension. On error nothing is retained.
func (r *bodyReader) packed() *quant.Packed {
	scheme := r.u8()
	if r.err != nil || scheme == 0 {
		return nil
	}
	dim := int(r.u32())
	if r.err != nil {
		return nil
	}
	if dim < 1 {
		r.err = errors.New("wire: packed dimension must be positive")
		return nil
	}
	switch quant.Scheme(scheme) {
	case quant.SchemeUniform:
		bits := r.u8()
		lo := r.f64()
		hi := r.f64()
		if r.err != nil {
			return nil
		}
		if bits < 1 || bits > 32 {
			r.err = errors.New("wire: packed bits outside [1,32]")
			return nil
		}
		code := r.take((dim*int(bits) + 7) / 8)
		if r.err != nil {
			return nil
		}
		if tb := (dim * int(bits)) % 8; tb != 0 && code[len(code)-1]>>uint(tb) != 0 {
			r.err = errors.New("wire: nonzero trailing bits in packed code")
			return nil
		}
		p := quant.GetPacked()
		p.Scheme, p.Dim, p.Bits, p.Lo, p.Hi = quant.SchemeUniform, dim, bits, lo, hi
		p.Code = append(p.Code[:0], code...)
		return p
	case quant.SchemeTopK:
		k := int(r.u32())
		if r.err != nil {
			return nil
		}
		if k < 1 || k > dim {
			r.err = errors.New("wire: packed top-k count outside [1,dim]")
			return nil
		}
		if r.off+k*12 > len(r.b) {
			r.fail()
			return nil
		}
		p := quant.GetPacked()
		p.Scheme, p.Dim = quant.SchemeTopK, dim
		idx := p.Idx[:0]
		prev := -1
		for j := 0; j < k; j++ {
			v := r.u32()
			if int(v) <= prev || int(v) >= dim {
				r.err = errors.New("wire: packed top-k indices must be strictly increasing below the dimension")
				quant.PutPacked(p)
				return nil
			}
			prev = int(v)
			idx = append(idx, v)
		}
		p.Idx = idx
		vals := p.Vals[:0]
		for j := 0; j < k; j++ {
			vals = append(vals, r.f64())
		}
		p.Vals = vals
		return p
	}
	r.err = fmt.Errorf("wire: unknown packed scheme %d", scheme)
	return nil
}

func (r *bodyReader) acct() SlotAcct {
	var a SlotAcct
	a.Blocks = int(r.u32())
	a.DownMsgs = int64(r.u64())
	a.DownBytes = int64(r.u64())
	a.UpMsgs = int64(r.u64())
	a.UpBytes = int64(r.u64())
	a.TimeoutBlocks = int(r.u32())
	return a
}

func (r *bodyReader) node() NodeID {
	k := NodeKind(r.u8())
	idx := int(r.u32())
	if r.err == nil && (k < Cloud || k > ReplyPort) {
		r.err = fmt.Errorf("wire: unknown node kind %d", int(k))
	}
	return NodeID{Kind: k, Index: idx}
}

func (r *bodyReader) envelope() Message {
	var m Message
	m.From = r.node()
	m.To = r.node()
	m.Round = int(r.u32())
	m.Bytes = int64(r.u64())
	m.Ctrl = r.boolByte()
	return m
}

// finish rejects trailing garbage: a valid frame is consumed exactly.
func (r *bodyReader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes after frame payload", len(r.b)-r.off)
	}
	return nil
}

// kindString maps a frame type and its control flag to the protocol
// Kind the in-process engines use, so logs and drop hooks see the same
// names on both transports.
func kindString(t byte, ctrl bool) string {
	switch t {
	case frameTrainReq:
		return "train-req"
	case frameTrainReply:
		if ctrl {
			return "train-nack"
		}
		return "train-reply"
	case frameLossReq:
		return "loss-req"
	case frameLossReply:
		if ctrl {
			return "loss-nack"
		}
		return "loss-reply"
	case frameEdgeTrainReq:
		return "edge-train-req"
	case frameEdgeTrainReply:
		if ctrl {
			return "edge-train-nack"
		}
		return "edge-train-reply"
	case frameEdgeLossReq:
		return "edge-loss-req"
	case frameEdgeLossReply:
		if ctrl {
			return "edge-loss-nack"
		}
		return "edge-loss-reply"
	case frameStop:
		return "stop"
	}
	return "unknown"
}

// DecodeMessage decodes a protocol frame body (type byte included) into
// a Message whose payload struct comes from the typed pools and whose
// vectors come from alloc. On error nothing is retained: any vectors
// already drawn are NOT returned to the arena by DecodeMessage — it
// decodes vectors last-resort-first into locals precisely so an error
// path has at most partially-filled locals to release, which it does
// via the free callback (nil-safe no-op when free is nil).
func DecodeMessage(body []byte, alloc AllocFunc, free func([]float64)) (Message, error) {
	if free == nil {
		free = func([]float64) {}
	}
	release := func(vs ...[]float64) {
		for _, v := range vs {
			if v != nil {
				free(v)
			}
		}
	}
	r := &bodyReader{b: body}
	t := r.u8()
	if r.err != nil {
		return Message{}, r.err
	}
	m := r.envelope()
	switch t {
	case frameTrainReq:
		w := r.vec(alloc)
		p := TrainReqPool.Get().(*TrainReq)
		*p = TrainReq{W: w, Steps: int(r.u32()), Batch: int(r.u32()), ChkAt: int(r.u32()),
			Block: int(r.u32()), Eta: r.f64(), Stream: r.stream(), Client: int(r.u32())}
		if err := r.finish(); err != nil {
			release(w)
			TrainReqPool.Put(p)
			return Message{}, err
		}
		m.Payload = p
	case frameTrainReply:
		client := int(r.u32())
		wFinal := r.vec(alloc)
		wChk := r.vec(alloc)
		iterSum := r.vec(alloc)
		wFinalP := r.packed()
		wChkP := r.packed()
		p := TrainReplyPool.Get().(*TrainReply)
		*p = TrainReply{Client: client, WFinal: wFinal, WChk: wChk, IterSum: iterSum,
			WFinalP: wFinalP, WChkP: wChkP, Failed: r.boolByte()}
		if err := r.finish(); err != nil {
			release(wFinal, wChk, iterSum)
			quant.PutPacked(wFinalP)
			quant.PutPacked(wChkP)
			TrainReplyPool.Put(p)
			return Message{}, err
		}
		m.Payload = p
	case frameLossReq:
		w := r.vec(alloc)
		p := LossReqPool.Get().(*LossReq)
		*p = LossReq{W: w, Batch: int(r.u32()), Stream: r.stream(), Client: int(r.u32())}
		if err := r.finish(); err != nil {
			release(w)
			LossReqPool.Put(p)
			return Message{}, err
		}
		m.Payload = p
	case frameLossReply:
		p := LossReplyPool.Get().(*LossReply)
		*p = LossReply{Client: int(r.u32()), Loss: r.f64(), Failed: r.boolByte()}
		if err := r.finish(); err != nil {
			LossReplyPool.Put(p)
			return Message{}, err
		}
		m.Payload = p
	case frameEdgeTrainReq:
		w := r.vec(alloc)
		p := EdgeTrainReqPool.Get().(*EdgeTrainReq)
		*p = EdgeTrainReq{W: w, C1: int(r.u32()), C2: int(r.u32()), Slot: int(r.u32()),
			Stream: r.stream(), Doomed: r.boolByte()}
		if err := r.finish(); err != nil {
			release(w)
			EdgeTrainReqPool.Put(p)
			return Message{}, err
		}
		m.Payload = p
	case frameEdgeTrainReply:
		slot := int(r.u32())
		wEdge := r.vec(alloc)
		wChk := r.vec(alloc)
		iterSum := r.vec(alloc)
		wEdgeP := r.packed()
		wChkP := r.packed()
		p := EdgeTrainReplyPool.Get().(*EdgeTrainReply)
		*p = EdgeTrainReply{Slot: slot, WEdge: wEdge, WChk: wChk, IterSum: iterSum,
			WEdgeP: wEdgeP, WChkP: wChkP,
			IterCount: r.f64(), Failed: r.boolByte(), Doomed: r.boolByte(), Acct: r.acct()}
		if err := r.finish(); err != nil {
			release(wEdge, wChk, iterSum)
			quant.PutPacked(wEdgeP)
			quant.PutPacked(wChkP)
			EdgeTrainReplyPool.Put(p)
			return Message{}, err
		}
		m.Payload = p
	case frameEdgeLossReq:
		w := r.vec(alloc)
		p := EdgeLossReqPool.Get().(*EdgeLossReq)
		*p = EdgeLossReq{W: w, Seq: int(r.u32()), LossBatch: int(r.u32()),
			Stream: r.stream(), Doomed: r.boolByte()}
		if err := r.finish(); err != nil {
			release(w)
			EdgeLossReqPool.Put(p)
			return Message{}, err
		}
		m.Payload = p
	case frameEdgeLossReply:
		p := EdgeLossReplyPool.Get().(*EdgeLossReply)
		*p = EdgeLossReply{Seq: int(r.u32()), Loss: r.f64(), Failed: r.boolByte(),
			Doomed: r.boolByte(), Acct: r.acct()}
		if err := r.finish(); err != nil {
			EdgeLossReplyPool.Put(p)
			return Message{}, err
		}
		m.Payload = p
	case frameStop:
		if err := r.finish(); err != nil {
			return Message{}, err
		}
		m.Payload = Stop{}
	default:
		return Message{}, fmt.Errorf("wire: unknown frame type 0x%02x", t)
	}
	m.Kind = kindString(t, m.Ctrl)
	return m, nil
}

// DecodeHello decodes a hello frame body (type byte included).
func DecodeHello(body []byte) (Hello, error) {
	r := &bodyReader{b: body}
	if t := r.u8(); r.err == nil && t != FrameHello {
		return Hello{}, fmt.Errorf("wire: expected hello frame, got type 0x%02x", t)
	}
	var h Hello
	h.Role = r.u8()
	h.Edge = int(r.u32())
	h.Fingerprint = r.u64()
	n := int(r.u32())
	if r.err == nil && n > MaxAddrLen {
		return Hello{}, fmt.Errorf("wire: hello address length %d exceeds %d", n, MaxAddrLen)
	}
	h.Addr = string(r.take(n))
	if r.err == nil && (h.Role < RoleCloud || h.Role > RoleClientHost) {
		return Hello{}, fmt.Errorf("wire: unknown hello role %d", h.Role)
	}
	if err := r.finish(); err != nil {
		return Hello{}, err
	}
	return h, nil
}

// DecodeReady decodes a ready frame body, returning the edge index.
func DecodeReady(body []byte) (int, error) {
	r := &bodyReader{b: body}
	if t := r.u8(); r.err == nil && t != FrameReady {
		return 0, fmt.Errorf("wire: expected ready frame, got type 0x%02x", t)
	}
	edge := int(r.u32())
	if err := r.finish(); err != nil {
		return 0, err
	}
	return edge, nil
}

// DecodeStats decodes a stats frame body.
func DecodeStats(body []byte) (int, Stats, error) {
	r := &bodyReader{b: body}
	if t := r.u8(); r.err == nil && t != FrameStats {
		return 0, Stats{}, fmt.Errorf("wire: expected stats frame, got type 0x%02x", t)
	}
	edge := int(r.u32())
	var s Stats
	for _, dst := range []*int64{
		&s.Sent, &s.Lost, &s.Ctrl, &s.Timeouts, &s.Retries, &s.Crashes,
		&s.PoolOutstanding, &s.PoolRecycled, &s.PoolAllocated,
	} {
		*dst = int64(r.u64())
	}
	if err := r.finish(); err != nil {
		return 0, Stats{}, err
	}
	return edge, s, nil
}

// frameBufSize is a FrameReader's initial buffer: one dense d = 7850
// frame (62.9 KB), the benchmark's model size, fits without growing.
const frameBufSize = 64 << 10

// FrameReader reads length-prefixed frames from a connection through one
// buffer it owns: the connection is read straight into the buffer and
// each body is handed out as a slice of it, valid only until the next
// Next call. A frame that would run past the buffer's end is first slid
// to the front, and the buffer grows to exactly a frame's size when a
// frame exceeds it — after the length prefix was checked against max, so
// a prefix beyond max fails with ErrFrameTooLarge before any allocation.
type FrameReader struct {
	rd   io.Reader
	buf  []byte
	r, w int   // buf[r:w] is received and not yet handed out
	err  error // read error held back until the bytes before it are used
	max  int
}

// NewFrameReader wraps r; max <= 0 selects DefaultMaxFrame.
func NewFrameReader(r io.Reader, max int) *FrameReader {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	return &FrameReader{rd: r, buf: make([]byte, frameBufSize), max: max}
}

// fill reads until buf[r:] holds need bytes. When they cannot fit
// between r and the buffer's end the unread bytes move to the front,
// into a buffer of exactly need bytes if the current one is smaller.
func (fr *FrameReader) fill(need int) error {
	for fr.w-fr.r < need {
		if fr.err != nil {
			return fr.err
		}
		if fr.r == fr.w {
			fr.r, fr.w = 0, 0
		}
		if fr.r+need > len(fr.buf) {
			to := fr.buf
			if need > len(to) {
				to = make([]byte, need)
			}
			fr.w = copy(to, fr.buf[fr.r:fr.w])
			fr.r, fr.buf = 0, to
		}
		n, err := fr.rd.Read(fr.buf[fr.w:])
		fr.w += n
		fr.err = err
	}
	return nil
}

// Next returns the next frame body (type byte first). io.EOF signals a
// clean end of stream between frames; a stream cut mid-frame returns
// io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() ([]byte, error) {
	if err := fr.fill(4); err != nil {
		if err == io.EOF && fr.w > fr.r {
			err = io.ErrUnexpectedEOF
		}
		return nil, err // clean EOF between frames stays io.EOF
	}
	size := binary.LittleEndian.Uint32(fr.buf[fr.r:])
	if uint64(size) > uint64(fr.max) {
		return nil, ErrFrameTooLarge
	}
	n := int(size)
	if n == 0 {
		return nil, errTruncated // a frame always has at least its type byte
	}
	if err := fr.fill(4 + n); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	body := fr.buf[fr.r+4 : fr.r+4+n]
	fr.r += 4 + n
	return body, nil
}
