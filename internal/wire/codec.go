package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/quant"
	"repro/internal/rng"
)

// Frame layout: a 4-byte little-endian body length, then the body. The
// first body byte is the frame type; the rest is type-specific. All
// integers are little-endian and all float64s travel as raw IEEE-754
// bits, so a decoded payload is bitwise-identical to the encoded one —
// the property the simnet-parity determinism contract rests on.
//
// Each layout is written once, as a field list: a code method per
// payload (and for Hello, Stats, SlotAcct and the envelope) that a coder
// runs to encode, decode or release the frame's fields, so the two
// directions cannot drift apart.
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

// messageFrames describes the message frame types in order from
// frameTrainReq: the Kind a frame decodes to (nack when its control flag
// is set), so logs and drop hooks see the in-process engines' names on
// both transports, and the pool its payload struct comes from (none for
// Stop).
var messageFrames = [...]struct {
	kind, nack string
	pool       *sync.Pool
}{
	{"train-req", "train-req", &TrainReqPool},
	{"train-reply", "train-nack", &TrainReplyPool},
	{"loss-req", "loss-req", &LossReqPool},
	{"loss-reply", "loss-nack", &LossReplyPool},
	{"edge-train-req", "edge-train-req", &EdgeTrainReqPool},
	{"edge-train-reply", "edge-train-nack", &EdgeTrainReplyPool},
	{"edge-loss-req", "edge-loss-req", &EdgeLossReqPool},
	{"edge-loss-reply", "edge-loss-nack", &EdgeLossReplyPool},
	{"stop", "stop", nil},
}

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

// --- the coder ---

// Coder modes; the zero mode encodes.
const (
	encode = iota
	decode
	release
)

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

// coder runs field lists. Each primitive takes a pointer to one field
// and, by mode:
//   - encode appends the field's wire form to b and never writes the
//     field (a payload is read-only to its sender);
//   - decode reads the field from b and never reads it first (a pooled
//     struct may still point at state another owner holds). Errors are
//     sticky: after the first, every field decodes to its zero value, so
//     a field list runs straight through, the caller checks err once, and
//     a failed frame holds only what it drew itself;
//   - release zeroes the field, handing vectors to free (dropped when
//     free is nil) and packed payloads back to quant's pool.
//
// With gather set, encode leaves float64 vectors on a little-endian host
// where they are: b receives only the bytes around them and cuts record
// where each vector goes, so Peer can hand the kernel header bytes and
// payload memory in one vectored write. Either way the frame's bytes, in
// order, are the same.
type coder struct {
	mode   uint8
	b      []byte // encode: the frame so far; decode: the body
	off    int    // encode: where the open frame starts; decode: bytes consumed
	err    error
	alloc  AllocFunc
	free   func([]float64)
	gather bool
	cuts   []vecCut
}

// open starts an encoded frame of type t after buf's contents: a length
// prefix that close backfills, then the type byte.
func (c *coder) open(buf []byte, t byte) {
	c.b, c.off, c.cuts, c.err = append(buf, 0, 0, 0, 0, t), len(buf), c.cuts[:0], nil
}

// close backfills the open frame's length prefix, which counts the
// vectors set aside in cuts too, and returns the frame.
func (c *coder) close() ([]byte, error) {
	if c.err != nil {
		return nil, c.err
	}
	n := len(c.b) - c.off - 4
	for _, cut := range c.cuts {
		n += len(cut.data)
	}
	binary.LittleEndian.PutUint32(c.b[c.off:], uint32(n))
	return c.b, nil
}

func (c *coder) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// take consumes the next n body bytes. It returns nil outside decode
// mode, after an error, and when fewer than n bytes remain (which is
// errTruncated).
func (c *coder) take(n int) []byte {
	if c.mode != decode || c.err != nil {
		return nil
	}
	if n < 0 || c.off+n > len(c.b) {
		c.fail(errTruncated)
		return nil
	}
	s := c.b[c.off : c.off+n]
	c.off += n
	return s
}

// read takes an n-byte little-endian integer (n is 1, 4 or 8); 0 when
// take yields nothing.
func (c *coder) read(n int) uint64 {
	switch s := c.take(n); len(s) {
	case 1:
		return uint64(s[0])
	case 4:
		return uint64(binary.LittleEndian.Uint32(s))
	case 8:
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

// finish ends a decode with its first error, or rejects trailing
// garbage: a valid frame is consumed exactly.
func (c *coder) finish() error {
	if c.err == nil && c.off != len(c.b) {
		c.err = fmt.Errorf("wire: %d trailing bytes after frame payload", len(c.b)-c.off)
	}
	return c.err
}

func (c *coder) u8(v *byte) {
	if c.mode == encode {
		c.b = append(c.b, *v)
		return
	}
	*v = byte(c.read(1))
}

func (c *coder) u32(v *uint32) {
	if c.mode == encode {
		c.b = binary.LittleEndian.AppendUint32(c.b, *v)
		return
	}
	*v = uint32(c.read(4))
}

func (c *coder) u64(v *uint64) {
	if c.mode == encode {
		c.b = binary.LittleEndian.AppendUint64(c.b, *v)
		return
	}
	*v = c.read(8)
}

// int codes an int in 4 bytes; it decodes non-negative.
func (c *coder) int(v *int) {
	if c.mode == encode {
		c.b = binary.LittleEndian.AppendUint32(c.b, uint32(*v))
		return
	}
	*v = int(c.read(4))
}

func (c *coder) i64(v *int64) {
	if c.mode == encode {
		c.b = binary.LittleEndian.AppendUint64(c.b, uint64(*v))
		return
	}
	*v = int64(c.read(8))
}

func (c *coder) f64(v *float64) {
	if c.mode == encode {
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*v))
		return
	}
	*v = math.Float64frombits(c.read(8))
}

// bool codes a flag as one byte; decode admits only 0 and 1.
func (c *coder) bool(v *bool) {
	if c.mode == encode {
		b := byte(0)
		if *v {
			b = 1
		}
		c.b = append(c.b, b)
		return
	}
	b := c.read(1)
	if b > 1 {
		c.fail(errors.New("wire: boolean byte must be 0 or 1"))
	}
	*v = b == 1
}

// stream codes an rng stream as its full generator state, so the
// receiver continues the sender's exact deviate sequence.
func (c *coder) stream(s *rng.Stream) {
	if c.mode == encode {
		c.b = s.AppendBinary(c.b)
		return
	}
	*s = rng.Stream{}
	if raw := c.take(rng.MarshaledSize); raw != nil {
		if err := s.UnmarshalBinary(raw); err != nil {
			c.fail(err)
		}
	}
}

// node codes a node ID: the kind in one byte, then the index.
func (c *coder) node(id *NodeID) {
	if c.mode == encode {
		c.b = append(c.b, byte(id.Kind))
	} else {
		id.Kind = NodeKind(c.read(1))
	}
	c.int(&id.Index)
	if id.Kind < Cloud || id.Kind > ReplyPort {
		c.fail(fmt.Errorf("wire: unknown node kind %d", int(id.Kind)))
	}
}

// vec codes a nilable payload vector: a presence byte, then the length
// and the elements' IEEE bits. nil and non-nil round-trip distinctly —
// the protocol uses nil checkpoints and iterate sums as signals. Decode
// checks the length against the bytes actually present before drawing
// the vector from alloc, so a corrupt count never triggers an oversized
// allocation.
func (c *coder) vec(p *[]float64) {
	switch c.mode {
	case encode:
		v := *p
		present := v != nil
		if c.bool(&present); !present {
			return
		}
		if len(v) == 0 {
			c.fail(errEmptyVec)
			return
		}
		n := len(v)
		c.int(&n)
		if c.gather && hostLittleEndian {
			c.cuts = append(c.cuts, vecCut{off: len(c.b), data: vecBytes(v)})
		} else {
			c.b = appendVecData(c.b, v)
		}
	case decode:
		*p = nil
		var present bool
		var n int
		if c.bool(&present); !present {
			return
		}
		if c.int(&n); c.err == nil && (n < 1 || c.off+n*8 > len(c.b)) {
			c.fail(errors.New("wire: vector length exceeds frame body"))
		}
		src := c.take(n * 8)
		if src == nil {
			return
		}
		v := c.alloc(n)
		readVecData(v, src)
		*p = v
	case release:
		if *p != nil && c.free != nil {
			c.free(*p)
		}
		*p = nil
	}
}

// packed codes a nilable compressed payload. The leading byte is 0 for
// absent, else the quant.Scheme. Uniform frames carry no code length —
// it is implied by (dim, bits) — so a frame cannot lie about its own
// size; top-k counts are checked against the dimension and the received
// body before anything is copied. Decode admits only the canonical form
// (trailing bitstream bits zero, top-k indices strictly increasing below
// the dimension) and on error returns its pooled Packed at once.
func (c *coder) packed(pp **quant.Packed) {
	switch c.mode {
	case encode:
		p := *pp
		if p == nil {
			c.b = append(c.b, 0)
			return
		}
		c.b = append(c.b, byte(p.Scheme))
		c.int(&p.Dim)
		switch p.Scheme {
		case quant.SchemeUniform:
			c.u8(&p.Bits)
			c.f64(&p.Lo)
			c.f64(&p.Hi)
			c.b = append(c.b, p.Code...)
		case quant.SchemeTopK:
			k := len(p.Idx)
			c.int(&k)
			for i := range p.Idx {
				c.u32(&p.Idx[i])
			}
			for i := range p.Vals {
				c.f64(&p.Vals[i])
			}
		}
	case decode:
		*pp = nil
		var scheme byte
		var dim int
		if c.u8(&scheme); scheme == 0 {
			return
		}
		if c.int(&dim); c.err == nil && dim < 1 {
			c.fail(errors.New("wire: packed dimension must be positive"))
		}
		if c.err != nil {
			return
		}
		p := quant.GetPacked()
		p.Scheme, p.Dim = quant.Scheme(scheme), dim
		switch p.Scheme {
		case quant.SchemeUniform:
			c.u8(&p.Bits)
			c.f64(&p.Lo)
			c.f64(&p.Hi)
			if c.err == nil && (p.Bits < 1 || p.Bits > 32) {
				c.fail(errors.New("wire: packed bits outside [1,32]"))
			}
			code := c.take((dim*int(p.Bits) + 7) / 8)
			if tb := (dim * int(p.Bits)) % 8; code != nil && tb != 0 && code[len(code)-1]>>uint(tb) != 0 {
				c.fail(errors.New("wire: nonzero trailing bits in packed code"))
			}
			p.Code = append(p.Code[:0], code...)
		case quant.SchemeTopK:
			var k int
			if c.int(&k); c.err == nil && (k < 1 || k > dim) {
				c.fail(errors.New("wire: packed top-k count outside [1,dim]"))
			}
			if c.err == nil && c.off+k*12 > len(c.b) {
				c.fail(errTruncated)
			}
			p.Idx, p.Vals = p.Idx[:0], p.Vals[:0]
			for j := 0; j < k && c.err == nil; j++ {
				var i uint32
				if c.u32(&i); len(p.Idx) > 0 && i <= p.Idx[len(p.Idx)-1] || int(i) >= dim {
					c.fail(errors.New("wire: packed top-k indices must be strictly increasing below the dimension"))
				}
				p.Idx = append(p.Idx, i)
			}
			for j := 0; j < k && c.err == nil; j++ {
				p.Vals = append(p.Vals, 0)
				c.f64(&p.Vals[j])
			}
		default:
			c.fail(fmt.Errorf("wire: unknown packed scheme %d", scheme))
		}
		if c.err != nil {
			quant.PutPacked(p)
			return
		}
		*pp = p
	case release:
		quant.PutPacked(*pp)
		*pp = nil
	}
}

// --- field lists ---

// code is the envelope's field list: the Message fields every protocol
// frame carries after its type byte. Kind follows from the frame type,
// and the payload has a list of its own.
func (m *Message) code(c *coder) {
	c.node(&m.From)
	c.node(&m.To)
	c.int(&m.Round)
	c.i64(&m.Bytes)
	c.bool(&m.Ctrl)
}

func (p *TrainReq) code(c *coder) {
	c.vec(&p.W)
	c.int(&p.Steps)
	c.int(&p.Batch)
	c.int(&p.ChkAt)
	c.int(&p.Block)
	c.f64(&p.Eta)
	c.stream(&p.Stream)
	c.int(&p.Client)
}

func (p *TrainReply) code(c *coder) {
	c.int(&p.Client)
	c.vec(&p.WFinal)
	c.vec(&p.WChk)
	c.vec(&p.IterSum)
	c.packed(&p.WFinalP)
	c.packed(&p.WChkP)
	c.bool(&p.Failed)
}

func (p *LossReq) code(c *coder) {
	c.vec(&p.W)
	c.int(&p.Batch)
	c.stream(&p.Stream)
	c.int(&p.Client)
}

func (p *LossReply) code(c *coder) {
	c.int(&p.Client)
	c.f64(&p.Loss)
	c.bool(&p.Failed)
}

func (p *EdgeTrainReq) code(c *coder) {
	c.vec(&p.W)
	c.int(&p.C1)
	c.int(&p.C2)
	c.int(&p.Slot)
	c.stream(&p.Stream)
	c.bool(&p.Doomed)
}

func (p *EdgeTrainReply) code(c *coder) {
	c.int(&p.Slot)
	c.vec(&p.WEdge)
	c.vec(&p.WChk)
	c.vec(&p.IterSum)
	c.packed(&p.WEdgeP)
	c.packed(&p.WChkP)
	c.f64(&p.IterCount)
	c.bool(&p.Failed)
	c.bool(&p.Doomed)
	p.Acct.code(c)
}

func (p *EdgeLossReq) code(c *coder) {
	c.vec(&p.W)
	c.int(&p.Seq)
	c.int(&p.LossBatch)
	c.stream(&p.Stream)
	c.bool(&p.Doomed)
}

func (p *EdgeLossReply) code(c *coder) {
	c.int(&p.Seq)
	c.f64(&p.Loss)
	c.bool(&p.Failed)
	c.bool(&p.Doomed)
	p.Acct.code(c)
}

func (a *SlotAcct) code(c *coder) {
	c.int(&a.Blocks)
	c.i64(&a.DownMsgs)
	c.i64(&a.DownBytes)
	c.i64(&a.UpMsgs)
	c.i64(&a.UpBytes)
	c.int(&a.TimeoutBlocks)
}

// code is the hello's field list. Both directions refuse an address
// longer than MaxAddrLen and an unknown role.
func (h *Hello) code(c *coder) {
	c.u8(&h.Role)
	c.int(&h.Edge)
	c.u64(&h.Fingerprint)
	n := 0
	if c.mode == encode {
		n = len(h.Addr)
	}
	if c.int(&n); n > MaxAddrLen {
		c.fail(fmt.Errorf("wire: hello address length %d exceeds %d", n, MaxAddrLen))
	}
	if c.mode == encode {
		c.b = append(c.b, h.Addr...)
	} else {
		h.Addr = string(c.take(n))
	}
	if h.Role < RoleCloud || h.Role > RoleClientHost {
		c.fail(fmt.Errorf("wire: unknown hello role %d", h.Role))
	}
}

func (s *Stats) code(c *coder) {
	for _, v := range [...]*int64{
		&s.Sent, &s.Lost, &s.Ctrl, &s.Timeouts, &s.Retries, &s.Crashes,
		&s.PoolOutstanding, &s.PoolRecycled, &s.PoolAllocated,
	} {
		c.i64(v)
	}
}

// payload runs protocol payload p's field list and returns its frame
// type, 0 if p is not a protocol payload. The type switch keeps every
// call static, so a coder never leaves its caller's stack.
func (c *coder) payload(p any) byte {
	switch p := p.(type) {
	case *TrainReq:
		p.code(c)
		return frameTrainReq
	case *TrainReply:
		p.code(c)
		return frameTrainReply
	case *LossReq:
		p.code(c)
		return frameLossReq
	case *LossReply:
		p.code(c)
		return frameLossReply
	case *EdgeTrainReq:
		p.code(c)
		return frameEdgeTrainReq
	case *EdgeTrainReply:
		p.code(c)
		return frameEdgeTrainReply
	case *EdgeLossReq:
		p.code(c)
		return frameEdgeLossReq
	case *EdgeLossReply:
		p.code(c)
		return frameEdgeLossReply
	case Stop:
		return frameStop
	}
	return 0
}

// --- frames ---

// AppendMessage appends one length-prefixed protocol frame for m to buf
// and returns the extended slice. The payload must be one of the
// protocol types (pointer forms) or Stop; anything else is an error —
// the transport refuses to guess at encodings.
func AppendMessage(buf []byte, m Message) ([]byte, error) {
	var c coder
	return c.message(buf, &m)
}

// message appends m's frame to buf. In gather mode the returned bytes
// omit the vectors recorded in c.cuts (reset on every call); the length
// prefix always counts the whole frame.
func (c *coder) message(buf []byte, m *Message) ([]byte, error) {
	c.open(buf, 0)
	m.code(c)
	t := c.payload(m.Payload)
	if t == 0 {
		return nil, fmt.Errorf("wire: cannot encode payload type %T", m.Payload)
	}
	c.b[c.off+4] = t
	return c.close()
}

// DecodeMessage decodes a protocol frame body (type byte included) into
// a Message whose payload struct comes from the typed pools and whose
// vectors come from alloc. On error nothing is retained: Release hands
// what the frame drew back, its vectors to free (nil drops them).
func DecodeMessage(body []byte, alloc AllocFunc, free func([]float64)) (Message, error) {
	c := coder{mode: decode, b: body, alloc: alloc}
	var t byte
	if c.u8(&t); c.err != nil {
		return Message{}, c.err
	}
	i := int(t) - int(frameTrainReq)
	if i < 0 || i >= len(messageFrames) {
		return Message{}, fmt.Errorf("wire: unknown frame type 0x%02x", t)
	}
	var m Message
	m.code(&c)
	m.Payload = Stop{}
	if pool := messageFrames[i].pool; pool != nil {
		m.Payload = pool.Get()
	}
	c.payload(m.Payload)
	if err := c.finish(); err != nil {
		Release(m, free)
		return Message{}, err
	}
	m.Kind = messageFrames[i].kind
	if m.Ctrl {
		m.Kind = messageFrames[i].nack
	}
	return m, nil
}

// Release returns a message's payload to the pools it came from: each
// non-nil vector to free (nil drops them), each packed payload to
// quant's pool, and the struct, zeroed, to its typed pool. It runs the
// payload's field list, so what a frame carries and what its release
// returns cannot disagree. It is the sending runtime's Peer Release hook
// and DecodeMessage's error path.
func Release(m Message, free func([]float64)) {
	c := coder{mode: release, free: free}
	if t := c.payload(m.Payload); t != 0 {
		if pool := messageFrames[t-frameTrainReq].pool; pool != nil {
			pool.Put(m.Payload)
		}
	}
}

// AppendHello appends a length-prefixed hello frame.
func AppendHello(buf []byte, h Hello) ([]byte, error) {
	var c coder
	c.open(buf, FrameHello)
	h.code(&c)
	return c.close()
}

// AppendReady appends a length-prefixed ready frame for the given edge.
func AppendReady(buf []byte, edge int) []byte {
	var c coder
	c.open(buf, FrameReady)
	c.int(&edge)
	frame, _ := c.close() // an int always encodes
	return frame
}

// AppendStats appends a length-prefixed stats frame.
func AppendStats(buf []byte, edge int, s Stats) []byte {
	var c coder
	c.open(buf, FrameStats)
	c.int(&edge)
	s.code(&c)
	frame, _ := c.close() // integers always encode
	return frame
}

// control starts decoding a control frame body whose type must be t.
func control(body []byte, t byte, name string) coder {
	c := coder{mode: decode, b: body}
	var got byte
	if c.u8(&got); c.err == nil && got != t {
		c.fail(fmt.Errorf("wire: expected %s frame, got type 0x%02x", name, got))
	}
	return c
}

// DecodeHello decodes a hello frame body (type byte included).
func DecodeHello(body []byte) (Hello, error) {
	c := control(body, FrameHello, "hello")
	var h Hello
	h.code(&c)
	if err := c.finish(); err != nil {
		return Hello{}, err
	}
	return h, nil
}

// DecodeReady decodes a ready frame body, returning the edge index.
func DecodeReady(body []byte) (int, error) {
	c := control(body, FrameReady, "ready")
	var edge int
	c.int(&edge)
	if err := c.finish(); err != nil {
		return 0, err
	}
	return edge, nil
}

// DecodeStats decodes a stats frame body.
func DecodeStats(body []byte) (int, Stats, error) {
	c := control(body, FrameStats, "stats")
	var edge int
	var s Stats
	c.int(&edge)
	s.code(&c)
	if err := c.finish(); err != nil {
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
