package wire

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/quant"
	"repro/internal/rng"
)

// startListener binds a loopback listener with collecting callbacks.
func startListener(t *testing.T, fp uint64) (*Listener, string, *recorder) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	l := NewListener(ln, ListenerConfig{
		Fingerprint: fp,
		OnMessage:   rec.onMessage,
		OnHello:     rec.onHello,
		OnReady:     rec.onReady,
		OnStats:     rec.onStats,
		OnError:     rec.onError,
	})
	t.Cleanup(l.Close)
	return l, ln.Addr().String(), rec
}

type recorder struct {
	mu     sync.Mutex
	msgs   []Message
	hellos []Hello
	readys []int
	stats  []Stats
	errs   []error
}

func (r *recorder) onMessage(m Message)    { r.mu.Lock(); r.msgs = append(r.msgs, m); r.mu.Unlock() }
func (r *recorder) onHello(h Hello)        { r.mu.Lock(); r.hellos = append(r.hellos, h); r.mu.Unlock() }
func (r *recorder) onReady(e int)          { r.mu.Lock(); r.readys = append(r.readys, e); r.mu.Unlock() }
func (r *recorder) onStats(e int, s Stats) { r.mu.Lock(); r.stats = append(r.stats, s); r.mu.Unlock() }
func (r *recorder) onError(err error)      { r.mu.Lock(); r.errs = append(r.errs, err); r.mu.Unlock() }
func (r *recorder) snapshot() (int, int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs), len(r.hellos), len(r.errs)
}

func (r *recorder) waitMsgs(t *testing.T, n int) []Message {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		r.mu.Lock()
		if len(r.msgs) >= n {
			out := append([]Message(nil), r.msgs...)
			r.mu.Unlock()
			return out
		}
		r.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t.Fatalf("listener received %d messages, want %d (errs: %v)", len(r.msgs), n, r.errs)
	return nil
}

// helloDialer dials addr and performs the hello handshake, the same
// closure shape the dist runtime hands to its pools.
func helloDialer(addr string, h Hello) Dialer {
	return func() (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		frame, err := AppendHello(nil, h)
		if err != nil {
			c.Close()
			return nil, err
		}
		if _, err := c.Write(frame); err != nil {
			c.Close()
			return nil, err
		}
		return c, nil
	}
}

func TestPeerDeliversInOrder(t *testing.T) {
	const fp = 0xABCD
	_, addr, rec := startListener(t, fp)
	pool := NewConnPool(helloDialer(addr, Hello{Role: RoleEdge, Edge: 1, Fingerprint: fp}),
		PoolConfig{})
	defer pool.Close()

	var released []int
	var relMu sync.Mutex
	peer := NewPeer(pool, PeerConfig{Release: func(m Message) {
		relMu.Lock()
		released = append(released, m.Round)
		relMu.Unlock()
	}})

	const n = 50
	for i := 0; i < n; i++ {
		peer.Send(Message{
			From: NodeID{Kind: Edge, Index: 1}, To: NodeID{Kind: Cloud}, Round: i,
			Payload: &LossReply{Client: i, Loss: float64(i)},
		})
	}
	peer.Flush()
	msgs := rec.waitMsgs(t, n)
	for i, m := range msgs {
		if m.Round != i || m.Payload.(*LossReply).Client != i {
			t.Fatalf("message %d out of order: %+v", i, m)
		}
	}
	relMu.Lock()
	defer relMu.Unlock()
	if len(released) != n {
		t.Fatalf("released %d payloads, want %d", len(released), n)
	}
	for i, r := range released {
		if r != i {
			t.Fatalf("release order broken at %d: %d", i, r)
		}
	}
	peer.Close()
}

func TestPeerResetNeverDropsQueuedFrames(t *testing.T) {
	// Frames queued before a reset must all arrive: the reset closes the
	// connection orderly AFTER flushing, and later frames ride a fresh
	// connection. The listener sees >= 2 hellos (one per connection).
	const fp = 0x1234
	_, addr, rec := startListener(t, fp)
	pool := NewConnPool(helloDialer(addr, Hello{Role: RoleCloud, Fingerprint: fp}),
		PoolConfig{})
	defer pool.Close()
	peer := NewPeer(pool, PeerConfig{})

	const before, after = 20, 20
	for i := 0; i < before; i++ {
		peer.Send(Message{From: NodeID{Kind: Cloud}, To: NodeID{Kind: Edge, Index: 0}, Round: i,
			Payload: &LossReply{Client: i}})
	}
	peer.Reset()
	for i := before; i < before+after; i++ {
		peer.Send(Message{From: NodeID{Kind: Cloud}, To: NodeID{Kind: Edge, Index: 0}, Round: i,
			Payload: &LossReply{Client: i}})
	}
	peer.Flush()
	// Every frame must arrive exactly once, and frames sharing a
	// connection must stay in order. Cross-connection dispatch order is
	// unsynchronized (two reader goroutines), which the protocol's
	// index-keyed fan-ins tolerate — but nothing may be lost.
	msgs := rec.waitMsgs(t, before+after)
	seen := make([]int, before+after)
	lastPre, lastPost := -1, -1
	for _, m := range msgs {
		seen[m.Round]++
		if m.Round < before {
			if m.Round < lastPre {
				t.Fatalf("pre-reset frames reordered: %d after %d", m.Round, lastPre)
			}
			lastPre = m.Round
		} else {
			if m.Round < lastPost {
				t.Fatalf("post-reset frames reordered: %d after %d", m.Round, lastPost)
			}
			lastPost = m.Round
		}
	}
	for r, n := range seen {
		if n != 1 {
			t.Fatalf("round %d arrived %d times, want exactly once", r, n)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, hellos, errs := rec.snapshot()
		if hellos >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("want >= 2 connections after reset, saw %d hellos (%d errs)", hellos, errs)
		}
		time.Sleep(time.Millisecond)
	}
	peer.Close()
}

func TestPeerBackpressureBlocksSend(t *testing.T) {
	// The sender holds the first frame while its dial waits on the gate,
	// so the queue takes queueLen more and the next Send blocks. Opening
	// the gate drains every frame, in order, over the one connection.
	const fp = 0x3131
	_, addr, rec := startListener(t, fp)
	dial := helloDialer(addr, Hello{Role: RoleCloud, Fingerprint: fp})
	gate := make(chan struct{})
	pool := NewConnPool(func() (net.Conn, error) {
		<-gate
		return dial()
	}, PoolConfig{})
	defer pool.Close()
	peer := NewPeer(pool, PeerConfig{})
	defer peer.Close()

	const n = queueLen + 6
	var sent atomic.Int64
	done := make(chan struct{})
	go func() {
		for i := 0; i < n; i++ {
			peer.Send(Message{From: NodeID{Kind: Cloud}, To: NodeID{Kind: Edge, Index: 0}, Round: i,
				Payload: &LossReply{Client: i}})
			sent.Add(1)
		}
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sent.Load() < queueLen+1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(30 * time.Millisecond)
	if got := sent.Load(); got != queueLen+1 {
		t.Fatalf("%d sends returned before the gated dial, want %d (one in the sender, %d queued)", got, queueLen+1, queueLen)
	}
	close(gate)
	<-done
	peer.Flush()
	msgs := rec.waitMsgs(t, n)
	for i, m := range msgs {
		if m.Round != i {
			t.Fatalf("message %d arrived as round %d", i, m.Round)
		}
	}
	if _, hellos, _ := rec.snapshot(); hellos != 1 {
		t.Fatalf("%d connections, want 1", hellos)
	}
}

// countingDialer counts the dials of the dialers it wraps and the closes
// of the connections they handed out.
type countingDialer struct {
	mu            sync.Mutex
	dials, closes int
}

type countedConn struct {
	net.Conn
	cd *countingDialer
}

func (c *countedConn) Close() error {
	c.cd.mu.Lock()
	c.cd.closes++
	c.cd.mu.Unlock()
	return c.Conn.Close()
}

func (cd *countingDialer) wrap(d Dialer) Dialer {
	return func() (net.Conn, error) {
		c, err := d()
		if err != nil {
			return nil, err
		}
		cd.mu.Lock()
		cd.dials++
		cd.mu.Unlock()
		return &countedConn{Conn: c, cd: cd}, nil
	}
}

func (cd *countingDialer) counts() (dials, closes int) {
	cd.mu.Lock()
	defer cd.mu.Unlock()
	return cd.dials, cd.closes
}

// open reports how many connections l is serving.
func (l *Listener) open() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

func TestPeerKeepsOneConnection(t *testing.T) {
	const fp = 0x5151
	l, addr, rec := startListener(t, fp)
	var cd countingDialer
	pool := NewConnPool(cd.wrap(helloDialer(addr, Hello{Role: RoleCloud, Fingerprint: fp})), PoolConfig{})
	peer := NewPeer(pool, PeerConfig{})
	want := func(stage string, dials, closes, hellos int) {
		t.Helper()
		d, c := cd.counts()
		_, h, errs := rec.snapshot()
		if d != dials || c != closes || h != hellos || errs != 0 {
			t.Fatalf("%s: %d dials, %d closes, %d hellos, %d errors; want %d, %d, %d and none",
				stage, d, c, h, errs, dials, closes, hellos)
		}
	}
	round := 0
	burst := func() {
		for i := 0; i < 5; i++ {
			peer.Send(Message{From: NodeID{Kind: Cloud}, To: NodeID{Kind: Edge, Index: 0}, Round: round,
				Payload: &LossReply{Client: round}})
			round++
		}
		peer.Flush()
		rec.waitMsgs(t, round)
	}

	peer.Reset()
	peer.Flush()
	want("reset before the first frame", 0, 0, 0)
	for i := 0; i < 3; i++ {
		burst()
		time.Sleep(20 * time.Millisecond) // an idle gap with the queue empty
	}
	want("bursts across idle gaps", 1, 0, 1)

	// A reset closes the live connection: the listener's reader sees the
	// stream end and lets go of it. The next frame dials once.
	peer.Reset()
	peer.Flush()
	want("reset of the live connection", 1, 1, 1)
	deadline := time.Now().Add(5 * time.Second)
	for l.open() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the listener never saw the reset connection end")
		}
		time.Sleep(time.Millisecond)
	}
	burst()
	want("first burst after the reset", 2, 1, 2)

	// Back-to-back resets: the second finds no live connection.
	peer.Reset()
	peer.Reset()
	peer.Flush()
	want("reset with no live connection", 2, 2, 2)
	burst()
	want("first burst after the second reset", 3, 2, 3)

	peer.Close()
	pool.Close()
	want("close", 3, 3, 3)
	msgs := rec.waitMsgs(t, round)
	for i, m := range msgs {
		if m.Round != i {
			t.Fatalf("message %d arrived as round %d", i, m.Round)
		}
	}
}

func TestListenerRejectsFingerprintMismatch(t *testing.T) {
	const fp = 0x77
	_, addr, rec := startListener(t, fp)
	dial := helloDialer(addr, Hello{Role: RoleEdge, Edge: 0, Fingerprint: fp + 1})
	c, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The listener must close the connection without delivering anything.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("listener kept a mismatched-fingerprint connection open")
	}
	msgs, _, errs := rec.snapshot()
	if msgs != 0 || errs == 0 {
		t.Fatalf("mismatch: %d msgs delivered, %d errors recorded", msgs, errs)
	}
}

func TestListenerControlFrames(t *testing.T) {
	const fp = 0x99
	_, addr, rec := startListener(t, fp)
	dial := helloDialer(addr, Hello{Role: RoleClientHost, Edge: 3, Addr: "x:1", Fingerprint: fp})
	c, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := AppendReady(nil, 3)
	buf = AppendStats(buf, 3, Stats{Sent: 42, Lost: 1})
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		rec.mu.Lock()
		ok := len(rec.readys) == 1 && len(rec.stats) == 1 && len(rec.hellos) == 1
		rec.mu.Unlock()
		if ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.readys) != 1 || rec.readys[0] != 3 {
		t.Fatalf("readys: %v", rec.readys)
	}
	if len(rec.stats) != 1 || rec.stats[0].Sent != 42 || rec.stats[0].Lost != 1 {
		t.Fatalf("stats: %+v", rec.stats)
	}
	if rec.hellos[0].Addr != "x:1" || rec.hellos[0].Edge != 3 {
		t.Fatalf("hello: %+v", rec.hellos[0])
	}
}

func TestPeerStreamPayloadSurvivesTransport(t *testing.T) {
	// End-to-end: a train request's rng stream crosses the socket with
	// its full generator state intact.
	const fp = 0x55
	_, addr, rec := startListener(t, fp)
	pool := NewConnPool(helloDialer(addr, Hello{Role: RoleCloud, Fingerprint: fp}),
		PoolConfig{})
	defer pool.Close()
	peer := NewPeer(pool, PeerConfig{})
	defer peer.Close()

	src := rng.New(2024).ChildN('t', 3)
	src.NormFloat64()
	want := *src
	peer.Send(Message{From: NodeID{Kind: Cloud}, To: NodeID{Kind: Client, Index: 1},
		Payload: &TrainReq{W: []float64{1, 2}, Steps: 5, Batch: 2, Eta: 0.01, Stream: *src, Client: 1}})
	peer.Flush()
	msgs := rec.waitMsgs(t, 1)
	got := msgs[0].Payload.(*TrainReq).Stream
	for i := 0; i < 32; i++ {
		if w, g := want.NormFloat64(), got.NormFloat64(); w != g {
			t.Fatalf("deviate %d diverges after transport", i)
		}
	}
}

// cutConn passes the first `left` bytes written to it through and fails
// the write that would go past them, like a connection dying mid-frame.
type cutConn struct {
	net.Conn
	left int
}

var errCut = errors.New("cutConn: connection cut")

func (c *cutConn) Write(b []byte) (int, error) {
	if len(b) <= c.left {
		c.left -= len(b)
		return c.Conn.Write(b)
	}
	n, _ := c.Conn.Write(b[:c.left])
	c.left = 0
	return n, errCut
}

// sampleFrames is one frame of each encoding the sender has: dense
// gather-written vectors and an 8-bit packed uplink with a dense iterate
// sum beside it.
func sampleFrames(d int) (dense, q8 Message) {
	dense = Message{From: NodeID{Kind: Edge, Index: 1}, To: NodeID{Kind: Cloud}, Bytes: int64(24 * d),
		Payload: &EdgeTrainReply{Slot: 1, WEdge: pinVec(d, 1), WChk: pinVec(d, 2), IterSum: pinVec(d, 3), IterCount: 4}}
	pack := func(seed uint64) *quant.Packed {
		p := quant.GetPacked()
		quant.Config{Bits: 8}.Pack(p, pinVec(d, float64(seed)), nil, rng.New(seed))
		return p
	}
	q8 = Message{From: NodeID{Kind: Client, Index: 2}, To: NodeID{Kind: Edge, Index: 1},
		Payload: &TrainReply{Client: 2, WFinalP: pack(5), WChkP: pack(6), IterSum: pinVec(d, 7)}}
	return dense, q8
}

// sameFrame reports whether got encodes to exactly want's frame — the
// bit-for-bit comparison of two messages, vectors included.
func sameFrame(t *testing.T, got, want Message) bool {
	t.Helper()
	return bytes.Equal(mustFrame(t, got), mustFrame(t, want))
}

func TestPeerRetriesAfterWriteError(t *testing.T) {
	const fp, d = 0x4242, 7850
	before := Message{From: NodeID{Kind: Edge, Index: 1}, To: NodeID{Kind: Cloud}, Round: 0,
		Payload: &LossReply{Client: 1, Loss: 0.5}}
	victim, _ := sampleFrames(d)
	victim.Round = 1
	after := before
	after.Round = 2
	after.Payload = &LossReply{Client: 2, Loss: 0.25}
	// The gathered frame's first segment ends where the first vector
	// starts: type + envelope (24) + slot (4) + presence (1) + length (4),
	// after the 4-byte prefix.
	const firstSeg = 4 + 24 + 4 + 1 + 4
	for _, c := range []struct {
		name string
		k    int // bytes of the victim frame the first connection carries
	}{
		{"inside the header", 10},
		{"at a segment boundary", firstSeg},
		{"inside a vector", firstSeg + 8*d/2 + 3},
		{"at the second vector's start", firstSeg + 8*d + 1 + 4},
	} {
		l, addr, rec := startListener(t, fp)
		var cd countingDialer
		dial := cd.wrap(helloDialer(addr, Hello{Role: RoleEdge, Edge: 1, Fingerprint: fp}))
		pool := NewConnPool(func() (net.Conn, error) {
			conn, err := dial()
			if dials, _ := cd.counts(); err != nil || dials > 1 {
				return conn, err
			}
			return &cutConn{Conn: conn, left: len(mustFrame(t, before)) + c.k}, nil
		}, PoolConfig{})
		released := make(map[int]int)
		var relMu sync.Mutex
		peer := NewPeer(pool, PeerConfig{Release: func(m Message) {
			relMu.Lock()
			released[m.Round]++
			relMu.Unlock()
		}})
		retries := peer.m.retries.Value()

		// The neighbour before rides the doomed connection and is
		// delivered from it; wait for it so that the two connections'
		// reader goroutines cannot reorder it against the retried frame.
		peer.Send(before)
		peer.Flush()
		rec.waitMsgs(t, 1)
		peer.Send(victim)
		peer.Send(after)
		peer.Flush()
		msgs := rec.waitMsgs(t, 3)
		peer.Close()
		// The cut connection was closed and one redial replaced it.
		if dials, closes := cd.counts(); dials != 2 || closes != 1 {
			t.Fatalf("%s: %d dials and %d closed connections, want 2 and 1", c.name, dials, closes)
		}
		pool.Close()
		if _, closes := cd.counts(); closes != 2 {
			t.Fatalf("%s: pool.Close left the live connection open", c.name)
		}

		for i, want := range []Message{before, victim, after} {
			if msgs[i].Round != i || !sameFrame(t, msgs[i], want) {
				t.Fatalf("%s: message %d (round %d) is out of order or differs from what was sent",
					c.name, i, msgs[i].Round)
			}
		}
		// Once the listener's connection goroutines have drained, a
		// duplicate or a delivered partial frame would have shown up.
		l.Close()
		if n, _, errs := rec.snapshot(); n != 3 || errs != 0 {
			t.Fatalf("%s: listener delivered %d messages with %d errors, want exactly 3 and none", c.name, n, errs)
		}
		relMu.Lock()
		if len(released) != 3 || released[0] != 1 || released[1] != 1 || released[2] != 1 {
			t.Fatalf("%s: releases per message %v, want one each", c.name, released)
		}
		relMu.Unlock()
		if got := peer.m.retries.Value() - retries; got != 1 {
			t.Fatalf("%s: %d retries, want 1", c.name, got)
		}
	}
}

// TestPeerByteAccounting: on a clean run the sender's byte counter, the
// receiver's and the frames' own sizes (prefix + body) agree, for the
// gather-written dense frame and the packed frame — so moving vectors
// out of the frame buffer did not move wire_bytes_sent.
func TestPeerByteAccounting(t *testing.T) {
	const fp, d = 0x6161, 7850
	l, addr, rec := startListener(t, fp)
	pool := NewConnPool(helloDialer(addr, Hello{Role: RoleEdge, Edge: 1, Fingerprint: fp}),
		PoolConfig{})
	peer := NewPeer(pool, PeerConfig{})
	sent, recv := peer.m.bytesSent.Value(), l.m.bytesRecv.Value()

	dense, q8 := sampleFrames(d)
	frames := []Message{dense, q8, {From: dense.From, To: dense.To, Payload: &LossReply{Loss: 1}}}
	var want int64
	for _, m := range frames {
		want += int64(len(mustFrame(t, m)))
		peer.Send(m)
	}
	peer.Flush()
	msgs := rec.waitMsgs(t, len(frames))
	for i, m := range frames {
		if !sameFrame(t, msgs[i], m) {
			t.Fatalf("frame %d arrived changed", i)
		}
	}
	peer.Close()
	pool.Close()
	l.Close()
	if s, r := peer.m.bytesSent.Value()-sent, l.m.bytesRecv.Value()-recv; s != want || r != want {
		t.Fatalf("%d bytes sent, %d received, frames total %d", s, r, want)
	}
}
