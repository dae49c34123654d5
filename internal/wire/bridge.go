package wire

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
)

// outFrame is one unit of the per-peer send queue: a protocol message,
// an injected reset marker, a raw pre-encoded control frame, or a flush
// barrier.
type outFrame struct {
	msg   Message
	raw   []byte        // pre-encoded control frame (hello-less: ready/stats)
	reset bool          // orderly-close the current connection after prior frames
	done  chan struct{} // flush barrier: closed once every prior frame is on the wire
}

// PeerConfig tunes one Peer.
type PeerConfig struct {
	// QueueLen bounds the send queue; <= 0 means 64. A full queue blocks
	// Send — the backpressure that replaces the in-process fabric's
	// buffered mailboxes.
	QueueLen int
	// Release is called with each protocol message after its bytes are
	// on the wire (or after the message is dropped by a reset already
	// queued ahead of it — it never is: resets only close the carrying
	// connection, frames are never discarded). It returns payload
	// structs and vectors to the sending runtime's pools.
	Release func(Message)
	// MaxRetries bounds redials when a write fails mid-run; <= 0 means
	// 3. Retrying re-encodes onto a fresh connection; per-link order is
	// preserved because the single sender goroutine never reorders.
	MaxRetries int
}

// Peer owns the ordered, bounded send path to one remote runtime. All
// frames to that runtime flow through one FIFO queue drained by one
// sender goroutine, so per-directed-link order — the property the
// determinism contract needs — holds no matter how many actors send
// concurrently. The goroutine holds a pooled connection only while the
// queue is non-empty; it flushes and returns it when idle, letting the
// pool's idle reaping and max-active accounting see real usage.
type Peer struct {
	pool *ConnPool
	cfg  PeerConfig
	q    chan outFrame
	wg   sync.WaitGroup
	once sync.Once
	m    *peerMetrics

	// sender-goroutine state
	conn net.Conn
	enc  coder       // gather mode: vectors are cut out of buf
	buf  []byte      // the current frame's bytes around its cuts
	segs net.Buffers // one write's segments; wv is the copy WriteTo consumes
	wv   net.Buffers
}

// NewPeer starts the sender goroutine for one remote runtime.
func NewPeer(pool *ConnPool, cfg PeerConfig) *Peer {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 64
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 3
	}
	if cfg.Release == nil {
		cfg.Release = func(Message) {}
	}
	p := &Peer{pool: pool, cfg: cfg, q: make(chan outFrame, cfg.QueueLen), m: newPeerMetrics(),
		enc: coder{gather: true}}
	p.wg.Add(1)
	go p.run()
	return p
}

// Send enqueues one protocol message, blocking when the queue is full
// (backpressure). Ownership of the payload transfers to the Peer, which
// releases it once the bytes are written.
func (p *Peer) Send(m Message) {
	p.q <- outFrame{msg: m}
	p.m.queuePeak.SetMax(float64(len(p.q)))
}

// SendRaw enqueues a pre-encoded control frame (ready/stats). The slice
// must not be reused by the caller.
func (p *Peer) SendRaw(frame []byte) {
	p.q <- outFrame{raw: frame}
}

// Reset enqueues an injected-fault marker: every frame queued before it
// is written, then the carrying connection is flushed and closed
// orderly (FIN, not RST), so the receiver sees a clean stream end and
// must re-accept a dial. Frames queued after the reset go out on a
// fresh connection. This realises a chaos "drop" decision at the socket
// layer without ever losing a counted frame.
func (p *Peer) Reset() {
	p.q <- outFrame{reset: true}
	p.m.resets.Inc()
}

// Flush blocks until every frame enqueued before it is on the wire.
func (p *Peer) Flush() {
	done := make(chan struct{})
	p.q <- outFrame{done: done}
	<-done
}

// Close flushes and stops the sender goroutine. Safe to call once; no
// Send/SendRaw/Reset/Flush may race with or follow it.
func (p *Peer) Close() {
	p.once.Do(func() {
		close(p.q)
		p.wg.Wait()
	})
}

func (p *Peer) run() {
	defer p.wg.Done()
	for f := range p.q {
		switch {
		case f.done != nil:
			close(f.done)
		case f.reset:
			p.dropConn()
		default:
			p.writeFrame(f)
		}
		if len(p.q) == 0 {
			p.parkConn()
		}
	}
	p.parkConn()
}

// dropConn orderly-closes the held connection (if any); the next frame
// dials afresh through the pool.
func (p *Peer) dropConn() {
	if p.conn == nil {
		// No connection in hand: take one and close it so the receiver
		// observes a real reset even across idle gaps.
		c, err := p.pool.Get()
		if err != nil {
			return
		}
		p.conn = c
	}
	p.conn.Close()
	p.conn = nil
	p.pool.Forget()
}

// parkConn returns the held connection to the pool.
func (p *Peer) parkConn() {
	if p.conn != nil {
		p.pool.Put(p.conn, false)
		p.conn = nil
	}
}

// writeFrame encodes and writes one frame, redialing on write errors up
// to MaxRetries. The payload is released only after a successful write;
// a frame that exhausts retries is released too (the run is already
// lost at that point — the error is logged, not swallowed silently).
//
// A protocol frame is gather-encoded: p.buf receives the bytes around
// the payload's float64 vectors and the vectors themselves go to the
// kernel from the payload's own memory, which is why the release must
// stay behind the write.
func (p *Peer) writeFrame(f outFrame) {
	head, cuts := f.raw, []vecCut(nil)
	if head == nil {
		defer p.cfg.Release(f.msg)
		var err error
		head, err = p.enc.message(p.buf[:0], &f.msg)
		if err != nil {
			log.Printf("wire: dropping unencodable frame: %v", err)
			return
		}
		p.buf, cuts = head, p.enc.cuts
	}
	for attempt := 0; ; attempt++ {
		if p.conn == nil {
			c, err := p.pool.Get()
			if err != nil {
				log.Printf("wire: send failed, no connection: %v", err)
				return
			}
			p.conn = c
		}
		n, err := p.writeOnce(head, cuts)
		if err == nil {
			p.m.framesSent.Inc()
			p.m.bytesSent.Add(n)
			return
		}
		p.conn.Close()
		p.conn = nil
		p.pool.Forget()
		if attempt >= p.cfg.MaxRetries {
			log.Printf("wire: send failed after %d retries: %v", attempt, err)
			return
		}
		p.m.retries.Inc()
	}
}

// writeOnce writes the whole frame to the held connection: head alone
// when the coder set no vector aside, else head split at each cut with
// the aliased vector between, as one vectored write. WriteTo consumes the
// net.Buffers it is called on, so every attempt lays the segments out
// again (into the same backing array).
func (p *Peer) writeOnce(head []byte, cuts []vecCut) (int64, error) {
	if len(cuts) == 0 {
		n, err := p.conn.Write(head)
		return int64(n), err
	}
	p.segs = p.segs[:0]
	at := 0
	for _, c := range cuts {
		p.segs = append(p.segs, head[at:c.off], c.data)
		at = c.off
	}
	p.segs = append(p.segs, head[at:])
	p.wv = p.segs
	return p.wv.WriteTo(p.conn)
}

// ListenerConfig tunes one Listener.
type ListenerConfig struct {
	// Fingerprint must match every hello; a mismatch closes the
	// connection and surfaces on OnError.
	Fingerprint uint64
	// MaxFrame bounds frame bodies; <= 0 means DefaultMaxFrame.
	MaxFrame int
	// Alloc provides payload vectors for decoded messages.
	Alloc AllocFunc
	// Free releases vectors of partially decoded (failed) messages.
	Free func([]float64)
	// OnMessage delivers each decoded protocol message in connection
	// order. It must not block indefinitely: it feeds actor mailboxes
	// sized for the protocol's fan-out.
	OnMessage func(Message)
	// OnHello observes each accepted handshake.
	OnHello func(Hello)
	// OnReady and OnStats observe control frames.
	OnReady func(edge int)
	OnStats func(edge int, s Stats)
	// OnError observes per-connection protocol errors (bad hello,
	// fingerprint mismatch, malformed frame). Orderly stream ends —
	// clean EOF or a cut mid-frame, which is how injected resets
	// manifest — are not errors.
	OnError func(err error)
}

// Listener accepts connections from peer runtimes, verifies their hello
// against the run fingerprint, and pumps decoded frames to callbacks.
// Each connection gets its own goroutine; per-connection frame order is
// preserved, which together with the sender side's single queue gives
// per-directed-link FIFO — cross-link interleaving is free, exactly as
// in the in-process fabric.
type Listener struct {
	cfg ListenerConfig
	ln  net.Listener
	wg  sync.WaitGroup
	m   *listenerMetrics

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// NewListener starts accepting on ln.
func NewListener(ln net.Listener, cfg ListenerConfig) *Listener {
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.Alloc == nil {
		cfg.Alloc = func(d int) []float64 { return make([]float64, d) }
	}
	if cfg.OnError == nil {
		cfg.OnError = func(err error) { log.Printf("wire: %v", err) }
	}
	l := &Listener{cfg: cfg, ln: ln, m: newListenerMetrics(), conns: make(map[net.Conn]struct{})}
	l.wg.Add(1)
	go l.acceptLoop()
	return l
}

// Close stops accepting and closes open connections, then waits for the
// connection goroutines to drain.
func (l *Listener) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.wg.Wait()
		return
	}
	l.closed = true
	conns := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	l.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	l.wg.Wait()
}

func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	for {
		c, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			c.Close()
			return
		}
		l.conns[c] = struct{}{}
		l.mu.Unlock()
		l.m.accepts.Inc()
		l.wg.Add(1)
		go l.serveConn(c)
	}
}

func (l *Listener) forget(c net.Conn) {
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
}

func (l *Listener) serveConn(c net.Conn) {
	defer l.wg.Done()
	defer l.forget(c)
	defer c.Close()
	fr := NewFrameReader(c, l.cfg.MaxFrame)

	// The first frame must be a hello matching the run fingerprint.
	body, err := fr.Next()
	if err != nil {
		if !streamEnd(err) {
			l.cfg.OnError(fmt.Errorf("reading hello from %s: %w", c.RemoteAddr(), err))
		}
		return
	}
	h, err := DecodeHello(body)
	if err != nil {
		l.cfg.OnError(fmt.Errorf("bad hello from %s: %w", c.RemoteAddr(), err))
		l.m.badFrames.Inc()
		return
	}
	if h.Fingerprint != l.cfg.Fingerprint {
		l.cfg.OnError(fmt.Errorf("fingerprint mismatch from %s: got %x want %x — differing run configs",
			c.RemoteAddr(), h.Fingerprint, l.cfg.Fingerprint))
		return
	}
	if l.cfg.OnHello != nil {
		l.cfg.OnHello(h)
	}

	for {
		body, err := fr.Next()
		if err != nil {
			// A clean EOF between frames or a cut mid-frame is the
			// normal end of a connection: peers close orderly on
			// shutdown, and injected resets close orderly after a
			// flush. A partial frame is discarded by construction —
			// FrameReader hands out only complete bodies.
			if !streamEnd(err) {
				l.cfg.OnError(fmt.Errorf("reading frame from %s: %w", c.RemoteAddr(), err))
			}
			return
		}
		l.m.framesRecv.Inc()
		l.m.bytesRecv.Add(int64(len(body) + 4))
		switch body[0] {
		case FrameReady:
			edge, err := DecodeReady(body)
			if err != nil {
				l.badFrame(c, err)
				return
			}
			if l.cfg.OnReady != nil {
				l.cfg.OnReady(edge)
			}
		case FrameStats:
			edge, s, err := DecodeStats(body)
			if err != nil {
				l.badFrame(c, err)
				return
			}
			if l.cfg.OnStats != nil {
				l.cfg.OnStats(edge, s)
			}
		case FrameHello:
			l.badFrame(c, errors.New("wire: duplicate hello"))
			return
		default:
			m, err := DecodeMessage(body, l.cfg.Alloc, l.cfg.Free)
			if err != nil {
				l.badFrame(c, err)
				return
			}
			l.cfg.OnMessage(m)
		}
	}
}

func (l *Listener) badFrame(c net.Conn, err error) {
	l.m.badFrames.Inc()
	l.cfg.OnError(fmt.Errorf("malformed frame from %s: %w", c.RemoteAddr(), err))
}

// streamEnd reports whether err is an orderly or abrupt end of stream
// rather than a protocol violation.
func streamEnd(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed)
}
