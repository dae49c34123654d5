package wire

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Reap eagerly expires idle connections instead of waiting for the
// next Get.
func (p *ConnPool) Reap() {
	p.mu.Lock()
	p.reapLocked()
	n := len(p.idle)
	p.mu.Unlock()
	p.m.idle.Set(float64(n))
}

// Stats returns a snapshot of the cumulative counters plus the current
// occupancy.
func (p *ConnPool) Stats() (PoolStats, int, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats, p.active, len(p.idle)
}

// fakeConn is a net.Conn stub that records Close.
type fakeConn struct {
	net.Conn
	closed atomic.Bool
}

func (c *fakeConn) Close() error { c.closed.Store(true); return nil }

func (c *fakeConn) Write(b []byte) (int, error) { return len(b), nil }

func newFakeDialer() (Dialer, *[]*fakeConn, *sync.Mutex) {
	var mu sync.Mutex
	conns := &[]*fakeConn{}
	return func() (net.Conn, error) {
		c := &fakeConn{}
		mu.Lock()
		*conns = append(*conns, c)
		mu.Unlock()
		return c, nil
	}, conns, &mu
}

func TestPoolReuseAndIdleReaping(t *testing.T) {
	dial, conns, mu := newFakeDialer()
	p := NewConnPool(dial, PoolConfig{MaxActive: 4, IdleTimeout: time.Hour})
	now := time.Unix(1000, 0)
	p.now = func() time.Time { return now }

	c1, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	p.Put(c1, false)
	c2, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("idle connection not reused")
	}
	st, active, idle := p.Stats()
	if st.Dials != 1 || st.Hits != 1 || active != 1 || idle != 0 {
		t.Fatalf("after reuse: stats=%+v active=%d idle=%d", st, active, idle)
	}

	// Park it and advance past the idle timeout: Reap must close it.
	p.Put(c2, false)
	now = now.Add(2 * time.Hour)
	p.Reap()
	mu.Lock()
	closed := (*conns)[0].closed.Load()
	mu.Unlock()
	if !closed {
		t.Fatal("expired idle connection not closed by Reap")
	}
	st, active, idle = p.Stats()
	if st.Reaped != 1 || active != 0 || idle != 0 {
		t.Fatalf("after reap: stats=%+v active=%d idle=%d", st, active, idle)
	}

	// Lazy expiry: park a conn, expire it, and Get must dial fresh
	// (closing the stale one on the way).
	c3, _ := p.Get()
	p.Put(c3, false)
	now = now.Add(2 * time.Hour)
	c4, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if c4 == c3 {
		t.Fatal("expired idle connection served by Get")
	}
	st, _, _ = p.Stats()
	if st.Reaped != 2 || st.Dials != 3 {
		t.Fatalf("after lazy expiry: stats=%+v", st)
	}
	p.Close()
}

func TestPoolMaxActiveBlocksAndWaitQueueFIFO(t *testing.T) {
	dial, _, _ := newFakeDialer()
	p := NewConnPool(dial, PoolConfig{MaxActive: 1, IdleTimeout: time.Hour})

	c1, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}

	// Two waiters join in order; each must be served FIFO as conns
	// return.
	type res struct {
		idx int
		c   net.Conn
	}
	results := make(chan res, 2)
	var started sync.WaitGroup
	for i := 0; i < 2; i++ {
		started.Add(1)
		go func(idx int) {
			// Serialize queue entry so FIFO order is deterministic.
			started.Done()
			c, err := p.Get()
			if err != nil {
				t.Errorf("waiter %d: %v", idx, err)
			}
			results <- res{idx, c}
		}(i)
		started.Wait()
		waitForWaiters(t, p, i+1)
	}

	select {
	case r := <-results:
		t.Fatalf("waiter %d returned before any Put", r.idx)
	case <-time.After(20 * time.Millisecond):
	}

	p.Put(c1, false)
	r1 := <-results
	if r1.idx != 0 {
		t.Fatalf("first Put served waiter %d, want 0 (FIFO)", r1.idx)
	}
	p.Put(r1.c, false)
	r2 := <-results
	if r2.idx != 1 {
		t.Fatalf("second Put served waiter %d, want 1", r2.idx)
	}
	st, active, _ := p.Stats()
	if st.Waits != 2 || active != 1 {
		t.Fatalf("stats=%+v active=%d", st, active)
	}
	p.Put(r2.c, false)
	p.Close()
}

// waitForWaiters polls until the pool has n queued waiters.
func waitForWaiters(t *testing.T, p *ConnPool, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		p.mu.Lock()
		got := len(p.waiters)
		p.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("pool never reached %d waiters", n)
}

func TestPoolBrokenPutTransfersSlotToWaiter(t *testing.T) {
	dial, conns, mu := newFakeDialer()
	p := NewConnPool(dial, PoolConfig{MaxActive: 1, IdleTimeout: time.Hour})
	c1, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan net.Conn, 1)
	go func() {
		c, err := p.Get()
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		got <- c
	}()
	waitForWaiters(t, p, 1)

	// Discarding the broken conn must hand the freed slot to the waiter,
	// which dials a fresh connection — the reuse-after-peer-restart path.
	p.Put(c1, true)
	c2 := <-got
	if c2 == c1 {
		t.Fatal("waiter received the broken connection")
	}
	mu.Lock()
	firstClosed := (*conns)[0].closed.Load()
	n := len(*conns)
	mu.Unlock()
	if !firstClosed {
		t.Fatal("broken connection not closed")
	}
	if n != 2 {
		t.Fatalf("dialed %d conns, want 2", n)
	}
	st, active, _ := p.Stats()
	if st.Discarded != 1 || active != 1 {
		t.Fatalf("stats=%+v active=%d", st, active)
	}
	p.Put(c2, false)
	p.Close()
}

func TestPoolReuseAfterPeerRestart(t *testing.T) {
	// Real sockets: dial a listener, kill it (peer restart), verify the
	// pool discards the broken conn and serves a fresh one against the
	// restarted listener.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	accepted := make(chan net.Conn, 16)
	serve := func(l net.Listener) {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}
	go serve(ln)

	p := NewConnPool(func() (net.Conn, error) { return net.Dial("tcp", addr) },
		PoolConfig{MaxActive: 2, IdleTimeout: time.Hour})
	c1, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	p.Put(c1, false)

	// Restart the peer: close its listener and every accepted conn.
	ln.Close()
	srv1 := <-accepted
	srv1.Close()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	defer ln2.Close()
	go serve(ln2)

	// The idle conn is stale. A write may succeed into the kernel
	// buffer, but a read sees the peer's FIN/RST. The bridge maps any
	// conn error to Put(broken); emulate that contract here.
	c2, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	c2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c2.Read(make([]byte, 1)); err == nil {
		t.Fatal("read on reset connection unexpectedly succeeded")
	}
	p.Put(c2, true)

	c3, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c3.Write([]byte("ping")); err != nil {
		t.Fatalf("write after restart: %v", err)
	}
	select {
	case srv2 := <-accepted:
		buf := make([]byte, 4)
		srv2.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := srv2.Read(buf); err != nil || string(buf) != "ping" {
			t.Fatalf("restarted peer read: %q err=%v", buf, err)
		}
		srv2.Close()
	case <-time.After(2 * time.Second):
		t.Fatal("restarted listener never accepted the fresh dial")
	}
	st, _, _ := p.Stats()
	if st.Discarded != 1 || st.Dials != 2 {
		t.Fatalf("stats=%+v, want 1 discard and 2 dials", st)
	}
	p.Put(c3, false)
	p.Close()
}

func TestPoolClose(t *testing.T) {
	dial, conns, mu := newFakeDialer()
	p := NewConnPool(dial, PoolConfig{MaxActive: 1, IdleTimeout: time.Hour})
	c1, _ := p.Get()
	errs := make(chan error, 1)
	go func() {
		_, err := p.Get()
		errs <- err
	}()
	waitForWaiters(t, p, 1)
	p.Close()
	if err := <-errs; !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("waiter after Close: %v, want ErrPoolClosed", err)
	}
	if _, err := p.Get(); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Get after Close: %v", err)
	}
	p.Put(c1, false) // late Put must close the conn, not park it
	mu.Lock()
	closed := (*conns)[0].closed.Load()
	mu.Unlock()
	if !closed {
		t.Fatal("connection put after Close was not closed")
	}
}
