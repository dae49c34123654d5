package wire

import (
	"net"
	"testing"
	"time"
)

func TestPoolReuseAfterPeerRestart(t *testing.T) {
	// Real sockets: dial a listener, kill it (peer restart), verify the
	// pool keeps serving the live connection until it is dropped as
	// broken, then dials a fresh one against the restarted listener.
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

	var cd countingDialer
	p := NewConnPool(cd.wrap(func() (net.Conn, error) { return net.Dial("tcp", addr) }), PoolConfig{})
	c1, err := p.get()
	if err != nil {
		t.Fatal(err)
	}

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

	// The live conn is stale. A write may succeed into the kernel
	// buffer, but a read sees the peer's FIN/RST. The Peer's sender maps
	// any conn error to drop; emulate that contract here.
	c2, err := p.get()
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 {
		t.Fatal("live connection not kept between gets")
	}
	c2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c2.Read(make([]byte, 1)); err == nil {
		t.Fatal("read on reset connection unexpectedly succeeded")
	}
	p.drop()
	if dials, closes := cd.counts(); dials != 1 || closes != 1 {
		t.Fatalf("after drop: %d dials and %d closes, want 1 and 1", dials, closes)
	}

	c3, err := p.get()
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c2 {
		t.Fatal("dropped connection served again")
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
	if dials, closes := cd.counts(); dials != 2 || closes != 1 {
		t.Fatalf("%d dials and %d closes, want 2 dials and 1 discard", dials, closes)
	}
	p.Close()
	if _, closes := cd.counts(); closes != 2 {
		t.Fatal("Close left the live connection open")
	}
}
