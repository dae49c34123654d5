package wire

import (
	"errors"
	"net"
	"sync"
	"time"
)

// ErrPoolClosed is returned by Get after Close.
var ErrPoolClosed = errors.New("wire: connection pool closed")

// Dialer opens a ready-to-use connection to one peer. The dist runtime
// supplies a closure that dials TCP and performs the hello handshake, so
// the pool never needs to know about addresses or identity.
type Dialer func() (net.Conn, error)

// PoolConfig tunes one per-peer ConnPool.
type PoolConfig struct {
	// MaxActive caps connections handed out plus idle; <= 0 means 2.
	// When the cap is reached Get blocks on a FIFO wait queue until a
	// connection is returned or a slot frees up.
	MaxActive int
	// IdleTimeout expires idle connections; <= 0 means 30s. Expiry is
	// lazy (checked on Get/Put) plus available explicitly via Reap.
	IdleTimeout time.Duration
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.MaxActive <= 0 {
		c.MaxActive = 2
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 30 * time.Second
	}
	return c
}

// PoolStats are cumulative pool counters, readable at any time.
type PoolStats struct {
	Dials      int64 // successful dials
	DialErrors int64 // failed dials
	Hits       int64 // Gets served from the idle list
	Waits      int64 // Gets that blocked on the wait queue
	Reaped     int64 // idle connections closed by expiry
	Discarded  int64 // connections dropped as broken
}

type idleConn struct {
	c     net.Conn
	since time.Time // when it went idle
}

// waiter is one blocked Get. It receives a live connection, or nil to
// signal that the active slot transferred to it and it must dial, or is
// abandoned (channel never written) only if the pool closes — closing
// is signalled by closing the channel.
type waiter struct {
	ch chan net.Conn
}

// ConnPool is a per-peer dialing pool with idle reaping, a max-active
// limit, and a FIFO wait queue — the contract ROADMAP.md specifies
// (modeled on gkit's resource list): Get prefers the most recently idle
// connection, dials when under the cap, and otherwise blocks in arrival
// order; Put returns a connection for reuse or discards a broken one,
// waking the longest waiter either with the returned connection or with
// the freed dial slot. now is replaceable so tests can drive expiry
// without sleeping.
type ConnPool struct {
	mu      sync.Mutex
	cfg     PoolConfig
	dial    Dialer
	idle    []idleConn // LIFO: newest at the end
	waiters []*waiter  // FIFO: oldest at index 0
	active  int        // dialed-or-idle connections counted against MaxActive
	closed  bool
	stats   PoolStats
	now     func() time.Time
	m       *poolMetrics
}

// NewConnPool returns a pool dialing with d under cfg.
func NewConnPool(d Dialer, cfg PoolConfig) *ConnPool {
	return &ConnPool{cfg: cfg.withDefaults(), dial: d, now: time.Now, m: newPoolMetrics()}
}

// Get returns a connection: an unexpired idle one if available, a fresh
// dial if under MaxActive, else it blocks until Put or Close. Expired
// idle connections found on the way are closed and skipped.
func (p *ConnPool) Get() (net.Conn, error) {
	p.mu.Lock()
	for {
		if p.closed {
			p.mu.Unlock()
			return nil, ErrPoolClosed
		}
		if c, ok := p.popIdleLocked(); ok {
			p.stats.Hits++
			p.mu.Unlock()
			return c, nil
		}
		if p.active < p.cfg.MaxActive {
			// Reserve the slot before dialing so concurrent Gets cannot
			// overshoot the cap while the dial is in flight.
			p.active++
			p.mu.Unlock()
			return p.dialSlot()
		}
		// At capacity: join the wait queue.
		w := &waiter{ch: make(chan net.Conn, 1)}
		p.waiters = append(p.waiters, w)
		p.stats.Waits++
		p.m.waiters.SetMax(float64(len(p.waiters)))
		p.mu.Unlock()
		c, ok := <-w.ch
		if !ok {
			return nil, ErrPoolClosed
		}
		if c != nil {
			return c, nil
		}
		// The slot transferred to us; dial on it.
		return p.dialSlot()
	}
}

// dialSlot dials while holding one reserved active slot; on failure the
// slot is released (or handed to the next waiter).
func (p *ConnPool) dialSlot() (net.Conn, error) {
	c, err := p.dial()
	p.mu.Lock()
	if err != nil {
		p.stats.DialErrors++
		p.releaseSlotLocked()
		p.mu.Unlock()
		p.m.dialErrors.Inc()
		return nil, err
	}
	if p.closed {
		p.releaseSlotLocked()
		p.mu.Unlock()
		c.Close()
		return nil, ErrPoolClosed
	}
	p.stats.Dials++
	p.mu.Unlock()
	p.m.dials.Inc()
	p.m.open.Add(1)
	return c, nil
}

// Put returns a connection. broken discards it (closing it) and frees
// its slot; otherwise it is handed to the longest waiter or parked
// idle. Putting after Close closes the connection.
func (p *ConnPool) Put(c net.Conn, broken bool) {
	p.mu.Lock()
	if p.closed {
		p.releaseSlotLocked()
		p.mu.Unlock()
		c.Close()
		p.m.open.Add(-1)
		return
	}
	if broken {
		p.stats.Discarded++
		p.releaseSlotLocked()
		p.mu.Unlock()
		c.Close()
		p.m.open.Add(-1)
		return
	}
	if w := p.popWaiterLocked(); w != nil {
		p.mu.Unlock()
		w.ch <- c
		return
	}
	p.idle = append(p.idle, idleConn{c: c, since: p.now()})
	p.reapLocked()
	n := len(p.idle)
	p.mu.Unlock()
	p.m.idle.Set(float64(n))
}

// Forget tells the pool a connection it handed out was closed by the
// caller (e.g. an orderly reset): the slot is freed without a second
// Close.
func (p *ConnPool) Forget() {
	p.mu.Lock()
	p.stats.Discarded++
	p.releaseSlotLocked()
	p.mu.Unlock()
	p.m.open.Add(-1)
}

// releaseSlotLocked frees one active slot, transferring it to the
// longest waiter if any (who will dial).
func (p *ConnPool) releaseSlotLocked() {
	if w := p.popWaiterLocked(); w != nil {
		w.ch <- nil // slot stays reserved for the waiter's dial
		return
	}
	p.active--
}

func (p *ConnPool) popWaiterLocked() *waiter {
	if len(p.waiters) == 0 {
		return nil
	}
	w := p.waiters[0]
	copy(p.waiters, p.waiters[1:])
	p.waiters = p.waiters[:len(p.waiters)-1]
	return w
}

// popIdleLocked returns the most recently idle unexpired connection,
// reaping expired ones it passes over.
func (p *ConnPool) popIdleLocked() (net.Conn, bool) {
	cutoff := p.now().Add(-p.cfg.IdleTimeout)
	for len(p.idle) > 0 {
		ic := p.idle[len(p.idle)-1]
		p.idle = p.idle[:len(p.idle)-1]
		if ic.since.Before(cutoff) {
			p.reapConnLocked(ic)
			continue
		}
		return ic.c, true
	}
	return nil, false
}

// reapLocked closes idle connections past IdleTimeout (they sit at the
// front of the LIFO slice, oldest first).
func (p *ConnPool) reapLocked() {
	cutoff := p.now().Add(-p.cfg.IdleTimeout)
	i := 0
	for ; i < len(p.idle) && p.idle[i].since.Before(cutoff); i++ {
		p.reapConnLocked(p.idle[i])
	}
	if i > 0 {
		p.idle = append(p.idle[:0], p.idle[i:]...)
	}
}

func (p *ConnPool) reapConnLocked(ic idleConn) {
	ic.c.Close()
	p.stats.Reaped++
	p.active--
	p.m.reaped.Inc()
	p.m.open.Add(-1)
}

// Close closes idle connections and fails all waiters and future Gets.
// Connections currently handed out are not touched; their Put will
// close them.
func (p *ConnPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	waiters := p.waiters
	p.waiters = nil
	p.active -= len(idle)
	p.mu.Unlock()
	for _, ic := range idle {
		ic.c.Close()
		p.m.open.Add(-1)
	}
	for _, w := range waiters {
		close(w.ch)
	}
	p.m.idle.Set(0)
}
