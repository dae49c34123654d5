package wire

import "net"

// Dialer opens a ready-to-use connection to one peer. The dist runtime
// supplies a closure that dials TCP and performs the hello handshake, so
// the transport never needs to know about addresses or identity.
type Dialer func() (net.Conn, error)

// PoolConfig has no fields. It remains only because the benchmark
// module's socket probe builds its peer with NewConnPool(d, PoolConfig{});
// it goes when that probe changes.
type PoolConfig struct{}

// ConnPool is the one redialing connection behind a Peer. The Peer's
// sender goroutine is its only user: it dials on the first frame, keeps
// the connection across idle gaps, and drops it after a write error or an
// injected reset, so that the next frame redials. The name is kept for
// the benchmark probe; nothing is pooled.
type ConnPool struct {
	dial Dialer
	conn net.Conn // the live connection, nil before the first dial and after a drop
	m    *poolMetrics
}

// NewConnPool returns the connection holder dialing with d.
func NewConnPool(d Dialer, _ PoolConfig) *ConnPool {
	return &ConnPool{dial: d, m: newPoolMetrics()}
}

// get returns the live connection, dialing one if there is none.
func (p *ConnPool) get() (net.Conn, error) {
	if p.conn == nil {
		c, err := p.dial()
		if err != nil {
			p.m.dialErrors.Inc()
			return nil, err
		}
		p.m.dials.Inc()
		p.m.open.Add(1)
		p.conn = c
	}
	return p.conn, nil
}

// drop closes the live connection, if any; the next get redials.
func (p *ConnPool) drop() {
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
		p.m.open.Add(-1)
	}
}

// Close closes the live connection. Call it after the Peer using the
// pool is closed; it must not race with that Peer's sender.
func (p *ConnPool) Close() { p.drop() }
