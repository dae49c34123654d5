package simnet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/obs"
	"repro/internal/wire"
)

// child is one process that dials in below a role process: the address
// its hello advertised, whether its fleet is up, and whether its stats
// frame has arrived.
type child struct {
	addr            string
	ready, reported bool
}

// proc is the skeleton every role process runs on: the engine of its
// slice of the fleet, the listener the processes below it dial into, the
// table of those processes, and the peers behind its remote routes.
type proc struct {
	*engine
	addr string // the bound listen address
	fp   uint64
	lis  *wire.Listener

	// Written by listener callbacks (connection reader goroutines) under
	// mu and awaited through sig. Reconnect hellos after chaos resets land
	// here too; they only refresh the address.
	mu    sync.Mutex
	sig   pulse
	kid   byte   // the wire role of the processes below
	kin   string // names them in await's errors
	first int    // the edge index of below[0]
	below []child
	down  wire.Stats // the children's stats, summed
	err   error      // the first listener error

	routes map[NodeID]*wire.Peer
	peers  []*wire.Peer
	pools  []*wire.ConnPool
}

// open builds the engine of one role process and starts serving: it
// validates the edge index, fingerprints the run, binds dc.Listen,
// reports the address and starts the listener. The cloud's children are
// its NumEdges edges, an edge's child is its client host, and a client
// host has none.
func open(prob *fl.Problem, cfg fl.Config, dc DistConfig, opts []Option, role byte) (*proc, error) {
	e, err := newEngine(prob, cfg, opts)
	if err != nil {
		return nil, err
	}
	p := &proc{engine: e, sig: newPulse(), routes: make(map[NodeID]*wire.Peer)}
	switch {
	case role == wire.RoleCloud:
		p.kid, p.kin, p.below = wire.RoleEdge, "edge ", make([]child, e.top.NumEdges)
	case dc.Edge < 0 || dc.Edge >= e.top.NumEdges:
		return nil, fmt.Errorf("simnet: edge index %d outside topology (%d edges)", dc.Edge, e.top.NumEdges)
	case role == wire.RoleEdge:
		p.kid, p.kin, p.first, p.below = wire.RoleClientHost, "client-host ", dc.Edge, make([]child, 1)
	}
	p.fp = Fingerprint(e.cfg, e.top, e.chaos)
	ln, err := net.Listen("tcp", dc.Listen)
	if err != nil {
		return nil, err
	}
	p.addr = ln.Addr().String()
	if dc.Started != nil {
		dc.Started(p.addr)
	}
	e.net = NewNetwork()
	p.lis = wire.NewListener(ln, wire.ListenerConfig{
		Fingerprint: p.fp,
		Alloc:       e.net.pool.get,
		Free:        e.net.pool.put,
		OnMessage:   e.net.Inject,
		OnHello:     func(h wire.Hello) { p.note(h.Role, h.Edge, func(c *child) { c.addr = h.Addr }) },
		OnReady:     func(edge int) { p.note(p.kid, edge, func(c *child) { c.ready = true }) },
		OnStats: func(edge int, s wire.Stats) {
			p.note(p.kid, edge, func(c *child) {
				if !c.reported {
					c.reported = true
					p.down.Add(s)
				}
			})
		},
		OnError: func(err error) {
			p.mu.Lock()
			if p.err == nil {
				p.err = err
			}
			p.mu.Unlock()
			p.sig.wake()
		},
	})
	return p, nil
}

// note applies f to the child a control frame came from and wakes await;
// frames from a role or edge outside the table are ignored.
func (p *proc) note(role byte, edge int, f func(*child)) {
	i := edge - p.first
	if role != p.kid || i < 0 || i >= len(p.below) {
		return
	}
	p.mu.Lock()
	f(&p.below[i])
	p.mu.Unlock()
	p.sig.wake()
}

// await blocks until ok holds for every child. It fails with the first
// listener error — a peer with a different Spec, a malformed frame — or
// at the handshake deadline, naming phase either way.
func (p *proc) await(phase string, ok func(child) bool) error {
	deadline := time.NewTimer(handshakeTimeout)
	defer deadline.Stop()
	for expired := false; ; {
		p.mu.Lock()
		err, done := p.err, true
		for _, c := range p.below {
			done = done && ok(c)
		}
		p.mu.Unlock()
		switch {
		case err != nil:
			return fmt.Errorf("simnet: awaiting %s%s: %w", p.kin, phase, err)
		case done:
			return nil
		case expired:
			return fmt.Errorf("simnet: timed out awaiting %s%s", p.kin, phase)
		}
		select {
		case <-p.sig:
		case <-deadline.C:
			expired = true
		}
	}
}

// addrs returns the addresses the children advertised.
func (p *proc) addrs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.below))
	for i, c := range p.below {
		out[i] = c.addr
	}
	return out
}

// dial starts a peer to the process listening at addr over one
// redialing connection, each dial led by h; sent frames release into the
// local arena.
func (p *proc) dial(addr string, h wire.Hello) *wire.Peer {
	h.Fingerprint = p.fp
	pool := wire.NewConnPool(helloDialer(addr, h), wire.PoolConfig{})
	peer := wire.NewPeer(pool, wire.PeerConfig{Release: releaseMessage(p.net.pool)})
	p.pools = append(p.pools, pool)
	p.peers = append(p.peers, peer)
	return peer
}

// route sends every message for ids through peer.
func (p *proc) route(peer *wire.Peer, ids ...NodeID) {
	for _, id := range ids {
		p.net.RegisterRemote(id, peer.Send)
		p.routes[id] = peer
	}
}

// seal installs the fault hook and freezes the route table. A chaos drop
// on a remote link also resets the peer carrying it: the transport really
// closes the connection (after flushing every frame already counted as
// delivered) and later traffic redials.
func (p *proc) seal() {
	if p.chaos.Enabled() {
		drop := newFaultHook(p.chaos, p.top).drop
		p.net.SetDrop(func(m Message) bool {
			if !drop(m) {
				return false
			}
			if peer := p.routes[m.To]; peer != nil {
				peer.Reset()
			}
			return true
		})
	}
	p.net.Seal()
}

// finish flushes every peer, so in-flight payloads are back home, awaits
// the children's stats, and returns the subtree's protocol counters.
func (p *proc) finish() (wire.Stats, error) {
	for _, peer := range p.peers {
		peer.Flush()
	}
	if err := p.await("stats", func(c child) bool { return c.reported }); err != nil {
		return wire.Stats{}, err
	}
	st := localStats(p.net)
	p.mu.Lock()
	st.Add(p.down)
	p.mu.Unlock()
	return st, nil
}

// report tells up that the local fleet is running, waits until it has
// stopped, and sends the subtree's counters up once every child reported.
func (p *proc) report(up *wire.Peer, edge int) error {
	up.SendRaw(wire.AppendReady(nil, edge))
	p.wg.Wait()
	st, err := p.finish()
	if err != nil {
		return err
	}
	up.SendRaw(wire.AppendStats(nil, edge, st))
	up.Flush()
	return nil
}

// close stops each peer and closes its connection, then the listener.
func (p *proc) close() {
	for i, peer := range p.peers {
		peer.Close()
		p.pools[i].Close()
	}
	p.lis.Close()
}

// ServeCloud runs the cloud role of a distributed HierMinimax run: it
// binds dc.Listen, waits for every edge server's hello (which carries
// the edge's own listen address), dials each edge back, waits for their
// readiness, and then drives core's round over the same transport as
// HierMinimax — only the routes differ, so the returned Result is
// bitwise-identical to HierMinimax on the same problem, config and fault
// schedule. The returned RunStats aggregates the protocol counters of
// the whole tree (each process reports its own at shutdown via stats
// frames).
func ServeCloud(prob *fl.Problem, cfg fl.Config, dc DistConfig, opts ...Option) (*fl.Result, RunStats, error) {
	p, err := open(prob, cfg, dc, opts, wire.RoleCloud)
	if err != nil {
		return nil, RunStats{}, err
	}
	defer p.close()
	p.inbox = p.net.Register(NodeID{Kind: Cloud, Index: 0}, 2*p.cfg.SampledEdges+4)
	if err := p.await("hellos", func(c child) bool { return c.addr != "" }); err != nil {
		return nil, RunStats{}, err
	}
	for edge, addr := range p.addrs() {
		p.route(p.dial(addr, wire.Hello{Role: wire.RoleCloud}), NodeID{Kind: Edge, Index: edge})
	}
	p.seal()
	if err := p.await("readiness", func(c child) bool { return c.ready }); err != nil {
		return nil, RunStats{}, err
	}

	h, t0 := obs.Get(), obs.Now()
	res, err := core.HierMinimaxOver("HierMinimax/wire", prob, cfg, p.engine)
	// Stop flows down the tree on both paths: edge actors stop their
	// clients and exit, and every process answers with a stats frame once
	// its fleet has drained.
	p.stop()
	total, statsErr := p.finish()
	if err == nil {
		err = statsErr
	}
	if err != nil {
		return nil, RunStats{}, err
	}
	p.publishTimes(h, t0)
	return res, p.runStats(total), nil
}

// ServeEdge runs one edge-server role: it hosts the edge actor (request
// mailbox plus reply port; it trains a sparse population's cohorts
// itself), learns its client host's address from the downstream hello,
// and reports the subtree's protocol counters to the cloud at shutdown.
// Blocks until the run completes.
func ServeEdge(prob *fl.Problem, cfg fl.Config, dc DistConfig, opts ...Option) error {
	p, err := open(prob, cfg, dc, opts, wire.RoleEdge)
	if err != nil {
		return err
	}
	defer p.close()
	a := p.newEdgeActor(dc.Edge)
	if err := p.await("hello", func(c child) bool { return c.addr != "" && c.ready }); err != nil {
		return err
	}
	hello := wire.Hello{Role: wire.RoleEdge, Edge: dc.Edge, Addr: p.addr}
	p.route(p.dial(p.addrs()[0], hello), a.clients...)
	up := p.dial(dc.Connect, hello)
	p.route(up, NodeID{Kind: Cloud, Index: 0})
	p.seal()
	p.wg.Add(1)
	go a.run(&p.wg)
	return p.report(up, dc.Edge)
}

// ServeClientHost runs the client-host role for one edge area: every
// resident client actor of that area lives here, served over TCP from its
// edge (a sparse population has none, so the host only reports in).
// Scheduled stragglers really sleep (scaled by straggleScale) before
// working, so chaos runs hold sockets open the way slow clients would.
// Blocks until the run completes.
func ServeClientHost(prob *fl.Problem, cfg fl.Config, dc DistConfig, opts ...Option) error {
	p, err := open(prob, cfg, dc, opts, wire.RoleClientHost)
	if err != nil {
		return err
	}
	defer p.close()
	edge := dc.Edge
	up := p.dial(dc.Connect, wire.Hello{Role: wire.RoleClientHost, Edge: edge, Addr: p.addr})
	p.route(up, NodeID{Kind: Edge, Index: edge}, NodeID{Kind: ReplyPort, Index: edge})
	for c := range p.residents() {
		ca := p.newClientActor(edge, c)
		if p.chaos != nil && p.chaos.StragglerProb > 0 {
			sched, idx := p.chaos, ca.id.Index
			ca.straggle = func(round int) {
				if ms := sched.StraggleMs(round, idx); ms > 0 {
					time.Sleep(time.Duration(ms * straggleScale * float64(time.Millisecond)))
				}
			}
		}
		p.wg.Add(1)
		go ca.run(&p.wg)
	}
	p.seal()
	return p.report(up, edge)
}
