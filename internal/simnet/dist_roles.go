package simnet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/obs"
	"repro/internal/wire"
)

// ServeCloud runs the cloud role of a distributed HierMinimax run: it
// binds dc.Listen, waits for every edge server's hello (which carries
// the edge's own listen address) and readiness, dials each edge back,
// and then drives core's round over the same transport as HierMinimax —
// only the routes differ, so the returned Result is bitwise-identical
// to HierMinimax on the same problem, config and fault schedule. The
// returned RunStats aggregates the protocol counters of the whole tree
// (each process reports its own at shutdown via stats frames).
func ServeCloud(prob *fl.Problem, cfg fl.Config, dc DistConfig, opts ...Option) (*fl.Result, RunStats, error) {
	dc.normalize()
	e, err := newEngine(prob, cfg, opts)
	if err != nil {
		return nil, RunStats{}, err
	}
	top := e.top
	fp := Fingerprint(e.cfg, top, e.chaos)

	ln, err := net.Listen("tcp", dc.Listen)
	if err != nil {
		return nil, RunStats{}, err
	}
	if dc.Started != nil {
		dc.Started(ln.Addr().String())
	}

	e.net = NewNetwork()
	e.inbox = e.net.Register(NodeID{Kind: Cloud, Index: 0}, 2*e.cfg.SampledEdges+4)

	// Handshake state, written by listener callbacks (connection reader
	// goroutines) and awaited below. Reconnect hellos after chaos resets
	// land here too; they only refresh the address.
	var mu sync.Mutex
	addrs := make([]string, top.NumEdges)
	readys := make([]bool, top.NumEdges)
	statsGot := make([]bool, top.NumEdges)
	var downStats wire.Stats
	sig := newPulse()

	lis := wire.NewListener(ln, wire.ListenerConfig{
		Fingerprint: fp,
		Alloc:       e.net.pool.get,
		Free:        e.net.pool.put,
		OnMessage:   e.net.Inject,
		OnHello: func(h wire.Hello) {
			if h.Role != wire.RoleEdge || h.Edge < 0 || h.Edge >= top.NumEdges {
				return
			}
			mu.Lock()
			addrs[h.Edge] = h.Addr
			mu.Unlock()
			sig.wake()
		},
		OnReady: func(edge int) {
			if edge < 0 || edge >= top.NumEdges {
				return
			}
			mu.Lock()
			readys[edge] = true
			mu.Unlock()
			sig.wake()
		},
		OnStats: func(edge int, s wire.Stats) {
			mu.Lock()
			if edge >= 0 && edge < top.NumEdges && !statsGot[edge] {
				statsGot[edge] = true
				downStats.Add(s)
			}
			mu.Unlock()
			sig.wake()
		},
	})
	defer lis.Close()

	all := func(flags []bool) func() bool {
		return func() bool {
			mu.Lock()
			defer mu.Unlock()
			for _, ok := range flags {
				if !ok {
					return false
				}
			}
			return true
		}
	}
	haveAddrs := func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, a := range addrs {
			if a == "" {
				return false
			}
		}
		return true
	}
	if err := awaitCond(sig, dc.HandshakeTimeout, haveAddrs, "edge hellos"); err != nil {
		return nil, RunStats{}, err
	}

	// Dial every edge back on its advertised address; the peers are the
	// remote routes for the edges and, via each edge's relay, for the
	// clients it hosts (the only cloud→client traffic is stop frames).
	peers := make([]*wire.Peer, top.NumEdges)
	pools := make([]*wire.ConnPool, top.NumEdges)
	mu.Lock()
	bound := append([]string(nil), addrs...)
	mu.Unlock()
	closeAll := func() {
		for i := range peers {
			if peers[i] != nil {
				peers[i].Close()
				pools[i].Close()
			}
		}
	}
	for edge := 0; edge < top.NumEdges; edge++ {
		pools[edge] = wire.NewConnPool(
			helloDialer(bound[edge], wire.Hello{Role: wire.RoleCloud, Fingerprint: fp}),
			wire.PoolConfig{})
		peers[edge] = wire.NewPeer(pools[edge], wire.PeerConfig{
			QueueLen: dc.QueueLen, Release: releaseMessage(e.net.pool),
		})
		e.net.RegisterRemote(NodeID{Kind: Edge, Index: edge}, peers[edge].Send)
		for c := 0; c < top.ClientsPerEdge; c++ {
			e.net.RegisterRemote(NodeID{Kind: Client, Index: top.ClientID(edge, c)}, peers[edge].Send)
		}
	}
	if e.chaos.Enabled() {
		base := newFaultHook(e.chaos, top).drop
		e.net.SetDrop(resettingDrop(base, func(id NodeID) *wire.Peer {
			switch id.Kind {
			case Edge, ReplyPort:
				return peers[id.Index]
			case Client:
				return peers[top.EdgeOf(id.Index)]
			}
			return nil
		}))
	}
	e.net.Seal()

	if err := awaitCond(sig, dc.HandshakeTimeout, all(readys), "edge readiness"); err != nil {
		closeAll()
		return nil, RunStats{}, err
	}

	h, t0 := obs.Get(), obs.Now()
	res, err := core.HierMinimaxOver("HierMinimax/wire", prob, cfg, e)
	// Stop flows down the tree on both paths: edge actors exit, each
	// edge relays its clients' stops, and every process answers with a
	// stats frame once its fleet has drained.
	e.stop()
	for _, p := range peers {
		p.Flush()
	}
	statsErr := awaitCond(sig, dc.HandshakeTimeout, all(statsGot), "edge stats")
	closeAll()
	if err != nil {
		return nil, RunStats{}, err
	}
	if statsErr != nil {
		return nil, RunStats{}, statsErr
	}
	e.publishTimes(h, t0)
	total := localStats(e.net)
	mu.Lock()
	total.Add(downStats)
	mu.Unlock()
	return res, e.runStats(total), nil
}

// ServeEdge runs one edge-server role: it hosts the edge actor (request
// mailbox plus reply port), learns its client host's address from the
// downstream hello, relays cloud→client control frames, and reports the
// subtree's protocol counters to the cloud at shutdown. Blocks until
// the run completes.
func ServeEdge(prob *fl.Problem, cfg fl.Config, dc DistConfig, opts ...Option) error {
	dc.normalize()
	e, err := newEngine(prob, cfg, opts)
	if err != nil {
		return err
	}
	top := e.top
	if dc.Edge < 0 || dc.Edge >= top.NumEdges {
		return fmt.Errorf("simnet: edge index %d outside topology (%d edges)", dc.Edge, top.NumEdges)
	}
	edge := dc.Edge
	fp := Fingerprint(e.cfg, top, e.chaos)

	ln, err := net.Listen("tcp", dc.Listen)
	if err != nil {
		return err
	}
	myAddr := ln.Addr().String()
	if dc.Started != nil {
		dc.Started(myAddr)
	}

	nw := NewNetwork()
	a := e.newEdgeActor(nw, edge, nil)

	var mu sync.Mutex
	var chAddr string
	chReady := false
	var chStats wire.Stats
	chStatsGot := false
	sig := newPulse()
	var chPeer atomic.Pointer[wire.Peer] // set once, before readiness goes up

	lis := wire.NewListener(ln, wire.ListenerConfig{
		Fingerprint: fp,
		Alloc:       nw.pool.get,
		Free:        nw.pool.put,
		OnMessage: func(m Message) {
			if m.To == a.id || m.To == a.port {
				nw.Inject(m)
				return
			}
			if m.To.Kind == Client {
				// Relay cloud→client traffic to the client host without
				// recounting: the cloud already counted it once.
				if p := chPeer.Load(); p != nil {
					p.Send(m)
					return
				}
			}
			panic("simnet: edge " + a.id.String() + " cannot route frame for " + m.To.String())
		},
		OnHello: func(h wire.Hello) {
			if h.Role != wire.RoleClientHost || h.Edge != edge {
				return
			}
			mu.Lock()
			chAddr = h.Addr
			mu.Unlock()
			sig.wake()
		},
		OnReady: func(eidx int) {
			if eidx != edge {
				return
			}
			mu.Lock()
			chReady = true
			mu.Unlock()
			sig.wake()
		},
		OnStats: func(eidx int, s wire.Stats) {
			mu.Lock()
			if !chStatsGot {
				chStatsGot = true
				chStats = s
			}
			mu.Unlock()
			sig.wake()
		},
	})
	defer lis.Close()

	if err := awaitCond(sig, dc.HandshakeTimeout, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return chAddr != "" && chReady
	}, "client-host hello"); err != nil {
		return err
	}
	mu.Lock()
	downAddr := chAddr
	mu.Unlock()

	chPool := wire.NewConnPool(
		helloDialer(downAddr, wire.Hello{Role: wire.RoleEdge, Edge: edge, Fingerprint: fp}),
		wire.PoolConfig{})
	chp := wire.NewPeer(chPool, wire.PeerConfig{QueueLen: dc.QueueLen, Release: releaseMessage(nw.pool)})
	chPeer.Store(chp)
	cloudPool := wire.NewConnPool(
		helloDialer(dc.Connect, wire.Hello{Role: wire.RoleEdge, Edge: edge, Addr: myAddr, Fingerprint: fp}),
		wire.PoolConfig{})
	cloudPeer := wire.NewPeer(cloudPool, wire.PeerConfig{QueueLen: dc.QueueLen, Release: releaseMessage(nw.pool)})
	defer func() {
		chp.Close()
		chPool.Close()
		cloudPeer.Close()
		cloudPool.Close()
	}()

	nw.RegisterRemote(NodeID{Kind: Cloud, Index: 0}, cloudPeer.Send)
	for c := 0; c < top.ClientsPerEdge; c++ {
		nw.RegisterRemote(NodeID{Kind: Client, Index: top.ClientID(edge, c)}, chp.Send)
	}
	if e.chaos.Enabled() {
		base := newFaultHook(e.chaos, top).drop
		nw.SetDrop(resettingDrop(base, func(id NodeID) *wire.Peer {
			switch id.Kind {
			case Cloud:
				return cloudPeer
			case Client:
				return chp
			}
			return nil
		}))
	}
	nw.Seal()

	var wg sync.WaitGroup
	wg.Add(1)
	go a.run(&wg)
	cloudPeer.SendRaw(wire.AppendReady(nil, edge))
	wg.Wait()

	// The client host's stats frame arrives only after its actors have
	// drained, which needs the relayed stops to be through; flush both
	// peers before snapshotting so in-flight payloads are back home.
	chp.Flush()
	cloudPeer.Flush()
	if err := awaitCond(sig, dc.HandshakeTimeout, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return chStatsGot
	}, "client-host stats"); err != nil {
		return err
	}
	st := localStats(nw)
	mu.Lock()
	st.Add(chStats)
	mu.Unlock()
	cloudPeer.SendRaw(wire.AppendStats(nil, edge, st))
	cloudPeer.Flush()
	nw.Close()
	return nil
}

// ServeClientHost runs the client-host role for one edge area: every
// client actor of that area lives here, served over TCP from its edge.
// Scheduled stragglers really sleep (scaled by DistConfig.StraggleScale)
// before working, so chaos runs hold sockets open the way slow clients
// would. Blocks until the run completes.
func ServeClientHost(prob *fl.Problem, cfg fl.Config, dc DistConfig, opts ...Option) error {
	dc.normalize()
	e, err := newEngine(prob, cfg, opts)
	if err != nil {
		return err
	}
	top := e.top
	if dc.Edge < 0 || dc.Edge >= top.NumEdges {
		return fmt.Errorf("simnet: edge index %d outside topology (%d edges)", dc.Edge, top.NumEdges)
	}
	edge := dc.Edge
	fp := Fingerprint(e.cfg, top, e.chaos)

	ln, err := net.Listen("tcp", dc.Listen)
	if err != nil {
		return err
	}
	myAddr := ln.Addr().String()
	if dc.Started != nil {
		dc.Started(myAddr)
	}

	nw := NewNetwork()
	var wg sync.WaitGroup
	actors := make([]*clientActor, 0, top.ClientsPerEdge)
	for c := 0; c < top.ClientsPerEdge; c++ {
		ca := e.newClientActor(nw, top, edge, c)
		if e.chaos != nil && e.chaos.StragglerProb > 0 && dc.StraggleScale > 0 {
			sched, idx, scale := e.chaos, ca.id.Index, dc.StraggleScale
			ca.straggle = func(round int) {
				if ms := sched.StraggleMs(round, idx); ms > 0 {
					time.Sleep(time.Duration(ms * scale * float64(time.Millisecond)))
				}
			}
		}
		actors = append(actors, ca)
	}

	lis := wire.NewListener(ln, wire.ListenerConfig{
		Fingerprint: fp,
		Alloc:       nw.pool.get,
		Free:        nw.pool.put,
		OnMessage:   nw.Inject, // everything inbound is for a local client
	})
	defer lis.Close()

	edgePool := wire.NewConnPool(
		helloDialer(dc.Connect, wire.Hello{Role: wire.RoleClientHost, Edge: edge, Addr: myAddr, Fingerprint: fp}),
		wire.PoolConfig{})
	edgePeer := wire.NewPeer(edgePool, wire.PeerConfig{QueueLen: dc.QueueLen, Release: releaseMessage(nw.pool)})
	defer func() {
		edgePeer.Close()
		edgePool.Close()
	}()
	nw.RegisterRemote(NodeID{Kind: Edge, Index: edge}, edgePeer.Send)
	nw.RegisterRemote(NodeID{Kind: ReplyPort, Index: edge}, edgePeer.Send)
	if e.chaos.Enabled() {
		base := newFaultHook(e.chaos, top).drop
		nw.SetDrop(resettingDrop(base, func(id NodeID) *wire.Peer {
			if id.Kind == Edge || id.Kind == ReplyPort {
				return edgePeer
			}
			return nil
		}))
	}
	nw.Seal()

	for _, ca := range actors {
		wg.Add(1)
		go ca.run(&wg)
	}
	// The hello (riding the first dial) advertises our address; readiness
	// tells the edge the fleet is up.
	edgePeer.SendRaw(wire.AppendReady(nil, edge))
	wg.Wait()
	edgePeer.Flush()
	edgePeer.SendRaw(wire.AppendStats(nil, edge, localStats(nw)))
	edgePeer.Flush()
	nw.Close()
	return nil
}
