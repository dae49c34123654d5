package simnet

import (
	"hash/fnv"
	"math"
	"net"
	"time"

	"repro/internal/chaos"
	"repro/internal/fl"
	"repro/internal/tensor"
	"repro/internal/topology"
	"repro/internal/wire"
)

// This file runs HierMinimax over real TCP sockets: the cloud, each edge
// server and each edge's client host are separate processes (or separate
// runtimes inside one test process) connected by internal/wire peers.
// Every process builds the same Problem from the same seed and runs one
// skeleton (proc, dist_roles.go): it hosts its own slice of the actor
// fleet on a local Network, routes the rest through RegisterRemote sinks
// that enqueue onto wire.Peer send queues, and Injects the frames its
// wire.Listener decodes into the local mailboxes. The processes below it
// dial in and are tracked in one table; a role only says which actors it
// hosts and which ids route to which peer. Stops flow down the tree (the
// cloud stops its edges, each edge its clients) and stats flow back up.
//
// Determinism contract (DESIGN.md §12): the cloud runs core's round over
// the same engine transport as the in-process run, every message is
// counted and its loss decided once — at the sending process — and all
// fan-ins are index-keyed, so the trajectory, topology ledger and fault
// counters of a distributed run are bitwise-identical to the
// single-process simnet run of the same Spec (asserted in dist_test.go
// and the invariance suite). Chaos drops double as real transport faults: a dropped
// message also resets the underlying connection (flush-then-close, so
// no counted frame is lost), and scheduled stragglers really sleep on
// the client host. Neither changes a single decision.
//
// Each peer sends over one connection, kept for the whole run and redialed
// only after a write error or an injected reset.
//
// Known limitation: there are no real-time protocol timeouts yet. A peer
// whose fingerprint differs or that sends a malformed frame fails the
// process it dialed at once, naming the error. The fingerprint covers
// the engine config, topology, chaos schedule and kernel class but not
// the dataset or model (ROADMAP item 18). An uninjected peer death
// (killed process, unplugged cable) stalls the fan-in that awaits it,
// and a frame that exhausts its redials is dropped with a log line, so
// the run then waits for a reply that never comes (items 7c and 12);
// only scheduled faults are survivable.

// DistConfig configures one process of a distributed run.
type DistConfig struct {
	// Listen is the TCP address this process binds ("host:0" works; the
	// bound address is reported through Started and, for edges and
	// client hosts, advertised upstream in the hello).
	Listen string
	// Connect is the upstream address: the cloud's listener for an edge,
	// the edge's listener for a client host. Unused by the cloud.
	Connect string
	// Edge is this process's edge index (edge and client-host roles).
	Edge int
	// Started, when set, is called once with the bound listen address
	// before any handshake traffic — tests and scripts use it to learn
	// ":0" allocations.
	Started func(addr string)
}

// handshakeTimeout bounds every wait of a process on the processes below
// it: their hellos, their readiness and their final stats.
const handshakeTimeout = 30 * time.Second

// straggleScale converts a scheduled straggler delay (simulated ms) into
// a real client-host sleep of StraggleMs * straggleScale ms: 10µs per
// simulated ms, so chaos runs visibly stall sockets without slowing tests.
const straggleScale = 0.01

// Fingerprint folds a run's engine knobs into one value; the wire
// handshake rejects peers whose fingerprint differs. It hashes exactly:
// the active tensor kernel class (an AVX2+FMA cloud and a generic edge
// would each be self-consistent yet produce different bits); the
// fl.Config fields Rounds, Tau1, Tau2, EtaW, EtaP, BatchSize, LossBatch,
// SampledEdges, Seed, EvalEvery, DropoutProb, TrackAverages,
// CheckpointOff and Compression (a compression setting is a rounding
// regime); the topology's NumEdges and ClientsPerEdge; and the chaos
// schedule. It hashes no dataset or model field, so two processes built
// on different data or models of the same dimension are not refused
// (ROADMAP item 18). It hashes explicit fields, never reflection over
// Config, so the hash stays stable as Config grows.
func Fingerprint(cfg fl.Config, top topology.Topology, sched *chaos.Schedule) uint64 {
	h := fnv.New64a()
	h.Write([]byte(tensor.ActiveKernel().String()))
	u := func(v uint64) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	b := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	u(uint64(cfg.Rounds))
	u(uint64(cfg.Tau1))
	u(uint64(cfg.Tau2))
	f(cfg.EtaW)
	f(cfg.EtaP)
	u(uint64(cfg.BatchSize))
	u(uint64(cfg.LossBatch))
	u(uint64(cfg.SampledEdges))
	u(cfg.Seed)
	u(uint64(cfg.EvalEvery))
	f(cfg.DropoutProb)
	b(cfg.TrackAverages)
	b(cfg.CheckpointOff)
	u(uint64(cfg.Compression.Bits))
	u(uint64(cfg.Compression.TopK))
	b(cfg.Compression.ErrorFeedback)
	u(uint64(top.NumEdges))
	u(uint64(top.ClientsPerEdge))
	if sched != nil {
		u(sched.Seed)
		f(sched.CrashProb)
		f(sched.PartitionProb)
		f(sched.LossProb)
		f(sched.StragglerProb)
		f(sched.StragglerMs)
		f(sched.TimeoutMs)
		u(uint64(sched.MaxRetries))
	}
	return h.Sum64()
}

// helloDialer returns a peer's dialer that connects to addr and leads with
// the given hello, the first frame every wire connection must carry.
func helloDialer(addr string, h wire.Hello) wire.Dialer {
	return func() (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		frame, err := wire.AppendHello(nil, h)
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

// releaseMessage returns the peer Release hook for a process: after a
// frame's bytes are on the wire (or permanently undeliverable) the
// payload vectors go back to the local arena and the struct to its
// typed pool, completing the single-owner hand-off across the socket.
func releaseMessage(pool *vecPool) func(Message) {
	free := pool.put // one method value, not one per release
	return func(m Message) { wire.Release(m, free) }
}

// localStats snapshots a process's protocol counters into a wire.Stats
// frame for up-tree aggregation at shutdown.
func localStats(n *Network) wire.Stats {
	return wire.Stats{
		Sent:            n.Sent(),
		Lost:            n.Lost(),
		Ctrl:            n.Control(),
		Timeouts:        n.Timeouts(),
		Retries:         n.Retries(),
		Crashes:         n.Crashes(),
		PoolOutstanding: n.pool.Outstanding(),
		PoolRecycled:    n.pool.Recycled(),
		PoolAllocated:   n.pool.Allocated(),
	}
}

// pulse is a condition-variable channel: wake() wakes one waiter (and
// never blocks the caller), and the waiter re-checks its predicate on
// every wake. Listener callbacks use it so mid-run events (reconnect
// hellos after chaos resets) can never stall a reader goroutine.
type pulse chan struct{}

func newPulse() pulse { return make(chan struct{}, 1) }

func (p pulse) wake() {
	select {
	case p <- struct{}{}:
	default:
	}
}
