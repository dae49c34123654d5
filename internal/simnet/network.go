// Package simnet runs the federated algorithms as a true message-passing
// distributed system: every client, edge server and the cloud is a
// goroutine actor with a typed mailbox, communicating only through the
// Network. The HierMinimax engine in this package produces trajectories
// bitwise-identical to the in-process engine in internal/core (asserted
// in tests), while exercising the real coordination structure — cloud →
// edge → client fan-out, client → edge → cloud aggregation — and
// supporting link-level failure injection and a latency cost model for
// simulated wall-clock estimates.
package simnet

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/wire"
)

// The protocol vocabulary — node identifiers, the message envelope and
// the payload structs — lives in internal/wire so both transports (the
// in-process fabric here and the TCP runtimes in dist.go) speak exactly
// the same types; the aliases keep every actor and engine untouched.
type (
	// NodeKind classifies nodes in the hierarchy.
	NodeKind = wire.NodeKind
	// NodeID identifies a node: the cloud is {Cloud, 0}, edge servers
	// are {Edge, e}, clients are {Client, globalClientIndex}.
	NodeID = wire.NodeID
	// Message is one transfer over the network.
	Message = wire.Message
)

// Node kinds. ReplyPort is the dedicated response mailbox of an edge
// server, kept separate from its request mailbox so queued requests are
// never consumed by a reply-await loop.
const (
	Cloud     = wire.Cloud
	Edge      = wire.Edge
	Client    = wire.Client
	ReplyPort = wire.ReplyPort
)

// DropFunc decides whether a message is lost in transit. It runs on the
// sender's goroutine and must be safe for concurrent use.
type DropFunc func(Message) bool

// Network routes messages between registered nodes. Mailboxes are
// buffered channels; Send never blocks the sender beyond the buffer,
// so deadlock-free protocols only need bounded outstanding messages per
// mailbox (the engines size buffers to their fan-out).
//
// A Network has two phases. During setup, Register and SetDrop build the
// route table under a mutex. Seal freezes it: after Seal the table is
// immutable, so Send reads it with no lock at all — the per-message hot
// path is a plain map lookup plus one channel send. Register or SetDrop
// after Seal panic, and Send before Seal panics: the phases may not
// interleave, which is what makes the lock-free read sound.
type Network struct {
	mu       sync.Mutex
	boxes    map[NodeID]chan Message
	remotes  map[NodeID]func(Message)
	drop     DropFunc // immutable after Seal
	sealed   atomic.Bool
	closed   atomic.Bool
	sent     atomic.Int64
	lost     atomic.Int64
	ctrl     atomic.Int64
	timeouts atomic.Int64
	retries  atomic.Int64
	crashes  atomic.Int64
	om       *netObs
	pool     *vecPool
}

// NewNetwork returns an empty network. Observability is bound here: if a
// global obs hub is installed when the network is built, every Send
// records per-link-class message counters and mailbox-depth high-water
// marks into it (see netObs), and the payload pool exports its
// outstanding/recycled gauges.
func NewNetwork() *Network {
	h := obs.Get()
	return &Network{
		boxes:   make(map[NodeID]chan Message),
		remotes: make(map[NodeID]func(Message)),
		om:      newNetObs(h),
		pool:    newVecPool(h),
	}
}

// linkClass buckets a transfer by the hierarchy links it crosses,
// matching the topology.Link classes the ledger uses. Reply ports are
// aspects of their edge server.
func linkClass(from, to NodeKind) string {
	if from == ReplyPort {
		from = Edge
	}
	if to == ReplyPort {
		to = Edge
	}
	switch {
	case (from == Cloud && to == Edge) || (from == Edge && to == Cloud):
		return "edge-cloud"
	case (from == Edge && to == Client) || (from == Client && to == Edge):
		return "client-edge"
	case (from == Cloud && to == Client) || (from == Client && to == Cloud):
		return "client-cloud"
	}
	return "unknown"
}

// netObs caches resolved instruments so the per-message hot path is one
// map-free atomic add per metric. Control messages (actor shutdown) are
// counted apart from protocol traffic so the link-class counters
// reconcile exactly with the topology.Ledger totals (asserted in tests).
type netObs struct {
	sent     map[string]*obs.Counter
	dropped  map[string]*obs.Counter
	bytes    map[string]*obs.Counter
	depth    map[NodeKind]*obs.Gauge
	control  *obs.Counter
	timeouts *obs.Counter
	retries  *obs.Counter
	crashes  *obs.Counter
}

func newNetObs(h *obs.Hub) *netObs {
	if h == nil {
		return nil
	}
	reg := h.Registry()
	om := &netObs{
		sent:     make(map[string]*obs.Counter),
		dropped:  make(map[string]*obs.Counter),
		bytes:    make(map[string]*obs.Counter),
		depth:    make(map[NodeKind]*obs.Gauge),
		control:  reg.Counter("simnet_control_messages_total"),
		timeouts: reg.Counter("simnet_timeouts_total"),
		retries:  reg.Counter("simnet_retries_total"),
		crashes:  reg.Counter("simnet_client_crashes_total"),
	}
	for _, class := range []string{"client-edge", "edge-cloud", "client-cloud", "unknown"} {
		om.sent[class] = reg.Counter(`simnet_messages_sent_total{link="` + class + `"}`)
		om.dropped[class] = reg.Counter(`simnet_messages_dropped_total{link="` + class + `"}`)
		om.bytes[class] = reg.Counter(`simnet_bytes_sent_total{link="` + class + `"}`)
	}
	for _, kind := range []NodeKind{Cloud, Edge, Client, ReplyPort} {
		om.depth[kind] = reg.Gauge(`simnet_mailbox_depth_hwm{kind="` + kind.String() + `"}`)
	}
	return om
}

// observe records one protocol Send outcome.
func (om *netObs) observe(msg Message, queued int, dropped bool) {
	class := linkClass(msg.From.Kind, msg.To.Kind)
	if dropped {
		om.dropped[class].Inc()
		return
	}
	om.sent[class].Inc()
	om.bytes[class].Add(msg.Bytes)
	om.depth[msg.To.Kind].SetMax(float64(queued))
}

// SetDrop installs the failure-injection hook (nil disables). Like
// Register it is a setup-phase call: installing a hook after Seal
// panics, because Send reads the hook without a lock.
func (n *Network) SetDrop(f DropFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.sealed.Load() {
		panic("simnet: SetDrop after Seal")
	}
	n.drop = f
}

// Register creates the mailbox for id with the given buffer and returns
// its receive side. Registering the same id twice, or registering after
// Seal, panics.
func (n *Network) Register(id NodeID, buffer int) <-chan Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.sealed.Load() {
		panic("simnet: Register after Seal")
	}
	if _, ok := n.boxes[id]; ok {
		panic("simnet: duplicate registration of " + id.String())
	}
	if _, ok := n.remotes[id]; ok {
		panic("simnet: " + id.String() + " already registered as remote")
	}
	ch := make(chan Message, buffer)
	n.boxes[id] = ch
	return ch
}

// RegisterRemote routes messages addressed to id into sink instead of a
// local mailbox — the transport seam the TCP runtimes plug into: the
// sink typically enqueues onto a wire.Peer's bounded send queue, so a
// Send to a remote node exerts real backpressure. The sink runs on the
// sender's goroutine and takes ownership of the message payload exactly
// like a mailbox receiver would. Setup-phase only, like Register.
func (n *Network) RegisterRemote(id NodeID, sink func(Message)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.sealed.Load() {
		panic("simnet: RegisterRemote after Seal")
	}
	if _, ok := n.boxes[id]; ok {
		panic("simnet: " + id.String() + " already registered as local")
	}
	if _, ok := n.remotes[id]; ok {
		panic("simnet: duplicate remote registration of " + id.String())
	}
	n.remotes[id] = sink
}

// Inject delivers an inbound message from another process directly into
// its local mailbox, bypassing the drop hook and every counter: the
// message was counted (and its loss decided) once, at the sending
// process's Network, so counting it again would double-book the
// cross-process totals. Injecting to a node this process doesn't host
// panics — that is a routing bug.
func (n *Network) Inject(msg Message) {
	if !n.sealed.Load() {
		panic("simnet: Inject before Seal")
	}
	box, ok := n.boxes[msg.To]
	if !ok {
		panic("simnet: Inject to non-local node " + msg.To.String())
	}
	box <- msg
}

// Seal freezes the route table. After Seal the node set and drop hook
// are immutable, which lets Send route with a plain (lock-free) map
// read. Sealing twice panics: it indicates two parties believe they own
// network setup.
func (n *Network) Seal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.sealed.Load() {
		panic("simnet: Seal of already-sealed network")
	}
	n.sealed.Store(true)
}

// Send delivers msg to its destination mailbox. It returns false if the
// message was dropped by the failure hook (the sender is aware of the
// loss, modeling a send-side link failure) — the sender then still owns
// the payload and must release any pooled vectors in it. Sending to an
// unregistered node panics — that is a protocol bug, not a simulated
// failure — as does sending before Seal.
func (n *Network) Send(msg Message) bool {
	if !n.sealed.Load() {
		panic("simnet: Send before Seal — register every node, then Seal the network")
	}
	if n.closed.Load() {
		return false
	}
	box, local := n.boxes[msg.To]
	var sink func(Message)
	if !local {
		if sink = n.remotes[msg.To]; sink == nil {
			panic("simnet: send to unregistered node " + msg.To.String())
		}
	}
	if msg.IsControl() {
		// Control plane: reliable by construction, counted apart so the
		// protocol counters reconcile with the topology.Ledger.
		n.ctrl.Add(1)
		if local {
			box <- msg
		} else {
			sink(msg)
		}
		if n.om != nil {
			n.om.control.Inc()
		}
		return true
	}
	n.sent.Add(1)
	if n.drop != nil && n.drop(msg) {
		n.lost.Add(1)
		if n.om != nil {
			n.om.observe(msg, 0, true)
		}
		return false
	}
	if local {
		queued := len(box) + 1 // depth including this message at enqueue time
		box <- msg
		if n.om != nil {
			n.om.observe(msg, queued, false)
		}
	} else {
		sink(msg)
		if n.om != nil {
			n.om.observe(msg, 1, false)
		}
	}
	return true
}

// SendRetry is Send with up to maxRetries re-offers after a drop. Each
// attempt consumes a fresh loss decision from the fault schedule (the
// per-link sequence number advances), so a retry can genuinely succeed
// and the whole exchange stays deterministic. Retransmissions beyond
// the first attempt are counted in Retries; with maxRetries 0 this is
// exactly Send.
func (n *Network) SendRetry(msg Message, maxRetries int) bool {
	for attempt := 0; ; attempt++ {
		if n.Send(msg) {
			n.noteRetries(attempt)
			return true
		}
		if attempt >= maxRetries {
			n.noteRetries(attempt)
			return false
		}
	}
}

// noteTimeout records one fan-in giving up on a missing reply: an
// aggregator's simulated deadline fired and it proceeded with the
// quorum that arrived.
func (n *Network) noteTimeout() {
	n.timeouts.Add(1)
	if n.om != nil {
		n.om.timeouts.Inc()
	}
}

// noteRetries records the retransmissions one SendRetry spent.
func (n *Network) noteRetries(attempts int) {
	if attempts <= 0 {
		return
	}
	n.retries.Add(int64(attempts))
	if n.om != nil {
		n.om.retries.Add(int64(attempts))
	}
}

// noteCrash records one client ignoring a round's work (fault schedule
// crash).
func (n *Network) noteCrash() {
	n.crashes.Add(1)
	if n.om != nil {
		n.om.crashes.Inc()
	}
}

// Close marks the network closed; subsequent Sends return false. It does
// not close mailboxes (receivers drain and exit on their stop message).
func (n *Network) Close() {
	n.closed.Store(true)
}

// Sent returns the number of protocol messages accepted by Send —
// control-plane traffic (actor lifecycle, see Control) is excluded, so
// Sent reconciles exactly with the topology.Ledger message totals of the
// same run. Dropped messages are not counted here; see Lost.
func (n *Network) Sent() int64 { return n.sent.Load() }

// Lost returns the number of protocol messages dropped by the failure
// hook. Control messages are never dropped, so Lost counts protocol
// traffic only, matching Sent's contract.
func (n *Network) Lost() int64 { return n.lost.Load() }

// Control returns the number of control-plane (actor lifecycle and
// timeout-nack) messages delivered, the traffic Sent and Lost exclude.
func (n *Network) Control() int64 { return n.ctrl.Load() }

// Timeouts returns the number of fan-ins that gave up on a missing
// reply (every aggregation level counts its own misses).
func (n *Network) Timeouts() int64 { return n.timeouts.Load() }

// Retries returns the number of retransmissions senders spent
// re-offering dropped protocol messages.
func (n *Network) Retries() int64 { return n.retries.Load() }

// Crashes returns the number of work requests ignored by crashed
// clients under the fault schedule.
func (n *Network) Crashes() int64 { return n.crashes.Load() }

// Latency is a per-link-class cost model used to estimate the simulated
// wall-clock time of a run without sleeping: the engines accumulate the
// per-round critical path (client-edge hops happen in parallel across an
// area; edge-cloud hops in parallel across edges).
type Latency struct {
	// ClientEdgeRTT and EdgeCloudRTT are fixed per-round-trip costs in
	// milliseconds; PerMB adds bandwidth-proportional cost.
	ClientEdgeRTT, EdgeCloudRTT float64
	PerMB                       float64
}

// DefaultLatency models a metropolitan edge deployment: 5 ms to the edge,
// 50 ms to the cloud, 80 ms per transferred megabyte.
func DefaultLatency() Latency {
	return Latency{ClientEdgeRTT: 5, EdgeCloudRTT: 50, PerMB: 80}
}

// ClientEdgeCost returns the simulated cost (ms) of one client-edge round
// trip carrying the given payload.
func (l Latency) ClientEdgeCost(bytes int64) float64 {
	return l.ClientEdgeRTT + l.PerMB*float64(bytes)/1e6
}

// EdgeCloudCost returns the simulated cost (ms) of one edge-cloud round
// trip carrying the given payload.
func (l Latency) EdgeCloudCost(bytes int64) float64 {
	return l.EdgeCloudRTT + l.PerMB*float64(bytes)/1e6
}
