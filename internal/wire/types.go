// Package wire is the real transport behind the simnet message fabric:
// a stdlib-only TCP transport with a length-prefixed binary codec for
// the hierarchical protocol's message types, and per-peer senders that
// each keep one redialing connection behind a bounded send queue, which
// exerts backpressure instead of the in-process fabric's buffered
// mailboxes.
//
// The package owns the protocol vocabulary — node identifiers, the
// message envelope, and the typed payload structs — which
// internal/simnet aliases, so the same actor code runs unchanged over
// goroutine mailboxes (simnet's Network) and over real sockets
// (simnet's wire runtimes built on this package). Determinism contract:
// the codec is bitwise-faithful (float64 payloads travel as raw IEEE
// bits, rng streams as their full generator state), frames of one
// directed link are never reordered, and fault decisions stay on the
// sending side — so a training trajectory over TCP is byte-for-byte the
// trajectory of the in-process run (DESIGN.md §12).
package wire

import (
	"fmt"
	"sync"

	"repro/internal/quant"
	"repro/internal/rng"
)

// NodeKind classifies nodes in the hierarchy.
type NodeKind int

// Node kinds. ReplyPort is the dedicated response mailbox of an edge
// server, kept separate from its request mailbox so queued requests are
// never consumed by a reply-await loop.
const (
	Cloud NodeKind = iota
	Edge
	Client
	ReplyPort
)

func (k NodeKind) String() string {
	switch k {
	case Cloud:
		return "cloud"
	case Edge:
		return "edge"
	case Client:
		return "client"
	case ReplyPort:
		return "edge-port"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// NodeID identifies a node: the cloud is {Cloud, 0}, edge servers are
// {Edge, e}, clients are {Client, globalClientIndex}.
type NodeID struct {
	Kind  NodeKind
	Index int
}

func (id NodeID) String() string { return fmt.Sprintf("%s-%d", id.Kind, id.Index) }

// Message is one transfer between nodes, over a mailbox or a socket.
type Message struct {
	From, To NodeID
	// Kind names the protocol step (e.g. "train-req"); used by the drop
	// hook and the statistics.
	Kind string
	// Payload is the message body; senders must not retain references to
	// mutable payload state after a successful send (single-owner
	// discipline — pooled payload vectors transfer to the receiver). If
	// a send reports failure the sender still owns the payload and must
	// release it.
	Payload any
	// Bytes is the wire size used by the latency model and the per-link
	// byte counters: the actual payload bytes of the transfer.
	Bytes int64
	// Round is the training round the message belongs to; the fault
	// schedule keys per-round decisions (crashes, partitions) on it.
	Round int
	// Ctrl marks control traffic: timeout nacks and lifecycle messages.
	// Control traffic is reliable by construction — a nack models the
	// receiver-side deadline firing, which no network fault can prevent.
	Ctrl bool
}

// IsControl reports whether the message is control-plane traffic (actor
// lifecycle, timeout nacks) rather than a protocol step. Control
// messages are exempt from the drop hook (the injected failures model
// lossy data links, not the protocol's own bookkeeping) and are
// excluded from the sent/lost and link-class counters.
func (m Message) IsControl() bool {
	if m.Ctrl {
		return true
	}
	_, ok := m.Payload.(Stop)
	return ok
}

// Protocol payloads. All payloads travel as pointers to structs recycled
// through the typed pools below, and every []float64 inside them is
// drawn from the owning runtime's payload arena: a send transfers
// ownership of the struct and its vectors to the receiver, which
// returns both after use (single-owner discipline, DESIGN.md §9).
// Streams are embedded by value so deriving a per-message stream
// allocates nothing.

// TrainReq asks a client to run local SGD from W. Block is the
// aggregation-block index t2 within the slot: clients running top-k
// compression with error feedback reset their residual on Block 0, so
// residual state is slot-scoped exactly like the core engine's.
type TrainReq struct {
	W      []float64
	Steps  int
	Batch  int
	ChkAt  int
	Block  int
	Eta    float64
	Stream rng.Stream
	Client int // client index within its area
}

// TrainReply returns the client's final model, optional checkpoint, and
// (when iterate tracking is on) the sum of visited iterates. Failed
// marks a timeout nack: the client crashed or its reply was lost — the
// vectors are nil and the edge aggregates without this client.
//
// Under a compression regime the model and checkpoint travel as Packed
// payloads (WFinalP/WChkP, pooled via quant.GetPacked) instead of dense
// vectors; the dense fields stay nil and the iterate sum always travels
// dense. At most one form of each payload is set.
type TrainReply struct {
	Client       int
	WFinal, WChk []float64
	WFinalP      *quant.Packed
	WChkP        *quant.Packed
	IterSum      []float64
	Failed       bool
}

// LossReq asks a client for a mini-batch loss estimate of W.
type LossReq struct {
	W      []float64
	Batch  int
	Stream rng.Stream
	Client int
}

// LossReply returns the client's loss estimate (or a Failed nack).
type LossReply struct {
	Client int
	Loss   float64
	Failed bool
}

// SlotAcct is one slot's client-edge delivery accounting, carried back
// to the cloud on the (nack or real) edge reply: only traffic that was
// actually delivered is recorded in the ledger, so under faults the
// ledger, the obs transport counters and RunStats reconcile exactly.
// TimeoutBlocks counts the aggregation blocks in which the edge's
// fan-in deadline fired (at least one client missing).
type SlotAcct struct {
	Blocks              int
	DownMsgs, DownBytes int64
	UpMsgs, UpBytes     int64
	TimeoutBlocks       int
}

// Down folds one delivered downlink transfer into the account.
func (a *SlotAcct) Down(bytes int64) { a.DownMsgs++; a.DownBytes += bytes }

// Up folds one delivered uplink transfer into the account.
func (a *SlotAcct) Up(bytes int64) { a.UpMsgs++; a.UpBytes += bytes }

// EdgeTrainReq asks an edge server to run ModelUpdate for one slot.
// Doomed marks algorithm-level dropout (Config.DropoutProb, decided by
// fl.SlotDropped on the cloud): the edge fails the slot without
// touching its clients, matching the in-process engine's accounting.
type EdgeTrainReq struct {
	W      []float64
	C1, C2 int
	Slot   int
	Stream rng.Stream
	Doomed bool
}

// EdgeTrainReply returns the slot's aggregated edge model, checkpoint,
// and (when tracking) iterate sum. Failed marks a nack (doomed slot,
// partitioned edge or lost uplink); Acct always carries the slot's
// delivered client-edge traffic. Under a compression regime the model
// and checkpoint travel as Packed payloads (WEdgeP/WChkP) instead of
// the dense vectors, like TrainReply's.
type EdgeTrainReply struct {
	Slot        int
	WEdge, WChk []float64
	WEdgeP      *quant.Packed
	WChkP       *quant.Packed
	IterSum     []float64
	IterCount   float64
	Failed      bool
	Doomed      bool
	Acct        SlotAcct
}

// EdgeLossReq asks an edge server for its area loss estimate at W.
type EdgeLossReq struct {
	W         []float64
	Seq       int
	LossBatch int
	Stream    rng.Stream
	Doomed    bool
}

// EdgeLossReply returns the edge's averaged loss estimate. Failed means
// no estimate (doomed edge, or every client of the area failed); the
// cloud then leaves the slot out of the gradient estimate, exactly like
// the in-process engine's dropped Phase-2 edges.
type EdgeLossReply struct {
	Seq    int
	Loss   float64
	Failed bool
	Doomed bool
	Acct   SlotAcct
}

// Stop terminates an actor loop. It is the only by-value payload:
// control traffic carries no pooled state.
type Stop struct{}

// Typed recycling pools for the message structs. Receivers put a struct
// back as soon as they have taken ownership of its contents; the
// structs are tiny, so sync.Pool's per-P caches make the steady-state
// cost of a message two pointer swaps.
var (
	TrainReqPool       = sync.Pool{New: func() any { return new(TrainReq) }}
	TrainReplyPool     = sync.Pool{New: func() any { return new(TrainReply) }}
	LossReqPool        = sync.Pool{New: func() any { return new(LossReq) }}
	LossReplyPool      = sync.Pool{New: func() any { return new(LossReply) }}
	EdgeTrainReqPool   = sync.Pool{New: func() any { return new(EdgeTrainReq) }}
	EdgeTrainReplyPool = sync.Pool{New: func() any { return new(EdgeTrainReply) }}
	EdgeLossReqPool    = sync.Pool{New: func() any { return new(EdgeLossReq) }}
	EdgeLossReplyPool  = sync.Pool{New: func() any { return new(EdgeLossReply) }}
)
