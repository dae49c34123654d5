package simnet

import (
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/topology"
)

// faultHook turns a chaos.Schedule into a DropFunc over the engine's
// node set. Partition decisions are pure per (round, edge); link-loss
// decisions consume one sequence number per directed link, held in
// atomics prebuilt for every link the protocol can use, so the
// sealed-network hot path stays lock-free and the loss pattern is
// deterministic: the protocol offers messages on each link in a
// deterministic order (per-link senders are serialized by the actor
// structure), so transfer n of a link is the same logical message in
// every run.
type faultHook struct {
	sched *chaos.Schedule
	seq   map[linkPairKey]*atomic.Uint64
}

// linkPairKey identifies a directed link endpoint pair.
type linkPairKey struct {
	from, to NodeID
}

// linkID folds a directed node pair into the opaque link key the
// schedule's loss stream is branched on.
func linkID(from, to NodeID) uint64 {
	return uint64(from.Kind)<<56 | uint64(uint16(from.Index))<<40 |
		uint64(to.Kind)<<32 | uint64(uint16(to.Index))<<16
}

// newFaultHook prebuilds the per-link sequence counters for every
// directed link of the three-layer protocol: cloud<->edge, edge's reply
// port<->client.
func newFaultHook(sched *chaos.Schedule, top topology.Topology) *faultHook {
	h := &faultHook{sched: sched, seq: make(map[linkPairKey]*atomic.Uint64)}
	cloud := NodeID{Kind: Cloud, Index: 0}
	addLink := func(a, b NodeID) {
		h.seq[linkPairKey{a, b}] = new(atomic.Uint64)
		h.seq[linkPairKey{b, a}] = new(atomic.Uint64)
	}
	for edge := 0; edge < top.NumEdges; edge++ {
		addLink(cloud, NodeID{Kind: Edge, Index: edge})
		port := NodeID{Kind: ReplyPort, Index: edge}
		for c := 0; c < top.ClientsPerEdge; c++ {
			addLink(port, NodeID{Kind: Client, Index: top.ClientID(edge, c)})
		}
	}
	return h
}

// edgeOf returns the edge index a node belongs to, or -1 for non-edge
// nodes (partitions isolate edge servers including their reply ports).
func edgeOf(id NodeID) int {
	if id.Kind == Edge || id.Kind == ReplyPort {
		return id.Index
	}
	return -1
}

// drop implements DropFunc: partition first (an unreachable edge loses
// everything, consuming no per-link sequence numbers), then per-link
// loss. Safe for concurrent senders: the schedule is pure and the
// sequence counters are atomic.
func (h *faultHook) drop(m Message) bool {
	if h.sched.PartitionProb > 0 {
		if e := edgeOf(m.From); e >= 0 && h.sched.EdgePartitioned(m.Round, e) {
			return true
		}
		if e := edgeOf(m.To); e >= 0 && h.sched.EdgePartitioned(m.Round, e) {
			return true
		}
	}
	if h.sched.LossProb > 0 {
		if ctr := h.seq[linkPairKey{m.From, m.To}]; ctr != nil {
			if h.sched.LinkLost(linkID(m.From, m.To), ctr.Add(1)) {
				return true
			}
		}
	}
	return false
}
