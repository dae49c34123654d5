package topology

import (
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// Link identifies a class of network links in the hierarchy.
type Link int

// Link classes. EdgeCloud and ClientCloud both terminate at the cloud
// and together form the "cloud rounds" axis of Figures 3-4; ClientEdge
// traffic stays inside an edge area (the cheap, low-latency links the
// hierarchical design exploits).
const (
	ClientEdge Link = iota
	EdgeCloud
	ClientCloud
	// MidTier covers links between intermediate aggregation levels of a
	// tree deeper than three layers (core.HierMinimaxTree); a 3-layer run
	// never uses it.
	MidTier
	numLinks
)

func (l Link) String() string {
	switch l {
	case ClientEdge:
		return "client-edge"
	case EdgeCloud:
		return "edge-cloud"
	case ClientCloud:
		return "client-cloud"
	case MidTier:
		return "mid-tier"
	}
	return fmt.Sprintf("link(%d)", int(l))
}

// Ledger counts communication per link class. A "round" is one
// synchronization pass over a link class (e.g. the cloud broadcasting the
// global model to the sampled edges is 1 edge-cloud round, regardless of
// how many edges are involved); messages and bytes count the individual
// transfers inside that pass. This matches how the paper reports
// "communication rounds" while still exposing message- and byte-level
// detail for the overhead analyses.
//
// Ledger is safe for concurrent use: the parallel and simnet engines
// record transfers from many goroutines.
type Ledger struct {
	mu       sync.Mutex
	rounds   [numLinks]int64
	messages [numLinks]int64
	bytes    [numLinks]int64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// RecordRound records one synchronization pass of nMessages transfers of
// bytesEach bytes over the link class.
func (l *Ledger) RecordRound(link Link, nMessages int, bytesEach int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rounds[link]++
	l.messages[link] += int64(nMessages)
	l.bytes[link] += int64(nMessages) * bytesEach
}

// RecordBulk records rounds synchronization passes comprising messages
// transfers of bytes total over the link class in one consistent write.
// The simnet engine uses it to apply the delivery accounting carried by
// aggregated replies: under fault injection a round's client-edge
// traffic is only known after the fan-in, and partial rounds record
// only the transfers that actually happened.
func (l *Ledger) RecordBulk(link Link, rounds int, messages, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rounds[link] += int64(rounds)
	l.messages[link] += messages
	l.bytes[link] += bytes
}

// Snapshot returns a consistent copy of all counters.
func (l *Ledger) Snapshot() LedgerSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	var s LedgerSnapshot
	for i := Link(0); i < numLinks; i++ {
		s.Rounds[i] = l.rounds[i]
		s.Messages[i] = l.messages[i]
		s.Bytes[i] = l.bytes[i]
	}
	return s
}

// Restore overwrites all counters from a snapshot, the inverse of
// Snapshot. Checkpoint resume uses it to replay the communication totals
// of the interrupted run in one consistent write.
func (l *Ledger) Restore(s LedgerSnapshot) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := Link(0); i < numLinks; i++ {
		l.rounds[i] = s.Rounds[i]
		l.messages[i] = s.Messages[i]
		l.bytes[i] = s.Bytes[i]
	}
}

// LedgerSnapshot is an immutable copy of a Ledger's counters.
type LedgerSnapshot struct {
	Rounds   [numLinks]int64
	Messages [numLinks]int64
	Bytes    [numLinks]int64
}

// CloudRounds returns the snapshot's rounds terminating at the cloud:
// the sum of edge-cloud and client-cloud rounds. This is the x-axis of
// Figs. 3-4.
func (s LedgerSnapshot) CloudRounds() int64 {
	return s.Rounds[EdgeCloud] + s.Rounds[ClientCloud]
}

// CloudBytes returns the snapshot's bytes over links terminating at the
// cloud.
func (s LedgerSnapshot) CloudBytes() int64 {
	return s.Bytes[EdgeCloud] + s.Bytes[ClientCloud]
}

// TotalBytes returns the snapshot's bytes over all links.
func (s LedgerSnapshot) TotalBytes() int64 {
	var sum int64
	for _, b := range s.Bytes {
		sum += b
	}
	return sum
}

// ModelBytes returns the wire size of a d-dimensional model vector
// under the active storage regime: 4 bytes per element on the avx2f32
// float32 tier, 8 elsewhere (tensor.ElemBytes).
func ModelBytes(d int) int64 { return int64(d) * int64(tensor.ElemBytes()) }
