// Package topology models the multi-layer hub-and-spoke network of the
// paper (§3): N_E edge servers under one cloud server, N0 clients per
// edge server, and the communication ledger that counts what every
// algorithm spends on each link class.
//
// Two-layer baselines (FedAvg, Stochastic-AFL, DRFA) run on the same
// topology with the cloud talking to clients directly; their traffic is
// recorded on the ClientCloud link class so all five algorithms report
// comparable "communication rounds".
package topology

import "fmt"

// Topology describes a three-layer client-edge-cloud network with equal
// area sizes (|N_e| = N0 for all e, as assumed in §3).
type Topology struct {
	NumEdges       int // N_E
	ClientsPerEdge int // N0
}

// New validates and returns a topology.
func New(numEdges, clientsPerEdge int) Topology {
	if numEdges <= 0 || clientsPerEdge <= 0 {
		panic("topology: non-positive dimensions")
	}
	return Topology{NumEdges: numEdges, ClientsPerEdge: clientsPerEdge}
}

// NumClients returns N = N0 * N_E.
func (t Topology) NumClients() int { return t.NumEdges * t.ClientsPerEdge }

// ClientID returns the global client index of the i-th client of edge e.
func (t Topology) ClientID(edge, i int) int {
	if edge < 0 || edge >= t.NumEdges || i < 0 || i >= t.ClientsPerEdge {
		panic(fmt.Sprintf("topology: client (%d,%d) out of range", edge, i))
	}
	return edge*t.ClientsPerEdge + i
}

// EdgeOf returns the edge server that client n is associated with.
func (t Topology) EdgeOf(client int) int {
	if client < 0 || client >= t.NumClients() {
		panic(fmt.Sprintf("topology: client %d out of range", client))
	}
	return client / t.ClientsPerEdge
}

func (t Topology) String() string {
	return fmt.Sprintf("cloud/%d-edges/%d-clients-each", t.NumEdges, t.ClientsPerEdge)
}
