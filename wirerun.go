package hierfair

import "repro/internal/simnet"

// DistConfig places one process of a distributed (real-TCP) run. Every
// process of the run must be given the same Spec: each one rebuilds the
// same problem from the same seed, and a fingerprint handshake rejects
// peers whose engine config, topology, fault schedule or kernel class
// differ (not yet their dataset or model; see simnet.Fingerprint). Its fields are
// simnet.DistConfig's, so the role functions convert it.
type DistConfig struct {
	// Listen is this process's TCP bind address (":0" picks a free
	// port; Started reports the choice).
	Listen string
	// Connect is the upstream address: the cloud for an edge, the edge
	// for a client host. Unused by the cloud role.
	Connect string
	// Edge is the edge-area index served (edge and client-host roles).
	Edge int
	// Started, when set, is called once with the bound listen address.
	Started func(addr string)
}

// RunCloud runs the cloud role of a distributed run: it listens on
// dist.Listen, waits for every edge's hello and readiness, drives the
// training rounds over the sockets, and reports exactly like Run — the
// trajectory is bitwise-identical to the same Spec on EngineSimNet.
func RunCloud(spec Spec, dist DistConfig) (*Report, error) {
	prob, cfg, opts, err := spec.plan(true)
	if err != nil {
		return nil, err
	}
	res, stats, err := simnet.ServeCloud(prob, cfg, simnet.DistConfig(dist), opts...)
	if err != nil {
		return nil, err
	}
	return newReport(prob, res, stats), nil
}

// RunEdge serves one edge area of a distributed run, connecting up to
// the cloud at dist.Connect and hosting the edge aggregation actor. It
// blocks until the cloud finishes the run.
func RunEdge(spec Spec, dist DistConfig) error {
	prob, cfg, opts, err := spec.plan(true)
	if err != nil {
		return err
	}
	return simnet.ServeEdge(prob, cfg, simnet.DistConfig(dist), opts...)
}

// RunClientHost serves the client actors of one edge area, connecting up
// to that area's edge server at dist.Connect. It blocks until the cloud
// finishes the run.
func RunClientHost(spec Spec, dist DistConfig) error {
	prob, cfg, opts, err := spec.plan(true)
	if err != nil {
		return err
	}
	return simnet.ServeClientHost(prob, cfg, simnet.DistConfig(dist), opts...)
}
