package hierfair

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/fl"
	"repro/internal/simnet"
)

// DistConfig places one process of a distributed (real-TCP) run. Every
// process of the run must be given the same Spec: each one rebuilds the
// same problem from the same seed, and a fingerprint handshake rejects
// peers whose trajectory-relevant knobs differ. Its fields are
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

// distProblem validates a Spec for distributed execution and builds the
// problem, engine config and fault schedule every role shares.
func (s Spec) distProblem() (*fl.Problem, fl.Config, *chaos.Schedule, error) {
	if s.Engine == "" || s.Engine == EngineInProcess {
		s.Engine = EngineSimNet // the wire runtimes sit behind the simnet seam
	}
	if err := s.normalize(); err != nil {
		return nil, fl.Config{}, nil, err
	}
	if s.Algorithm != AlgHierMinimax {
		return nil, fl.Config{}, nil, fmt.Errorf("hierfair: distributed roles only run %s", AlgHierMinimax)
	}
	if len(s.Branching) > 0 {
		return nil, fl.Config{}, nil, fmt.Errorf("hierfair: distributed roles do not support multi-layer trees")
	}
	if s.Population > 0 {
		// The wire runtimes place one client actor per resident client on
		// real sockets; a sparse population has no resident clients to
		// place. Use the in-process or simnet engine for population runs.
		return nil, fl.Config{}, nil, fmt.Errorf("hierfair: distributed roles do not support Spec.Population (virtual cohorts need no client processes)")
	}
	prob, cfg, err := s.buildProblem()
	if err != nil {
		return nil, fl.Config{}, nil, err
	}
	return prob, cfg, s.Chaos.schedule(s.Seed), nil
}

func (s Spec) distOpts(sched *chaos.Schedule) []simnet.Option {
	if sched == nil {
		return nil
	}
	return []simnet.Option{simnet.WithChaos(sched)}
}

// RunCloud runs the cloud role of a distributed run: it listens on
// dist.Listen, waits for every edge's hello and readiness, drives the
// training rounds over the sockets, and reports exactly like Run — the
// trajectory is bitwise-identical to the same Spec on EngineSimNet.
func RunCloud(spec Spec, dist DistConfig) (*Report, error) {
	prob, cfg, sched, err := spec.distProblem()
	if err != nil {
		return nil, err
	}
	res, stats, err := simnet.ServeCloud(prob, cfg, simnet.DistConfig(dist), spec.distOpts(sched)...)
	if err != nil {
		return nil, err
	}
	return newReport(prob, res, stats), nil
}

// RunEdge serves one edge area of a distributed run, connecting up to
// the cloud at dist.Connect and hosting the edge aggregation actor. It
// blocks until the cloud finishes the run.
func RunEdge(spec Spec, dist DistConfig) error {
	prob, cfg, sched, err := spec.distProblem()
	if err != nil {
		return err
	}
	return simnet.ServeEdge(prob, cfg, simnet.DistConfig(dist), spec.distOpts(sched)...)
}

// RunClientHost serves the client actors of one edge area, connecting up
// to that area's edge server at dist.Connect. It blocks until the cloud
// finishes the run.
func RunClientHost(spec Spec, dist DistConfig) error {
	prob, cfg, sched, err := spec.distProblem()
	if err != nil {
		return err
	}
	return simnet.ServeClientHost(prob, cfg, simnet.DistConfig(dist), spec.distOpts(sched)...)
}
