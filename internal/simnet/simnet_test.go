package simnet

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fl/fltest"
	"repro/internal/quant"
	"repro/internal/topology"
)

func TestNetworkBasics(t *testing.T) {
	n := NewNetwork()
	box := n.Register(NodeID{Kind: Client, Index: 0}, 1)
	n.Seal()
	ok := n.Send(Message{From: NodeID{Kind: Cloud, Index: 0}, To: NodeID{Kind: Client, Index: 0}, Kind: "x", Payload: 42})
	if !ok {
		t.Fatal("send failed")
	}
	msg := <-box
	if msg.Payload.(int) != 42 {
		t.Fatal("wrong payload")
	}
	if n.Sent() != 1 || n.Lost() != 0 {
		t.Fatal("stats wrong")
	}
}

func TestNetworkDuplicateRegistrationPanics(t *testing.T) {
	n := NewNetwork()
	n.Register(NodeID{Kind: Edge, Index: 1}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	n.Register(NodeID{Kind: Edge, Index: 1}, 1)
}

func TestNetworkSendToUnregisteredPanics(t *testing.T) {
	n := NewNetwork()
	n.Seal()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	n.Send(Message{To: NodeID{Kind: Edge, Index: 9}})
}

func TestNetworkDrop(t *testing.T) {
	n := NewNetwork()
	n.Register(NodeID{Kind: Client, Index: 0}, 4)
	n.SetDrop(func(m Message) bool { return m.Kind == "lossy" })
	n.Seal()
	if n.Send(Message{To: NodeID{Kind: Client, Index: 0}, Kind: "lossy"}) {
		t.Fatal("dropped message reported delivered")
	}
	if !n.Send(Message{To: NodeID{Kind: Client, Index: 0}, Kind: "fine"}) {
		t.Fatal("clean message dropped")
	}
	if n.Lost() != 1 || n.Sent() != 2 {
		t.Fatalf("stats: sent=%d lost=%d", n.Sent(), n.Lost())
	}
}

func TestNetworkClose(t *testing.T) {
	n := NewNetwork()
	n.Register(NodeID{Kind: Client, Index: 0}, 1)
	n.Seal()
	n.Close()
	if n.Send(Message{To: NodeID{Kind: Client, Index: 0}}) {
		t.Fatal("send succeeded after close")
	}
}

func TestNodeIDStrings(t *testing.T) {
	for _, k := range []NodeKind{Cloud, Edge, Client, ReplyPort} {
		if k.String() == "" || (NodeID{Kind: k, Index: 3}).String() == "" {
			t.Fatal("empty name")
		}
	}
	if NodeKind(99).String() == "" {
		t.Fatal("unknown kind must print")
	}
}

func TestLatencyCosts(t *testing.T) {
	l := DefaultLatency()
	if l.ClientEdgeCost(0) != l.ClientEdgeRTT {
		t.Fatal("zero-byte cost should be the RTT")
	}
	if l.EdgeCloudCost(1e6) <= l.EdgeCloudCost(0) {
		t.Fatal("bytes must add cost")
	}
}

// The headline property: the actor engine reproduces the in-process
// engine bit for bit.
func TestSimnetMatchesCoreEngine(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 40

	ref, err := core.HierMinimax(fltest.ToyProblem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, stats, err := HierMinimax(fltest.ToyProblem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.W {
		if ref.W[i] != sim.W[i] {
			t.Fatalf("w diverges at %d: %v vs %v", i, ref.W[i], sim.W[i])
		}
	}
	for i := range ref.PWeights {
		if ref.PWeights[i] != sim.PWeights[i] {
			t.Fatalf("p diverges at %d", i)
		}
	}
	if ref.Ledger.CloudRounds() != sim.Ledger.CloudRounds() {
		t.Fatalf("cloud rounds %d vs %d", ref.Ledger.CloudRounds(), sim.Ledger.CloudRounds())
	}
	if ref.Ledger.Bytes[topology.ClientEdge] != sim.Ledger.Bytes[topology.ClientEdge] {
		t.Fatalf("client-edge bytes %d vs %d",
			ref.Ledger.Bytes[topology.ClientEdge], sim.Ledger.Bytes[topology.ClientEdge])
	}
	if stats.MessagesSent == 0 {
		t.Fatal("no messages counted")
	}
	if stats.SimulatedMs <= 0 {
		t.Fatal("no simulated time accumulated")
	}
}

func TestSimnetTrackedAveragesMatchCore(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 25
	cfg.TrackAverages = true
	ref, err := core.HierMinimax(fltest.ToyProblem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, _, err := HierMinimax(fltest.ToyProblem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.WHat {
		if ref.WHat[i] != sim.WHat[i] {
			t.Fatalf("wHat diverges at %d: %v vs %v", i, ref.WHat[i], sim.WHat[i])
		}
	}
	for i := range ref.PHat {
		if ref.PHat[i] != sim.PHat[i] {
			t.Fatalf("pHat diverges at %d", i)
		}
	}
}

// The strongest form of the equivalence: with per-round evaluation and
// iterate tracking on, every history snapshot — model metrics, edge
// weights, and the complete communication ledger (rounds, messages and
// bytes on every link class) — must be identical between the two
// engines, not just the final state.
func TestSimnetFullTrajectoryMatchesCore(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 20
	cfg.EvalEvery = 1
	cfg.TrackAverages = true

	ref, err := core.HierMinimax(fltest.ToyProblem(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, _, err := HierMinimax(fltest.ToyProblem(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Ledger != sim.Ledger {
		t.Fatalf("final ledgers differ:\ncore   %+v\nsimnet %+v", ref.Ledger, sim.Ledger)
	}
	if len(ref.History.Snapshots) != len(sim.History.Snapshots) {
		t.Fatalf("snapshot counts differ: %d vs %d",
			len(ref.History.Snapshots), len(sim.History.Snapshots))
	}
	for s, rs := range ref.History.Snapshots {
		ss := sim.History.Snapshots[s]
		if rs.Round != ss.Round || rs.Slots != ss.Slots {
			t.Fatalf("snapshot %d round/slots differ", s)
		}
		if rs.Ledger != ss.Ledger {
			t.Fatalf("snapshot %d ledgers differ:\ncore   %+v\nsimnet %+v", s, rs.Ledger, ss.Ledger)
		}
		if rs.Fair != ss.Fair {
			t.Fatalf("snapshot %d fairness differs", s)
		}
		for i := range rs.P {
			if rs.P[i] != ss.P[i] {
				t.Fatalf("snapshot %d p[%d] differs: %v vs %v", s, i, rs.P[i], ss.P[i])
			}
		}
		for a := range rs.Areas.Accuracy {
			if rs.Areas.Accuracy[a] != ss.Areas.Accuracy[a] || rs.Areas.Loss[a] != ss.Areas.Loss[a] {
				t.Fatalf("snapshot %d area %d metrics differ", s, a)
			}
		}
	}
	for i := range ref.WHat {
		if ref.WHat[i] != sim.WHat[i] {
			t.Fatalf("wHat diverges at %d", i)
		}
	}
}

func TestSimnetLearns(t *testing.T) {
	cfg := fltest.ToyConfig()
	res, _, err := HierMinimax(fltest.ToyProblem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if final := res.History.Final().Fair; final.Average < 0.75 {
		t.Fatalf("simnet run reached only %v", final.Average)
	}
}

func TestSimnetSurvivesMessageLoss(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 150
	// Lose ~10% of protocol transfers on every link: each fan-in
	// aggregates the survivors.
	res, stats, err := HierMinimax(fltest.ToyProblem(1), cfg, WithChaos(&chaos.Schedule{Seed: 7, LossProb: 0.1}))
	if err != nil {
		t.Fatal(err)
	}
	if stats.MessagesLost == 0 {
		t.Fatal("link loss never fired")
	}
	if !fltest.AllFinite(res.W) {
		t.Fatal("non-finite parameters under message loss")
	}
	if final := res.History.Final().Fair; final.Average < 0.6 {
		t.Fatalf("run under message loss reached only %v", final.Average)
	}
}

func TestSimnetRejectsUnsupportedConfig(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Compression = quant.Config{Bits: 8, TopK: 4} // mutually exclusive regimes
	if _, _, err := HierMinimax(fltest.ToyProblem(1), cfg); err == nil {
		t.Fatal("invalid compression config accepted")
	}
	cfg = fltest.ToyConfig()
	bad := &chaos.Schedule{CrashProb: 1.5}
	if _, _, err := HierMinimax(fltest.ToyProblem(1), cfg, WithChaos(bad)); err == nil {
		t.Fatal("invalid chaos schedule accepted")
	}
}

func TestSimnetDuplicateSlotsOnOneEdge(t *testing.T) {
	// With m_E close to N_E and weighted sampling, the same edge is
	// regularly sampled for two slots in a round; the serialized edge
	// actor must handle both without deadlock and still match core.
	cfg := fltest.ToyConfig()
	cfg.Rounds = 30
	cfg.SampledEdges = 4 // guarantee duplicates under p-weighted sampling
	ref, err := core.HierMinimax(fltest.ToyProblem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, _, err := HierMinimax(fltest.ToyProblem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.W {
		if ref.W[i] != sim.W[i] {
			t.Fatalf("w diverges at %d with duplicate slots", i)
		}
	}
}

// Client actors (and client hosts over TCP) answer a Phase-2 fan-out
// concurrently, so the edge must sum their losses in client order, as
// fl.Cohort.LossEstimate does, not in arrival order: 0.3+0.2+0.1 and
// 0.1+0.2+0.3 differ in the last bit.
func TestEdgeLossEstimateSumsInClientOrder(t *testing.T) {
	n := NewNetwork()
	port := NodeID{Kind: ReplyPort, Index: 0}
	e := &edgeActor{net: n, port: port, replies: n.Register(port, 3)}
	for c := 0; c < 3; c++ {
		e.clients = append(e.clients, NodeID{Kind: Client, Index: c})
		n.Register(e.clients[c], 1)
	}
	e.losses = make([]*lossReply, 3)
	n.Seal()
	losses := []float64{0.1, 0.2, 0.3}
	for c := 2; c >= 0; c-- { // replies queued in reverse client order
		n.Send(Message{To: port, Kind: "loss-reply", Bytes: 8,
			Payload: &lossReply{Client: c, Loss: losses[c]}})
	}
	loss, ok, _ := e.lossEstimate(&edgeLossReq{W: n.pool.get(1), LossBatch: 1}, 0)
	if want := (losses[0] + losses[1] + losses[2]) / 3; !ok || loss != want {
		t.Fatalf("loss estimate %v (ok %v), client-order mean is %v", loss, ok, want)
	}
}

// Longer straggler delays cost more simulated time and never change
// the trajectory.
func TestStragglersSlowSimulatedTime(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 30
	fast, statsFast, err := HierMinimax(fltest.ToyProblem(1), cfg,
		WithChaos(&chaos.Schedule{Seed: 3, StragglerProb: 0.3, StragglerMs: 5}))
	if err != nil {
		t.Fatal(err)
	}
	slow, statsSlow, err := HierMinimax(fltest.ToyProblem(1), cfg,
		WithChaos(&chaos.Schedule{Seed: 3, StragglerProb: 0.3, StragglerMs: 50}))
	if err != nil {
		t.Fatal(err)
	}
	if statsSlow.SimulatedMs <= statsFast.SimulatedMs {
		t.Fatalf("straggler run not slower: %v vs %v", statsSlow.SimulatedMs, statsFast.SimulatedMs)
	}
	for i := range fast.W {
		if fast.W[i] != slow.W[i] {
			t.Fatal("straggler model changed the trajectory")
		}
	}
}

// Simulated time prices the bytes each transfer carries: 8-bit uplinks
// finish the same rounds sooner than dense ones.
func TestCompressedUplinksCostLessTime(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 10
	_, dense, err := HierMinimax(fltest.ToyProblem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Compression = quant.Config{Bits: 8}
	_, packed, err := HierMinimax(fltest.ToyProblem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if packed.SimulatedMs >= dense.SimulatedMs {
		t.Fatalf("8-bit uplinks not cheaper: %v vs dense %v", packed.SimulatedMs, dense.SimulatedMs)
	}
}
