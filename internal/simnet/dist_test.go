package simnet

import (
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/fl"
	"repro/internal/fl/fltest"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/topology"
	"repro/internal/wire"
)

// runWire executes a full distributed run on loopback TCP via
// RunWireLoopback: one cloud, one edge-server runtime and one
// client-host runtime per area, each with its own independently built
// (identical-seed) problem, network and payload arena — exactly the
// process layout cmd/hierminimax -role spawns, minus the process
// boundary.
func runWire(t *testing.T, cfg fl.Config, seed uint64, opts ...Option) (*fl.Result, RunStats) {
	t.Helper()
	res, stats, err := RunWireLoopback(func() *fl.Problem { return fltest.ToyProblem(seed) }, cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res, stats
}

// assertSameRun demands bitwise equality of everything the determinism
// contract covers: the model and weight trajectories, every history
// snapshot, the full communication ledger, and the fault counters.
// PoolRecycled/PoolAllocated are per-process arena internals and are
// deliberately out of scope.
func assertSameRun(t *testing.T, ref, got *fl.Result, refStats, gotStats RunStats) {
	t.Helper()
	for i := range ref.W {
		if ref.W[i] != got.W[i] {
			t.Fatalf("w diverges at %d: %v vs %v", i, ref.W[i], got.W[i])
		}
	}
	for i := range ref.PWeights {
		if ref.PWeights[i] != got.PWeights[i] {
			t.Fatalf("p diverges at %d: %v vs %v", i, ref.PWeights[i], got.PWeights[i])
		}
	}
	if len(ref.History.Snapshots) != len(got.History.Snapshots) {
		t.Fatalf("history length %d vs %d", len(ref.History.Snapshots), len(got.History.Snapshots))
	}
	for s, snap := range ref.History.Snapshots {
		o := got.History.Snapshots[s]
		if snap.Fair != o.Fair {
			t.Fatalf("snapshot %d fairness diverges: %+v vs %+v", s, snap.Fair, o.Fair)
		}
		for i := range snap.P {
			if snap.P[i] != o.P[i] {
				t.Fatalf("snapshot %d p diverges at %d", s, i)
			}
		}
	}
	for _, link := range []topology.Link{topology.ClientEdge, topology.EdgeCloud} {
		if ref.Ledger.Rounds[link] != got.Ledger.Rounds[link] ||
			ref.Ledger.Messages[link] != got.Ledger.Messages[link] ||
			ref.Ledger.Bytes[link] != got.Ledger.Bytes[link] {
			t.Fatalf("%v ledger diverges: %d/%d/%d vs %d/%d/%d", link,
				ref.Ledger.Rounds[link], ref.Ledger.Messages[link], ref.Ledger.Bytes[link],
				got.Ledger.Rounds[link], got.Ledger.Messages[link], got.Ledger.Bytes[link])
		}
	}
	if refStats.SimulatedMs != gotStats.SimulatedMs {
		t.Fatalf("simulated time diverges: %v vs %v", refStats.SimulatedMs, gotStats.SimulatedMs)
	}
	if refStats.MessagesSent != gotStats.MessagesSent || refStats.MessagesLost != gotStats.MessagesLost {
		t.Fatalf("message counters diverge: %d/%d vs %d/%d",
			refStats.MessagesSent, refStats.MessagesLost, gotStats.MessagesSent, gotStats.MessagesLost)
	}
	if refStats.ControlMessages != gotStats.ControlMessages {
		t.Fatalf("control counters diverge: %d vs %d", refStats.ControlMessages, gotStats.ControlMessages)
	}
	if refStats.Timeouts != gotStats.Timeouts || refStats.Retries != gotStats.Retries ||
		refStats.Crashes != gotStats.Crashes {
		t.Fatalf("fault counters diverge: %d/%d/%d vs %d/%d/%d",
			refStats.Timeouts, refStats.Retries, refStats.Crashes,
			gotStats.Timeouts, gotStats.Retries, gotStats.Crashes)
	}
	if gotStats.PoolOutstanding != 0 {
		t.Fatalf("distributed run leaked %d pooled vectors", gotStats.PoolOutstanding)
	}
}

func TestWireMatchesSimnet(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 12
	cfg.EvalEvery = 3
	cfg.TrackAverages = true

	ref, refStats, err := HierMinimax(fltest.ToyProblem(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats := runWire(t, cfg, 3)
	assertSameRun(t, ref, got, refStats, gotStats)
}

func TestWireMatchesSimnetUnderChaos(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 12
	cfg.EvalEvery = 4
	sched := &chaos.Schedule{
		Seed:          99,
		CrashProb:     0.1,
		PartitionProb: 0.05,
		LossProb:      0.08,
		StragglerProb: 0.2,
		StragglerMs:   10,
		MaxRetries:    1,
	}

	ref, refStats, err := HierMinimax(fltest.ToyProblem(4), cfg, WithChaos(sched))
	if err != nil {
		t.Fatal(err)
	}
	if refStats.MessagesLost == 0 && refStats.Crashes == 0 {
		t.Fatal("chaos schedule injected nothing; the parity claim would be vacuous")
	}
	got, gotStats := runWire(t, cfg, 4, WithChaos(sched))
	assertSameRun(t, ref, got, refStats, gotStats)
}

// TestWireHandshakeErrorsAreNamed: a peer built from a different run
// config fails the cloud's handshake at once, naming the mismatch,
// instead of running into the handshake deadline; an edge index outside
// the topology is refused before anything listens.
func TestWireHandshakeErrorsAreNamed(t *testing.T) {
	cfg := fltest.ToyConfig()
	prob := fltest.ToyProblem(3)
	top := prob.Topology()
	addr := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		_, _, err := ServeCloud(prob, cfg, DistConfig{Listen: "127.0.0.1:0", Started: func(a string) { addr <- a }})
		done <- err
	}()
	conn, err := helloDialer(<-addr, wire.Hello{
		Role: wire.RoleEdge, Addr: "127.0.0.1:1", Fingerprint: Fingerprint(cfg.WithDefaults(), top, nil) + 1,
	})()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
			t.Fatalf("cloud returned %v, want a fingerprint mismatch", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cloud still waiting 5 s after a mismatched hello")
	}

	for name, serve := range map[string]func(*fl.Problem, fl.Config, DistConfig, ...Option) error{
		"edge": ServeEdge, "client-host": ServeClientHost,
	} {
		err := serve(prob, cfg, DistConfig{Listen: "127.0.0.1:0", Connect: "127.0.0.1:1", Edge: top.NumEdges})
		if err == nil || !strings.Contains(err.Error(), "outside topology") {
			t.Fatalf("%s with edge %d of %d returned %v, want the topology error", name, top.NumEdges, top.NumEdges, err)
		}
	}
}

func TestWireFingerprintCoversTrajectoryKnobs(t *testing.T) {
	top := topology.Topology{NumEdges: 4, ClientsPerEdge: 2}
	base := fltest.ToyConfig()
	fp := Fingerprint(base, top, nil)
	mutations := []func(*fl.Config){
		func(c *fl.Config) { c.Rounds++ },
		func(c *fl.Config) { c.Tau1++ },
		func(c *fl.Config) { c.Tau2++ },
		func(c *fl.Config) { c.EtaW *= 2 },
		func(c *fl.Config) { c.EtaP *= 2 },
		func(c *fl.Config) { c.BatchSize++ },
		func(c *fl.Config) { c.LossBatch++ },
		func(c *fl.Config) { c.SampledEdges++ },
		func(c *fl.Config) { c.Seed++ },
		func(c *fl.Config) { c.EvalEvery++ },
		func(c *fl.Config) { c.DropoutProb = 0.5 },
		func(c *fl.Config) { c.TrackAverages = true },
		// The cloud's round substitutes the end-of-round model for the
		// checkpoint on its own; only the handshake stops an edge that
		// disagrees.
		func(c *fl.Config) { c.CheckpointOff = true },
		// A compression setting is a rounding regime: mixed peers would
		// silently diverge, so every knob must flip the fingerprint.
		func(c *fl.Config) { c.Compression.Bits = 8 },
		func(c *fl.Config) { c.Compression.TopK = 4 },
		func(c *fl.Config) { c.Compression.ErrorFeedback = true },
	}
	for i, mut := range mutations {
		c := base
		mut(&c)
		if Fingerprint(c, top, nil) == fp {
			t.Fatalf("mutation %d not covered by the fingerprint", i)
		}
	}
	if Fingerprint(base, topology.Topology{NumEdges: 5, ClientsPerEdge: 2}, nil) == fp {
		t.Fatal("topology not covered by the fingerprint")
	}
	sched := chaos.Schedule{Seed: 1, LossProb: 0.1}
	fpChaos := Fingerprint(base, top, &sched)
	if fpChaos == fp {
		t.Fatal("chaos schedule not covered by the fingerprint")
	}
	for i, mut := range []func(*chaos.Schedule){
		func(s *chaos.Schedule) { s.Seed++ },
		func(s *chaos.Schedule) { s.CrashProb = 0.1 },
		func(s *chaos.Schedule) { s.PartitionProb = 0.1 },
		func(s *chaos.Schedule) { s.LossProb *= 2 },
		func(s *chaos.Schedule) { s.StragglerProb = 0.1 },
		func(s *chaos.Schedule) { s.StragglerMs = 5 },
		func(s *chaos.Schedule) { s.TimeoutMs = 10 },
		func(s *chaos.Schedule) { s.MaxRetries = 2 },
	} {
		s := sched
		mut(&s)
		if Fingerprint(base, top, &s) == fpChaos {
			t.Fatalf("chaos mutation %d not covered by the fingerprint", i)
		}
	}
	// The kernel class is a rounding regime, so two processes on
	// different rungs must refuse each other's hello even with
	// identical configs.
	for _, c := range []tensor.KernelClass{tensor.KernelGeneric, tensor.KernelSSE2, tensor.KernelAVX2, tensor.KernelAVX2F32} {
		if c == tensor.ActiveKernel() {
			continue
		}
		restore := tensor.SetKernel(c)
		other := Fingerprint(base, top, nil)
		restore()
		if other == fp {
			t.Fatalf("kernel class %s not covered by the fingerprint", c)
		}
	}
}

// TestReleaseHookAllocatesNothing: the peer Release hook returns a sent
// frame's vectors to the arena, its packed payloads and its struct to
// their pools without allocating — one method value serves every call.
func TestReleaseHookAllocatesNothing(t *testing.T) {
	const d = 7850
	pool := newVecPool(nil)
	release := releaseMessage(pool)
	x, st := make([]float64, d), *rng.New(3)
	packed := func() *quant.Packed {
		p := quant.GetPacked()
		quant.Config{Bits: 8}.Pack(p, x, nil, &st)
		return p
	}
	for name, msg := range map[string]func() Message{
		"dense edge-train-reply": func() Message {
			p := edgeTrainReplyPool.Get().(*edgeTrainReply)
			*p = edgeTrainReply{WEdge: pool.get(d), WChk: pool.get(d), IterSum: pool.get(d)}
			return Message{Payload: p}
		},
		"q8 train-reply": func() Message {
			p := trainReplyPool.Get().(*trainReply)
			*p = trainReply{WFinalP: packed(), WChkP: packed()}
			return Message{Payload: p}
		},
	} {
		run := func() { release(msg()) }
		run() // warm the pools
		if a := fltest.PooledAllocs(t, 100, run); a != 0 {
			t.Errorf("%s: the release hook allocates %.1f times per frame", name, a)
		}
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%d vectors still outstanding after release", n)
	}
}
