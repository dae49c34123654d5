package simnet

import (
	"bytes"
	"testing"

	"repro/internal/fl/fltest"
	"repro/internal/obs"
	"repro/internal/topology"
)

// The per-link-class message counters recorded by the Network must
// reconcile exactly with the topology.Ledger totals of the same run: the
// ledger is the cloud's logical account of the protocol, the obs
// counters are the transport's, and the deterministic protocol makes
// them two views of the same traffic. Control (shutdown) messages are
// kept out of the link classes for exactly this reconciliation.
func TestObsMessageCountersMatchLedger(t *testing.T) {
	hub := obs.New()
	prev := obs.SetGlobal(hub)
	defer obs.SetGlobal(prev)

	cfg := fltest.ToyConfig()
	cfg.Rounds = 12
	res, stats, err := HierMinimax(fltest.ToyProblem(3), cfg)
	if err != nil {
		t.Fatal(err)
	}

	reg := hub.Registry()
	counter := func(name string) int64 { return reg.Counter(name).Value() }

	ce := counter(`simnet_messages_sent_total{link="client-edge"}`)
	ec := counter(`simnet_messages_sent_total{link="edge-cloud"}`)
	cc := counter(`simnet_messages_sent_total{link="client-cloud"}`)
	if want := res.Ledger.Messages[topology.ClientEdge]; ce != want {
		t.Fatalf("client-edge messages: obs %d, ledger %d", ce, want)
	}
	if want := res.Ledger.Messages[topology.EdgeCloud]; ec != want {
		t.Fatalf("edge-cloud messages: obs %d, ledger %d", ec, want)
	}
	if cc != 0 || res.Ledger.Messages[topology.ClientCloud] != 0 {
		t.Fatalf("client-cloud traffic in a hierarchical run: obs %d, ledger %d",
			cc, res.Ledger.Messages[topology.ClientCloud])
	}

	// The transport saw exactly the protocol messages (shutdown controls
	// are counted apart — see Network.Control — and excluded from
	// Sent/Lost by contract), and nothing was dropped.
	if got := ce + ec + cc; got != stats.MessagesSent {
		t.Fatalf("protocol messages: obs %d, runstats %d", got, stats.MessagesSent)
	}
	if control := counter("simnet_control_messages_total"); control == 0 {
		t.Fatal("no control messages counted for actor shutdown")
	}
	for _, class := range []string{"client-edge", "edge-cloud", "client-cloud"} {
		if d := counter(`simnet_messages_dropped_total{link="` + class + `"}`); d != 0 {
			t.Fatalf("dropped %d %s messages without a drop hook", d, class)
		}
	}

	// Mailbox high-water marks were observed and stayed within the
	// registered buffer capacities.
	for kind, capLimit := range map[string]float64{
		"cloud":     float64(2*cfg.SampledEdges + 4),
		"edge":      4,
		"client":    2,
		"edge-port": float64(2 + 1), // ClientsPerEdge+1 on the toy problem
	} {
		hwm := reg.Gauge(`simnet_mailbox_depth_hwm{kind="` + kind + `"}`).Value()
		if hwm <= 0 {
			t.Fatalf("no mailbox depth recorded for %s", kind)
		}
		if hwm > capLimit {
			t.Fatalf("%s mailbox high-water %g exceeds buffer %g", kind, hwm, capLimit)
		}
	}

	// Byte counters reconcile on every link class: each message reports
	// its actual payload bytes, and the ledger records the same actual
	// sizes, so the two accounts agree to the byte.
	ecBytes := counter(`simnet_bytes_sent_total{link="edge-cloud"}`)
	if want := res.Ledger.Bytes[topology.EdgeCloud]; ecBytes != want {
		t.Fatalf("edge-cloud bytes: obs %d, ledger %d", ecBytes, want)
	}
	ceBytes := counter(`simnet_bytes_sent_total{link="client-edge"}`)
	if want := res.Ledger.Bytes[topology.ClientEdge]; ceBytes != want {
		t.Fatalf("client-edge bytes: obs %d, ledger %d", ceBytes, want)
	}

	// Pool hygiene: the run leaked no payload vectors, and steady-state
	// traffic was served by recycling, not allocation.
	if stats.PoolOutstanding != 0 {
		t.Fatalf("payload leak: %d pooled vectors outstanding after run", stats.PoolOutstanding)
	}
	if stats.PoolRecycled == 0 || stats.PoolAllocated == 0 {
		t.Fatalf("pool counters not live: recycled=%d allocated=%d",
			stats.PoolRecycled, stats.PoolAllocated)
	}
	if stats.PoolAllocated >= stats.PoolRecycled {
		t.Fatalf("pool barely reused: allocated=%d recycled=%d",
			stats.PoolAllocated, stats.PoolRecycled)
	}
	if stats.ControlMessages == 0 {
		t.Fatal("control messages not counted in RunStats")
	}
}

// Simnet runs core's cloud round, so a traced run journals one round,
// one phase1 and one phase2 span per round under the simnet name and
// counts core's slots — and tracing leaves the trajectory and the ledger
// bitwise unchanged.
func TestSimnetTraceCarriesCoreRoundSpans(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 12
	plain, _, err := HierMinimax(fltest.ToyProblem(3), cfg)
	if err != nil {
		t.Fatal(err)
	}

	var journal bytes.Buffer
	hub := obs.New()
	hub.SetTracer(obs.NewTracer(&journal))
	prev := obs.SetGlobal(hub)
	defer obs.SetGlobal(prev)
	traced, _, err := HierMinimax(fltest.ToyProblem(3), cfg)
	if err != nil {
		t.Fatal(err)
	}

	lines, err := obs.ReadTrace(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatalf("journal is not valid JSONL: %v", err)
	}
	spans := map[string]int{}
	for _, ln := range lines {
		spans[ln.Name]++
		if ln.Name == "round" && ln.Attrs["algorithm"] != "HierMinimax/simnet" {
			t.Fatalf("round span algorithm = %v", ln.Attrs["algorithm"])
		}
	}
	for _, name := range []string{"round", "phase1", "phase2"} {
		if spans[name] != cfg.Rounds {
			t.Errorf("journal has %d %s spans, want %d", spans[name], name, cfg.Rounds)
		}
	}
	if got, want := hub.Registry().Counter("core_slots_total").Value(), int64(cfg.Rounds*cfg.SampledEdges); got != want {
		t.Errorf("core_slots_total = %d, want %d", got, want)
	}

	for i := range plain.W {
		if plain.W[i] != traced.W[i] {
			t.Fatalf("w diverges at %d under tracing", i)
		}
	}
	for i := range plain.PWeights {
		if plain.PWeights[i] != traced.PWeights[i] {
			t.Fatalf("p diverges at %d under tracing", i)
		}
	}
	if plain.Ledger != traced.Ledger {
		t.Fatal("ledger diverges under tracing")
	}
}

// With a drop hook installed, dropped messages must land in the dropped
// counters, not the sent ones.
func TestObsDropCounters(t *testing.T) {
	hub := obs.New()
	prev := obs.SetGlobal(hub)
	defer obs.SetGlobal(prev)

	n := NewNetwork()
	n.Register(NodeID{Kind: Client, Index: 0}, 4)
	n.SetDrop(func(m Message) bool { return m.Kind == "lossy" })
	n.Seal()
	n.Send(Message{From: NodeID{Kind: Edge, Index: 0}, To: NodeID{Kind: Client, Index: 0}, Kind: "lossy", Bytes: 8})
	n.Send(Message{From: NodeID{Kind: Edge, Index: 0}, To: NodeID{Kind: Client, Index: 0}, Kind: "fine", Bytes: 8})

	reg := hub.Registry()
	if got := reg.Counter(`simnet_messages_dropped_total{link="client-edge"}`).Value(); got != 1 {
		t.Fatalf("dropped counter = %d, want 1", got)
	}
	if got := reg.Counter(`simnet_messages_sent_total{link="client-edge"}`).Value(); got != 1 {
		t.Fatalf("sent counter = %d, want 1", got)
	}
}
