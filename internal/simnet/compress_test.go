package simnet

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fl/fltest"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/topology"
)

// compressionRegimes are the uplink compression settings pinned by the
// three-way parity tests: both uniform widths and top-k with error
// feedback. Each is a deterministic rounding regime of its own.
func compressionRegimes() []struct {
	name string
	comp quant.Config
} {
	return []struct {
		name string
		comp quant.Config
	}{
		{"int8", quant.Config{Bits: 8}},
		{"int16", quant.Config{Bits: 16}},
		{"topk-ef", quant.Config{TopK: 8, ErrorFeedback: true}},
	}
}

// The tentpole parity claim, leg one: under every compression regime
// the actor engine reproduces the in-process engine bit for bit —
// model, weights, every snapshot, and the full communication ledger
// with its compressed byte accounting.
func TestSimnetCompressedMatchesCore(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 40
	cfg.EvalEvery = 10
	cfg.TrackAverages = true

	dense, err := core.HierMinimax(fltest.ToyProblem(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range compressionRegimes() {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg
			c.Compression = tc.comp
			ref, err := core.HierMinimax(fltest.ToyProblem(2), c)
			if err != nil {
				t.Fatal(err)
			}
			sim, _, err := HierMinimax(fltest.ToyProblem(2), c)
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
			for i := range ref.WHat {
				if ref.WHat[i] != sim.WHat[i] {
					t.Fatalf("wHat diverges at %d", i)
				}
			}
			if ref.Ledger != sim.Ledger {
				t.Fatalf("ledgers differ:\ncore   %+v\nsimnet %+v", ref.Ledger, sim.Ledger)
			}
			if len(ref.History.Snapshots) != len(sim.History.Snapshots) {
				t.Fatal("snapshot counts differ")
			}
			for s, rs := range ref.History.Snapshots {
				ss := sim.History.Snapshots[s]
				if rs.Fair != ss.Fair || rs.Ledger != ss.Ledger {
					t.Fatalf("snapshot %d diverges", s)
				}
			}
			// Compression must actually shrink the uplinks: the ledger's
			// client-edge and edge-cloud totals stay strictly below the
			// dense run's (downlinks are dense in both, uplinks are not).
			for _, link := range []topology.Link{topology.ClientEdge, topology.EdgeCloud} {
				if ref.Ledger.Bytes[link] >= dense.Ledger.Bytes[link] {
					t.Fatalf("%v bytes not reduced: %d vs dense %d",
						link, ref.Ledger.Bytes[link], dense.Ledger.Bytes[link])
				}
			}
			// And the compressed run must still learn: the regime is a
			// usable operating point, not just a consistent one.
			if final := ref.History.Final().Fair; final.Average < 0.6 {
				t.Fatalf("compressed run reached only %v", final.Average)
			}
		})
	}
}

// Leg two: the loopback-TCP runtime reproduces the in-process simnet
// run under compression — Packed payloads really cross the codec and
// land on the same trajectory, ledger and stats.
func TestWireCompressedMatchesSimnet(t *testing.T) {
	for _, tc := range compressionRegimes() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fltest.ToyConfig()
			cfg.Rounds = 12
			cfg.EvalEvery = 4
			cfg.TrackAverages = true
			cfg.Compression = tc.comp

			ref, refStats, err := HierMinimax(fltest.ToyProblem(3), cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, gotStats := runWire(t, cfg, 3)
			assertSameRun(t, ref, got, refStats, gotStats)
		})
	}
}

// Leg three: compression composes with chaos. Faults hit compressed
// payloads (a lost Block-0 train request carries a top-k residual
// forward — deterministically, because the fault schedule is), and the
// wire run still matches the in-process run bit for bit.
func TestWireCompressedMatchesSimnetUnderChaos(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 12
	cfg.EvalEvery = 4
	cfg.Compression = quant.Config{TopK: 8, ErrorFeedback: true}
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

// Under compression with faults the three accounts of a run's traffic —
// topology.Ledger, the obs transport counters and RunStats — must still
// reconcile exactly: compressed payloads are priced at their true wire
// size in all three, and nacked or dropped Packed payloads go back to
// their pool.
func TestCompressedFaultAccountingReconciles(t *testing.T) {
	for _, tc := range compressionRegimes() {
		t.Run(tc.name, func(t *testing.T) {
			hub := obs.New()
			prev := obs.SetGlobal(hub)
			defer obs.SetGlobal(prev)

			cfg := fltest.ToyConfig()
			cfg.Rounds = 40
			cfg.DropoutProb = 0.1
			cfg.TrackAverages = true
			cfg.Compression = tc.comp
			sched := &chaos.Schedule{Seed: 25, CrashProb: 0.15, PartitionProb: 0.05, LossProb: 0.05, MaxRetries: 1}

			res, stats, err := HierMinimax(fltest.ToyProblem(4), cfg, WithChaos(sched))
			if err != nil {
				t.Fatal(err)
			}
			if stats.MessagesLost == 0 || stats.Crashes == 0 {
				t.Fatal("chaos never fired; reconciliation would be vacuous")
			}

			reg := hub.Registry()
			counter := func(name string) int64 { return reg.Counter(name).Value() }
			var sent, dropped int64
			for class, link := range map[string]topology.Link{
				"client-edge":  topology.ClientEdge,
				"edge-cloud":   topology.EdgeCloud,
				"client-cloud": topology.ClientCloud,
			} {
				s := counter(`simnet_messages_sent_total{link="` + class + `"}`)
				b := counter(`simnet_bytes_sent_total{link="` + class + `"}`)
				sent += s
				dropped += counter(`simnet_messages_dropped_total{link="` + class + `"}`)
				if want := res.Ledger.Messages[link]; s != want {
					t.Errorf("%s messages: obs %d, ledger %d", class, s, want)
				}
				if want := res.Ledger.Bytes[link]; b != want {
					t.Errorf("%s bytes: obs %d, ledger %d", class, b, want)
				}
			}
			if sent != stats.MessagesSent-stats.MessagesLost {
				t.Errorf("delivered messages: obs %d, runstats %d-%d",
					sent, stats.MessagesSent, stats.MessagesLost)
			}
			if dropped != stats.MessagesLost {
				t.Errorf("dropped messages: obs %d, runstats %d", dropped, stats.MessagesLost)
			}
			if stats.PoolOutstanding != 0 {
				t.Errorf("payload leak: %d pooled vectors outstanding", stats.PoolOutstanding)
			}
		})
	}
}

// A compression regime must be bitwise-reproducible from the seed: two
// independent runs of the same Spec land on identical bits.
func TestCompressedRunIsDeterministic(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 30
	cfg.Compression = quant.Config{TopK: 8, ErrorFeedback: true}
	a, _, err := HierMinimax(fltest.ToyProblem(6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := HierMinimax(fltest.ToyProblem(6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.W {
		if a.W[i] != b.W[i] {
			t.Fatalf("w diverges at %d across identical runs", i)
		}
	}
	if a.Ledger != b.Ledger {
		t.Fatal("ledger diverges across identical runs")
	}
}
